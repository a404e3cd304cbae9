//go:build linux && (amd64 || arm64)

package wal

import (
	"os"
	"syscall"
)

// fadvDontNeed is POSIX_FADV_DONTNEED.
const fadvDontNeed = 4

// dropCache tells the kernel that [off, off+n) of f will not be read
// again. Advice only: a failure changes nothing that matters, so it is
// not reported.
func dropCache(f *os.File, off, n int64) {
	rc, err := f.SyscallConn()
	if err != nil {
		return
	}
	rc.Control(func(fd uintptr) {
		syscall.Syscall6(syscall.SYS_FADVISE64, fd, uintptr(off), uintptr(n), fadvDontNeed, 0, 0)
	})
}
