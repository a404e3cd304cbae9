//go:build linux && (amd64 || arm64)

package wal

import (
	"math"
	"strings"
	"syscall"
	"testing"
)

// TestOversizeRecordRefused pins the one payload Append refuses: one the
// 32-bit length field cannot express. (It used to be anything over a
// fixed 64 MiB frame cap; chunk payloads may be larger than that, so the
// contract now follows the format.) The payload is a PROT_NONE mapping
// one byte past 4 GiB: it costs no memory, and a refusal that read a
// byte of it before checking the length would fault.
func TestOversizeRecordRefused(t *testing.T) {
	huge, err := syscall.Mmap(-1, 0, math.MaxUint32+1, syscall.PROT_NONE,
		syscall.MAP_PRIVATE|syscall.MAP_ANON|syscall.MAP_NORESERVE)
	if err != nil {
		t.Fatalf("reserving a 4 GiB address range: %v", err)
	}
	defer syscall.Munmap(huge)
	dir := t.TempDir()
	l := mustOpen(t, dir)
	err = l.AppendChunk(0, 0, huge)
	if err == nil || !strings.Contains(err.Error(), "32-bit length field") {
		t.Fatalf("AppendChunk of %d bytes: err = %v, want a length-field refusal", len(huge), err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if st, err := Recover(dir); err != nil || st.Torn || st.Records != 0 {
		t.Fatalf("a refused record left bytes behind: %+v, err %v", st, err)
	}
}
