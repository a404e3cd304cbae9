//go:build !(linux && (amd64 || arm64))

package wal

import "os"

// dropCache is a no-op where the page cache takes no advice.
func dropCache(*os.File, int64, int64) {}
