// Package copycheck deliberately copies a metrics.Counter by value. It
// exists only as a `go vet` target: the copylocks analyzer must flag the
// copy (the embedded noCopy gives the type Lock/Unlock methods), which
// TestVetFlagsCopies asserts by running vet over this directory. The
// package never builds into anything.
package copycheck

import "predata/internal/metrics"

// CopyCounter returns a by-value copy of a used Counter — exactly the
// bug the noCopy embedding makes vet catch.
func CopyCounter() int64 {
	var c metrics.Counter
	c.Inc()
	c2 := c // want "copies lock"
	return c2.Value()
}
