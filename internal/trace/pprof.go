package trace

import (
	"fmt"
	"os"
	"runtime/pprof"
)

// StartCPUProfile starts a CPU profile of the whole process written to
// path — the CLIs' -cpuprofile — and returns the function that stops it
// and flushes the file; the caller runs it on every exit path. An empty
// path profiles nothing and returns a stop that does nothing.
func StartCPUProfile(path string) (stop func() error, err error) {
	if path == "" {
		return func() error { return nil }, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("cpuprofile: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("cpuprofile: %w", err)
	}
	return func() error {
		pprof.StopCPUProfile()
		if err := f.Close(); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		return nil
	}, nil
}
