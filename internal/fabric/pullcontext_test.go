package fabric

import (
	"context"
	"errors"
	"testing"
	"time"
)

func TestPullContextCancelWhileDeferred(t *testing.T) {
	f, err := New(DefaultConfig(2))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer f.Shutdown()
	compute, _ := f.Endpoint(0)
	staging, _ := f.Endpoint(1)

	h := compute.Expose([]byte("payload"))
	compute.EnterBusyPhase()

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, _, err = staging.PullContext(ctx, h)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deferred PullContext err = %v, want DeadlineExceeded", err)
	}
	// The region must survive a cancelled deferred pull so a retry can
	// succeed once the busy phase ends.
	compute.LeaveBusyPhase()
	data, _, err := staging.Pull(h)
	if err != nil {
		t.Fatalf("retry Pull after cancel: %v", err)
	}
	if string(data) != "payload" {
		t.Fatalf("retry returned %q, want payload", data)
	}
}

func TestPullContextCancelledBeforeStartStillChecksLiveness(t *testing.T) {
	f, err := New(DefaultConfig(2))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer f.Shutdown()
	compute, _ := f.Endpoint(0)
	staging, _ := f.Endpoint(1)
	h := compute.Expose([]byte("x"))

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := staging.PullContext(ctx, h); !errors.Is(err, context.Canceled) {
		t.Fatalf("PullContext with dead ctx err = %v, want Canceled", err)
	}
	// Region intact.
	if got := compute.ExposedBytes(); got != 1 {
		t.Fatalf("exposed bytes after cancelled pull = %d, want 1", got)
	}
}
