package flowctl

import (
	"context"
	"testing"
	"time"
)

// TestSpillReplaysLargeChunk spills a chunk larger than the whole budget
// while the budget is held: its Replay waits for credits, gives up with
// its context, and is granted the chunk alone once the accountant is
// idle.
func TestSpillReplaysLargeChunk(t *testing.T) {
	const big = 65 << 20
	c, err := NewController(testPolicy(100))
	if err != nil {
		t.Fatalf("NewController: %v", err)
	}
	df := c.StartDump(4)
	ctx := context.Background()
	hold, _ := df.Admit(ctx, 100)
	release, _ := hold.Keep()
	a, err := df.Admit(ctx, big)
	if err != nil || a.Decision() != DecideSpill {
		t.Fatalf("Admit of %d bytes at a full budget: %v, err %v; want a spill", big, a, err)
	}
	if err := a.Spill(0, 4, big); err != nil {
		t.Fatalf("Spill: %v", err)
	}

	short, cancel := context.WithTimeout(ctx, 10*time.Millisecond)
	defer cancel()
	if _, err := df.Replay(short, 0, 4, big); err == nil {
		t.Fatal("Replay was granted while the budget was held")
	}
	release()
	r, err := df.Replay(ctx, 0, 4, big)
	if err != nil {
		t.Fatalf("Replay at an idle budget: %v", err)
	}
	rel, _ := r.Keep()
	if got := c.Budget().Stats().Used; got != big {
		t.Fatalf("used during replay = %d, want %d", got, big)
	}
	rel()
	if st := df.Finish(); st.SpilledChunks != 1 || st.SpilledBytes != big || st.ReplayedChunks != 1 {
		t.Fatalf("stats = %+v, want 1 spilled and 1 replayed chunk of %d bytes", st, big)
	}
}
