package flowctl

import (
	"context"
	"os"
	"sync"
	"testing"
	"time"

	"predata/internal/wal"
)

func testPolicy(budget int64) Policy {
	return Policy{
		BudgetBytes: budget,
		Patience:    5 * time.Millisecond,
	}
}

func TestPolicyDefaults(t *testing.T) {
	p := Policy{BudgetBytes: 1000}.withDefaults()
	if p.Patience <= 0 {
		t.Fatalf("patience = %v, want positive", p.Patience)
	}
	if p.SpillLimitBytes != 8000 {
		t.Fatalf("spill limit = %d, want 8x budget", p.SpillLimitBytes)
	}
	if p.PassLimitBytes != 32000 {
		t.Fatalf("pass limit = %d, want 4x spill limit", p.PassLimitBytes)
	}
	if p.ShedSample != 8 {
		t.Fatalf("shed sample = %d, want 8", p.ShedSample)
	}
}

func TestControllerRejectsBadPolicy(t *testing.T) {
	if _, err := NewController(Policy{}); err == nil {
		t.Fatal("NewController accepted zero budget")
	}
	if _, err := NewController(Policy{BudgetBytes: -5}); err == nil {
		t.Fatal("NewController accepted negative budget")
	}
}

func TestAdmitProcessWithinBudget(t *testing.T) {
	c, err := NewController(testPolicy(1000))
	if err != nil {
		t.Fatalf("NewController: %v", err)
	}
	df := c.StartDump(1)
	a, err := df.Admit(context.Background(), 400)
	if err != nil {
		t.Fatalf("Admit: %v", err)
	}
	if a.Decision() != DecideProcess {
		t.Fatalf("decision = %v, want process", a.Decision())
	}
	release, err := a.Keep()
	if err != nil {
		t.Fatalf("Keep: %v", err)
	}
	if got := c.Budget().Stats().Used; got != 400 {
		t.Fatalf("used = %d, want 400", got)
	}
	release()
	st := df.Finish()
	if st.MaxLevel != LevelNormal || st.SpilledChunks != 0 {
		t.Fatalf("stats = %+v, want clean normal-level dump", st)
	}
}

func TestAdmitEscalatesToSpill(t *testing.T) {
	c, err := NewController(testPolicy(1000))
	if err != nil {
		t.Fatalf("NewController: %v", err)
	}
	df := c.StartDump(1)
	ctx := context.Background()

	// Fill the budget and hold it — the next admission exhausts its
	// patience and escalates the ladder to spill.
	hold, err := df.Admit(ctx, 1000)
	if err != nil {
		t.Fatalf("first Admit: %v", err)
	}
	release, _ := hold.Keep()

	a, err := df.Admit(ctx, 300)
	if err != nil {
		t.Fatalf("second Admit: %v", err)
	}
	if a.Decision() != DecideSpill {
		t.Fatalf("decision = %v, want spill", a.Decision())
	}
	if df.Level() != LevelSpill {
		t.Fatalf("level = %d, want spill", df.Level())
	}
	// A spill holds nothing: the chunk waits in its writer's region.
	if err := a.Spill(2, 1, 300); err != nil {
		t.Fatalf("Spill: %v", err)
	}
	if got := c.Budget().Stats().Used; got != 1000 {
		t.Fatalf("used after spill = %d, want 1000", got)
	}

	// Replay admits the spilled chunk's deferred pull with real credits.
	release()
	r, err := df.Replay(ctx, 2, 1, 300)
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	rel, err := r.Keep()
	if err != nil {
		t.Fatalf("Keep on a replay admission: %v", err)
	}
	if got := c.Budget().Stats().Used; got != 300 {
		t.Fatalf("used during replay = %d, want 300", got)
	}
	rel()
	st := df.Finish()
	if st.SpilledChunks != 1 || st.SpilledBytes != 300 || st.ReplayedChunks != 1 {
		t.Fatalf("stats = %+v, want 1 spilled+replayed chunk of 300 bytes", st)
	}
	if st.MaxLevel != LevelSpill {
		t.Fatalf("max level = %d, want spill", st.MaxLevel)
	}
	if st.Throttles == 0 {
		t.Fatal("expected nonzero throttle count from the patience wait")
	}
}

func TestSpillDeescalatesWhenDrained(t *testing.T) {
	c, err := NewController(testPolicy(1000))
	if err != nil {
		t.Fatalf("NewController: %v", err)
	}
	df := c.StartDump(1)
	ctx := context.Background()

	hold, _ := df.Admit(ctx, 1000)
	release, _ := hold.Keep()
	a, _ := df.Admit(ctx, 100)
	if a.Decision() != DecideSpill {
		t.Fatalf("decision = %v, want spill", a.Decision())
	}
	if err := a.Spill(0, 1, 100); err != nil {
		t.Fatalf("Spill: %v", err)
	}
	// Drain below the low watermark: the ladder relaxes back to normal.
	release()
	b, err := df.Admit(ctx, 100)
	if err != nil {
		t.Fatalf("Admit after drain: %v", err)
	}
	if b.Decision() != DecideProcess {
		t.Fatalf("decision after drain = %v, want process", b.Decision())
	}
	rel, _ := b.Keep()
	rel()
	df.Finish()
}

func TestLadderEscalatesToShedAndPass(t *testing.T) {
	pol := testPolicy(100)
	pol.SpillLimitBytes = 250
	pol.PassLimitBytes = 500
	pol.ShedSample = 2
	pol.SpillDir = t.TempDir()
	c, err := NewController(pol)
	if err != nil {
		t.Fatalf("NewController: %v", err)
	}
	df := c.StartDump(7)
	ctx := context.Background()
	hold, _ := df.Admit(ctx, 100)
	release, _ := hold.Keep()
	defer release()

	spillUntil := func(wantLevel int) {
		t.Helper()
		for i := 0; i < 20; i++ {
			if df.Level() >= wantLevel {
				return
			}
			a, err := df.Admit(ctx, 100)
			if err != nil {
				t.Fatalf("Admit: %v", err)
			}
			if a.Decision() == DecidePass {
				if err := a.Pass(0, 7, make([]byte, 100)); err != nil {
					t.Fatalf("Pass: %v", err)
				}
				continue
			}
			if err := a.Spill(0, 7, 100); err != nil {
				t.Fatalf("Spill: %v", err)
			}
		}
		t.Fatalf("never reached level %d (at %d)", wantLevel, df.Level())
	}

	spillUntil(LevelShed)
	// Shed classing: with stride 2, alternating sampled/shed.
	shedding, sampled1 := df.ShedClass()
	if !shedding || !sampled1 {
		t.Fatalf("first ShedClass = (%v,%v), want shedding+sampled", shedding, sampled1)
	}
	_, sampled2 := df.ShedClass()
	if sampled2 {
		t.Fatal("second ShedClass sampled; want shed with stride 2")
	}

	spillUntil(LevelPass)
	a, err := df.Admit(ctx, 100)
	if err != nil {
		t.Fatalf("Admit at pass level: %v", err)
	}
	if a.Decision() != DecidePass {
		t.Fatalf("decision = %v, want pass", a.Decision())
	}
	if err := a.Pass(4, 7, []byte("raw-bytes")); err != nil {
		t.Fatalf("Pass: %v", err)
	}

	st := df.Finish()
	if st.MaxLevel != LevelPass {
		t.Fatalf("max level = %d, want pass", st.MaxLevel)
	}
	if st.ShedChunks == 0 || st.SampledChunks == 0 || st.PassedChunks == 0 {
		t.Fatalf("stats = %+v, want nonzero shed/sampled/passed", st)
	}
	// Every passed chunk is in the retained log, raw, the last one being
	// the admission passed just above.
	var passed int64
	var last []byte
	err = wal.Scan(df.PassLogDir(), func(rec wal.Record) error {
		passed++
		last = rec.Payload
		if rec.Timestep != 7 {
			t.Errorf("passed chunk stamped timestep %d, want 7", rec.Timestep)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("reading the pass log in %q: %v", df.PassLogDir(), err)
	}
	if passed != st.PassedChunks || string(last) != "raw-bytes" {
		t.Fatalf("pass log holds %d chunks ending %q, want %d ending %q",
			passed, last, st.PassedChunks, "raw-bytes")
	}
}

func TestShedClassOutsideShedMode(t *testing.T) {
	c, _ := NewController(testPolicy(1000))
	df := c.StartDump(1)
	if shedding, _ := df.ShedClass(); shedding {
		t.Fatal("normal-level dump reports shedding")
	}
	df.Finish()
}

func TestAdmissionAbortReleasesResources(t *testing.T) {
	c, _ := NewController(testPolicy(1000))
	df := c.StartDump(1)
	ctx := context.Background()

	a, _ := df.Admit(ctx, 400)
	a.Abort()
	a.Abort() // idempotent
	if got := c.Budget().Stats().Used; got != 0 {
		t.Fatalf("used after abort = %d, want 0", got)
	}
	df.Finish()
}

func TestFinishIdempotentAndCleansSegments(t *testing.T) {
	pol := testPolicy(100)
	pol.SpillDir = t.TempDir()
	c, _ := NewController(pol)
	df := c.StartDump(1)
	ctx := context.Background()
	hold, _ := df.Admit(ctx, 100)
	rel, _ := hold.Keep()
	a, _ := df.Admit(ctx, 50)
	if err := a.Spill(0, 1, 50); err != nil {
		t.Fatalf("Spill: %v", err)
	}
	rel()
	st1 := df.Finish() // abort path: the spill is never replayed
	st2 := df.Finish()
	if st1 != st2 {
		t.Fatalf("Finish not idempotent: %+v vs %+v", st1, st2)
	}
	if left, _ := os.ReadDir(pol.SpillDir); len(left) != 0 {
		t.Fatalf("Finish left %d entries in the spill directory", len(left))
	}
	if st1.SpilledChunks != 1 || st1.ReplayedChunks != 0 {
		t.Fatalf("stats = %+v, want 1 spilled, 0 replayed", st1)
	}
}

func TestAdmitRespectsContext(t *testing.T) {
	pol := testPolicy(100)
	pol.Patience = time.Hour // never escalate via patience
	c, err := NewController(pol)
	if err != nil {
		t.Fatalf("NewController: %v", err)
	}
	df := c.StartDump(1)
	hold, _ := df.Admit(context.Background(), 100)
	release, _ := hold.Keep()
	defer release()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := df.Admit(ctx, 50); err == nil {
		t.Fatal("Admit outlived its context")
	}
	df.Finish()
}

func TestPassSlotSerializesOverdrafts(t *testing.T) {
	pol := testPolicy(100)
	pol.SpillLimitBytes, pol.PassLimitBytes = 1, 1 // the first spill escalates to pass
	pol.SpillDir = t.TempDir()
	c, _ := NewController(pol)
	df := c.StartDump(1)
	ctx := context.Background()
	hold, _ := df.Admit(ctx, 100)
	release, _ := hold.Keep()
	defer release()
	a, _ := df.Admit(ctx, 60)
	if err := a.Spill(0, 1, 60); err != nil {
		t.Fatalf("Spill: %v", err)
	}

	// Concurrent passing admissions: the budget's peak must stay within
	// capacity + the largest single overdraft, proving serialization.
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			a, err := df.Admit(ctx, 60)
			if err != nil {
				t.Errorf("Admit %d: %v", i, err)
				return
			}
			if a.Decision() != DecidePass {
				a.Abort()
				t.Errorf("Admit %d decision = %v, want pass", i, a.Decision())
				return
			}
			if err := a.Pass(i, 1, make([]byte, 60)); err != nil {
				t.Errorf("Pass %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	if peak := c.Budget().Stats().Peak; peak > 100+60 {
		t.Fatalf("peak = %d, exceeds capacity + one chunk (160)", peak)
	}
	df.Finish()
}
