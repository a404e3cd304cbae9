package elastic

import (
	"context"
	"errors"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"predata/internal/flowctl"
)

func testPolicy() Policy {
	return Policy{Min: 1, Max: 4, GrowK: 2, ShrinkJ: 3, LowUtil: 0.25, Cooldown: 1, MaxStep: 1}
}

func overloadedDump(dump int64) Telemetry {
	return FromOverload(dump, &flowctl.OverloadStats{MaxLevel: flowctl.LevelSpill,
		SpilledBytes: 1 << 20, UtilizationPeak: 0.95, UtilizationMean: 0.8}, 0)
}

func idleDump(dump int64) Telemetry {
	return FromOverload(dump, &flowctl.OverloadStats{UtilizationPeak: 0.05, UtilizationMean: 0.02}, 0)
}

func busyDump(dump int64) Telemetry {
	return FromOverload(dump, &flowctl.OverloadStats{UtilizationPeak: 0.6, UtilizationMean: 0.4}, 0)
}

func TestPolicyValidation(t *testing.T) {
	if err := (Policy{Min: 0, Max: 2}).Validate(); err == nil {
		t.Fatal("Min 0 accepted")
	}
	if err := (Policy{Min: 3, Max: 2}).Validate(); err == nil {
		t.Fatal("Max < Min accepted")
	}
	if err := (Policy{Min: 1, Max: 2, LowUtil: 1.5}).Validate(); err == nil {
		t.Fatal("LowUtil 1.5 accepted")
	}
	if err := (Policy{Min: 1, Max: 2, LowUtil: math.NaN()}).Validate(); err == nil {
		t.Fatal("LowUtil NaN accepted")
	}
	if _, err := New(Policy{Min: 0, Max: 4}, 1); err == nil {
		t.Fatal("New accepted invalid policy")
	}
}

func TestNewClampsStart(t *testing.T) {
	a, err := New(testPolicy(), 99)
	if err != nil {
		t.Fatal(err)
	}
	if a.Current() != 4 {
		t.Fatalf("start clamped to %d, want Max 4", a.Current())
	}
	a, _ = New(testPolicy(), 0)
	if a.Current() != 1 {
		t.Fatalf("start clamped to %d, want Min 1", a.Current())
	}
}

func TestGrowAfterKConsecutiveOverloads(t *testing.T) {
	a, _ := New(testPolicy(), 1)
	d := a.Observe(overloadedDump(0))
	if d.Direction != Hold {
		t.Fatalf("grew after one overloaded dump: %+v", d)
	}
	d = a.Observe(overloadedDump(1))
	if d.Direction != Grow || d.Target != 2 {
		t.Fatalf("no grow after K=2 overloaded dumps: %+v", d)
	}
	if !strings.Contains(d.Reason, "overloaded") {
		t.Fatalf("reason %q", d.Reason)
	}
}

func TestHysteresisResetsStreaks(t *testing.T) {
	a, _ := New(testPolicy(), 1)
	a.Observe(overloadedDump(0))
	a.Observe(busyDump(1)) // neutral: resets the grow streak
	d := a.Observe(overloadedDump(2))
	if d.Direction != Hold {
		t.Fatalf("streak survived a neutral dump: %+v", d)
	}
	d = a.Observe(overloadedDump(3))
	if d.Direction != Grow {
		t.Fatalf("no grow after rebuilt streak: %+v", d)
	}

	// Shrink streaks reset on overload evidence too.
	a, _ = New(testPolicy(), 3)
	a.Observe(idleDump(0))
	a.Observe(idleDump(1))
	a.Observe(overloadedDump(2))
	a.Observe(idleDump(3))
	a.Observe(idleDump(4))
	d = a.Observe(idleDump(5))
	if d.Direction != Shrink || d.Target != 2 {
		t.Fatalf("shrink streak accounting wrong: %+v", d)
	}
}

func TestCooldownFreezesDecisions(t *testing.T) {
	a, _ := New(testPolicy(), 1) // Cooldown 1
	a.Observe(overloadedDump(0))
	if d := a.Observe(overloadedDump(1)); d.Direction != Grow {
		t.Fatalf("no initial grow: %+v", d)
	}
	// Still overloaded, but the next boundary is inside the cooldown.
	d := a.Observe(overloadedDump(2))
	if d.Direction != Hold || !strings.Contains(d.Reason, "cooldown") {
		t.Fatalf("decision during cooldown: %+v", d)
	}
	// Cooldown expired; the streak rebuilt during it does not count —
	// it was reset by the resize — so two more overloaded dumps grow.
	d = a.Observe(overloadedDump(3))
	if d.Direction != Grow || d.Target != 3 {
		t.Fatalf("post-cooldown decision: %+v", d)
	}
	st := a.Stats()
	if st.Grows != 2 || st.CooldownHolds != 1 || st.Decisions != 4 {
		t.Fatalf("stats %+v", st)
	}
}

func TestBoundsAndMaxStep(t *testing.T) {
	pol := testPolicy()
	pol.Cooldown = -1 // explicit zero cooldown (withDefaults keeps 0 for negatives)
	a, _ := New(pol, 4)
	// At Max already: sustained overload holds.
	a.Observe(overloadedDump(0))
	if d := a.Observe(overloadedDump(1)); d.Direction != Hold || d.Target != 4 {
		t.Fatalf("moved past Max: %+v", d)
	}
	if a.Current() != 4 {
		t.Fatalf("current %d exceeded Max", a.Current())
	}

	// MaxStep 1: a long overload run still moves one rank per decision.
	a, _ = New(pol, 1)
	for i := 0; i < 2; i++ {
		a.Observe(overloadedDump(int64(i)))
	}
	if a.Current() != 2 {
		t.Fatalf("current %d after one grow decision, want 2", a.Current())
	}

	// Min bound: an idle pool never shrinks below Min.
	a, _ = New(pol, 1)
	for i := 0; i < 10; i++ {
		a.Observe(idleDump(int64(i)))
	}
	if a.Current() != 1 {
		t.Fatalf("current %d fell below Min", a.Current())
	}
}

func TestShrinkRequiresCleanDumps(t *testing.T) {
	a, _ := New(testPolicy(), 3)
	// Low utilization but a rank was lost: never counts toward shrink.
	lost := idleDump(0)
	lost.RanksLost = 1
	for i := 0; i < 5; i++ {
		lost.Dump = int64(i)
		if d := a.Observe(lost); d.Direction != Hold {
			t.Fatalf("shrank on a faulted dump: %+v", d)
		}
	}
	// Low utilization with spill volume: not a shrink candidate either.
	spilly := idleDump(0)
	spilly.SpilledBytes = 100
	for i := 5; i < 10; i++ {
		spilly.Dump = int64(i)
		if d := a.Observe(spilly); d.Direction != Hold {
			t.Fatalf("shrank on a spilling dump: %+v", d)
		}
	}
}

func TestDeterministicLockstep(t *testing.T) {
	// Two scalers fed the same telemetry stay identical — the property
	// that lets every rank decide independently without a protocol.
	mk := func() *Autoscaler { a, _ := New(testPolicy(), 2); return a }
	a, b := mk(), mk()
	seq := []Telemetry{
		overloadedDump(0), overloadedDump(1), busyDump(2), idleDump(3),
		idleDump(4), idleDump(5), overloadedDump(6), overloadedDump(7),
		idleDump(8), idleDump(9), idleDump(10), idleDump(11),
	}
	for _, tel := range seq {
		da, db := a.Observe(tel), b.Observe(tel)
		if da != db {
			t.Fatalf("dump %d: decisions diverged: %+v vs %+v", tel.Dump, da, db)
		}
	}
	if a.Stats() != b.Stats() {
		t.Fatalf("stats diverged: %+v vs %+v", a.Stats(), b.Stats())
	}
}

func TestMergeCombinesRanks(t *testing.T) {
	rows := []Telemetry{
		FromOverload(3, &flowctl.OverloadStats{MaxLevel: flowctl.LevelSpill, SpilledBytes: 100,
			UtilizationPeak: 0.9, UtilizationMean: 0.6, Throttles: 2}, 0),
		FromOverload(3, &flowctl.OverloadStats{UtilizationPeak: 0.2, UtilizationMean: 0.1}, 0),
		FromOverload(3, nil, 0), // parked rank: inert row
	}
	m := Merge(rows)
	if m.Dump != 3 || m.Rows != 2 || !m.Overloaded() {
		t.Fatalf("merge %+v", m)
	}
	if m.SpilledBytes != 100 || m.Throttles != 2 {
		t.Fatalf("merge volumes %+v", m)
	}
	if m.UtilizationPeak != 0.9 {
		t.Fatalf("merge peak %g", m.UtilizationPeak)
	}
	if m.UtilizationMean != 0.35 {
		t.Fatalf("merge mean %g, want mean of active rows 0.35", m.UtilizationMean)
	}
	if got := Merge(nil); got != (Telemetry{}) {
		t.Fatalf("empty merge %+v", got)
	}
}

func TestFromOverload(t *testing.T) {
	o := &flowctl.OverloadStats{
		MaxLevel: flowctl.LevelSpill, SpilledBytes: 42, Throttles: 1,
		UtilizationPeak: 0.7, UtilizationMean: 0.5,
	}
	tel := FromOverload(9, o, 1)
	if !tel.Overloaded() || tel.SpilledBytes != 42 || tel.RanksLost != 1 || tel.Rows != 1 {
		t.Fatalf("FromOverload %+v", tel)
	}
	inert := FromOverload(9, nil, 0)
	if inert.Rows != 0 || inert.Overloaded() {
		t.Fatalf("nil stats row %+v", inert)
	}
	normal := FromOverload(9, &flowctl.OverloadStats{MaxLevel: flowctl.LevelNormal}, 0)
	if normal.Overloaded() {
		t.Fatal("normal-level dump flagged overloaded")
	}
}

func TestScheduleAnnounceAndWait(t *testing.T) {
	s := NewSchedule(2)
	n, err := s.ActiveAt(context.Background(), 0)
	if err != nil || n != 2 {
		t.Fatalf("ActiveAt(0) = %d, %v", n, err)
	}

	var wg sync.WaitGroup
	got := make([]int, 4)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			got[i], _ = s.ActiveAt(ctx, 1)
		}(i)
	}
	// Duplicate announcements from many "ranks" are idempotent.
	for i := 0; i < 3; i++ {
		if err := s.Announce(1, 3); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	for i, n := range got {
		if n != 3 {
			t.Fatalf("waiter %d got %d, want 3", i, n)
		}
	}

	if err := s.Announce(1, 4); err == nil {
		t.Fatal("conflicting announcement accepted")
	}
	if err := s.Announce(2, 0); err == nil {
		t.Fatal("zero-rank announcement accepted")
	}
}

func TestScheduleWaitIsDeadlineBounded(t *testing.T) {
	s := NewSchedule(1)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := s.ActiveAt(ctx, 7); err == nil {
		t.Fatal("unannounced dump wait returned without deadline")
	} else if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline", err)
	}
}

func TestScheduleAbortUnblocksWaiters(t *testing.T) {
	s := NewSchedule(1)
	boom := errors.New("staging pool died")
	done := make(chan error, 1)
	go func() {
		_, err := s.ActiveAt(context.Background(), 5)
		done <- err
	}()
	time.Sleep(5 * time.Millisecond)
	s.Abort(boom)
	select {
	case err := <-done:
		if !errors.Is(err, boom) {
			t.Fatalf("waiter got %v, want abort error", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("abort did not unblock the waiter")
	}
	// First abort wins; later aborts and nil aborts are no-ops.
	s.Abort(errors.New("other"))
	s.Abort(nil)
	if _, err := s.ActiveAt(context.Background(), 0); !errors.Is(err, boom) {
		t.Fatalf("post-abort ActiveAt = %v, want original abort error", err)
	}
}
