package bench

import (
	"fmt"
	"time"
)

// chaos runs the fault-injection experiment: the same workload fault-free,
// under transient faults, and under a staging-rank crash. It demonstrates
// the recovery layer's contract — transient faults are absorbed with
// identical results, a crash degrades but never loses data, and the
// chaotic runs stay within a bounded slowdown of the baseline.
func chaos(rp *Report) error {
	const (
		numCompute = 8
		perRank    = 5000
		crashIdx   = 1
		crashDump  = 1
	)
	rp.seeded("Chaos — fault injection and recovery")
	shape := gtcShape(numCompute, 2, 3)
	outs, err := runLegs(rp.seed, []leg{
		{name: "fault-free", cfg: shape, perRank: perRank},
		{name: "transient p=0.1", cfg: shape, perRank: perRank, plan: "transient:*:0.1"},
		{name: fmt.Sprintf("staging crash @dump %d", crashDump), cfg: shape, perRank: perRank,
			plan: fmt.Sprintf("crash:%d@%d;transient:*:0.05", numCompute+crashIdx, crashDump)},
	})
	if err != nil {
		return err
	}
	// The loss column verifies zero data loss per dump: every particle of
	// every writer is binned exactly twice (two histogrammed columns).
	var rows []row
	for _, o := range outs {
		f := o.res.Fault
		rows = append(rows, row{
			{"name", o.name, "run", "%s"},
			{"wall_ms", o.wall.Milliseconds(), "wall", "%dms"},
			{"transients", f.InjectedTransients, "transients", "%d"},
			{"retries", f.Retries, "retries", "%d"},
			{"degraded_dumps", f.DegradedDumps, "degraded", "%d"},
			{"data_loss", o.loss(), "loss", "%d"},
		})
	}
	rp.section("chaos", nil, rows)

	// Invariants the experiment exists to demonstrate.
	base, trans, crash := outs[0], outs[1], outs[2]
	want := int64(numCompute*perRank) * 2
	for _, o := range []outcome{trans, crash} {
		for d, got := range o.census {
			if got != want {
				return fmt.Errorf("bench: %s run lost data at dump %d: %d != %d", o.name, d, got, want)
			}
		}
	}
	if trans.res.Fault.InjectedTransients > 0 && trans.res.Fault.Retries == 0 {
		return fmt.Errorf("bench: transients fired but nothing retried")
	}
	if crash.res.Fault.DegradedDumps == 0 {
		return fmt.Errorf("bench: crash run reports no degraded dumps")
	}
	// Bounded slowdown: chaotic runs finish within an order of magnitude
	// of the baseline (generous — CI machines are noisy).
	for _, o := range []outcome{trans, crash} {
		if o.wall > 10*base.wall+time.Second {
			return fmt.Errorf("bench: %s run wall %v exceeds bounded slowdown of baseline %v",
				o.name, o.wall, base.wall)
		}
	}
	rp.printf("\nrecovery absorbs transients with identical results and completes a staging crash degraded, lossless\n")
	return nil
}
