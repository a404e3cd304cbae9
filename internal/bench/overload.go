package bench

import (
	"fmt"
	"time"

	"predata/internal/flowctl"
	"predata/internal/predata"
)

// shedding condenses a run's per-dump results: how many were marked
// Degraded and which operators the ladder withheld chunks from.
func shedding(res *predata.PipelineResult) (degraded int64, operators []string) {
	operators = []string{}
	seen := map[string]bool{}
	for _, perDump := range res.StagingResults {
		for _, r := range perDump {
			if r.Degraded {
				degraded++
			}
			for _, op := range r.ShedOperators {
				if !seen[op] {
					seen[op] = true
					operators = append(operators, op)
				}
			}
		}
	}
	return degraded, operators
}

// overload runs the memory-budget experiment: the same slow-consumer
// workload unconstrained, under a budget smaller than one dump (spill),
// with the shed rung forced, and under a budget combined with transient
// fabric faults. It demonstrates the flow-control contract — spilling is
// lossless and result-identical, shedding degrades only optional
// operators, and the accountant's peak stays within budget + one chunk.
func overload(rp *Report) error {
	const (
		perRank  = 6000 // ~384 KB/chunk; 4 chunks/rank/dump ≈ 1.5 MB > 1 MB budget
		bufferMB = 1
		mapCost  = 3 * time.Millisecond
	)
	rp.seeded("Overload — memory budget and degradation ladder")

	shape := gtcShape(8, 2, 2)
	shape.Engine.Workers = 1
	shape.PullConcurrency = 4
	budgeted := func(pol flowctl.Policy) predata.PipelineConfig {
		cfg := shape
		cfg.BufferMB = bufferMB
		cfg.Overload = pol
		return cfg
	}
	spillPol := flowctl.Policy{Patience: 2 * time.Millisecond}
	shedPol := flowctl.Policy{
		Patience:        time.Millisecond,
		SpillLimitBytes: 1,       // first spilled byte escalates to shed
		PassLimitBytes:  1 << 40, // never to raw pass-through
		ShedSample:      2,
	}
	outs, err := runLegs(rp.seed, []leg{
		{name: "unconstrained", cfg: shape, perRank: perRank, mapCost: mapCost},
		{name: fmt.Sprintf("budget %d MB (spill)", bufferMB), cfg: budgeted(spillPol), perRank: perRank, mapCost: mapCost},
		{name: fmt.Sprintf("budget %d MB, shed forced", bufferMB), cfg: budgeted(shedPol), perRank: perRank, mapCost: mapCost},
		{name: fmt.Sprintf("budget %d MB + transient p=0.1", bufferMB), cfg: budgeted(spillPol), perRank: perRank, mapCost: mapCost,
			plan: "transient:*:0.1"},
	})
	if err != nil {
		return err
	}

	// Data conservation as in the chaos experiment: every particle lands
	// in exactly one bin per histogrammed column — except chunks withheld
	// from the (optional) histogram by shedding, which are reported, not
	// lost.
	const mb = 1 << 20
	var rows []row
	for _, o := range outs {
		ov := o.res.Overload
		degraded, shedOps := shedding(o.res)
		rows = append(rows, row{
			{"name", o.name, "run", "%s"},
			{"wall_ms", o.wall.Milliseconds(), "wall", "%dms"},
			{"budget_bytes", ov.BudgetBytes, "", ""},
			{"throttles", ov.Throttles, "throttle", "%d"},
			{"throttle_wait_ms", ov.ThrottleWait.Milliseconds(), "", ""},
			{"spilled_chunks", ov.SpilledChunks, "", ""},
			{"spilled_bytes", ov.SpilledBytes, "", ""},
			{"", float64(ov.SpilledBytes) / mb, "spillMB", "%.2f"},
			{"replayed_chunks", ov.ReplayedChunks, "replayed", "%d"},
			{"sampled_chunks", ov.SampledChunks, "", ""},
			{"shed_chunks", ov.ShedChunks, "shed", "%d"},
			{"passed_chunks", ov.PassedChunks, "", ""},
			{"passed_bytes", ov.PassedBytes, "", ""},
			{"peak_bytes", ov.PeakBytes, "", ""},
			{"", float64(ov.PeakBytes) / mb, "peakMB", "%.2f"},
			{"max_level", flowctl.LevelName(ov.MaxLevel), "level", "%s"},
			{"shed_operators", shedOps, "", ""},
			{"degraded_dumps", degraded, "", ""},
			{"data_loss", o.loss(), "loss", "%d"},
		})
	}
	rp.section("overload", nil, rows)

	// Invariants the experiment exists to demonstrate.
	spill, shed, chaotic := outs[1], outs[2], outs[3]
	if ov := spill.res.Overload; ov.Throttles == 0 || ov.SpilledChunks == 0 {
		return fmt.Errorf("bench: spill run never throttled or spilled: %v", rows[1])
	}
	if ov := spill.res.Overload; ov.ReplayedChunks != ov.SpilledChunks {
		return fmt.Errorf("bench: spill run lost chunks: replayed %d of %d", ov.ReplayedChunks, ov.SpilledChunks)
	}
	if spill.loss() != 0 || chaotic.loss() != 0 {
		return fmt.Errorf("bench: spill-level runs must be lossless: %v / %v", rows[1], rows[3])
	}
	chunkBytes := int64(perRank * 8 * 8) // 8 float64 columns
	for _, o := range outs[1:] {
		if ov := o.res.Overload; ov.PeakBytes > ov.BudgetBytes+2*chunkBytes {
			return fmt.Errorf("bench: %s peak %d exceeds budget %d + slack", o.name, ov.PeakBytes, ov.BudgetBytes)
		}
	}
	if degraded, shedOps := shedding(shed.res); shed.res.Overload.ShedChunks == 0 || len(shedOps) == 0 || degraded == 0 {
		return fmt.Errorf("bench: forced shed run never shed: %v", rows[2])
	}
	rp.printf("\nbudgeted runs stay within budget + one chunk, spill is lossless, shed degrades only optional operators\n")
	return nil
}
