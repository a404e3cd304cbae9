package bench

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"predata/internal/predata"
	"predata/internal/trace"
)

// tracePair runs reps back-to-back (untraced, traced) pairs of the
// workload and reports the median paired overhead ratio. Pairing puts
// both legs under the same instantaneous machine load, and the median
// of per-pair ratios discards the pairs a GC cycle or scheduler stall
// landed in — the noise on a ~50 ms goroutine pipeline is far larger
// than the recorder's true cost, so min-vs-min or mean estimators
// flake. Also returns each leg's fastest wall clock (for the report
// table) and the recording of the fastest traced repetition.
func tracePair(seed int64, reps int, shape predata.PipelineConfig, perRank int) (untraced, traced time.Duration, overheadPct float64, bestRec *trace.Recording, err error) {
	untraced, traced = -1, -1
	ratios := make([]float64, 0, reps)
	timed := func(rec *trace.Recorder) (time.Duration, error) {
		// Start every leg from a collected heap so GC cycles triggered by
		// the previous leg's garbage don't land inside this one's timing.
		runtime.GC()
		cfg := shape
		cfg.Tracer = rec
		o, err := leg{name: "overhead measurement", cfg: cfg, perRank: perRank}.run(seed)
		return o.wall, err
	}
	for i := 0; i < reps; i++ {
		// Right-size the rings for this workload (~2,300 events, spread
		// round-robin over the shards): the default 16×8192 rings hold
		// 7 MB live, enough to shift GC pacing in an allocation-heavy
		// pipeline and drown the recording cost we are measuring.
		// Capacity stays ~3.5× the event count, so nothing drops.
		rec := trace.New(trace.Config{
			NumCompute: shape.NumCompute, NumStaging: shape.NumStaging, Dumps: shape.Dumps,
			Shards: 4, ShardCapacity: 2048,
		})
		var u, tr time.Duration
		// Alternate which leg runs first so any second-run-in-a-pair
		// effect (warmer heap, pending background work) cancels out.
		if i%2 == 0 {
			if u, err = timed(nil); err == nil {
				tr, err = timed(rec)
			}
		} else {
			if tr, err = timed(rec); err == nil {
				u, err = timed(nil)
			}
		}
		if err != nil {
			return 0, 0, 0, nil, err
		}
		if untraced < 0 || u < untraced {
			untraced = u
		}
		if traced < 0 || tr < traced {
			traced = tr
			bestRec = rec.Snapshot()
		}
		ratios = append(ratios, float64(tr)/float64(u))
	}
	return untraced, traced, 100 * (median(ratios) - 1), bestRec, nil
}

// median sorts xs and returns its median.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	m := xs[len(xs)/2]
	if len(xs)%2 == 0 {
		m = (m + xs[len(xs)/2-1]) / 2
	}
	return m
}

// traceRow is one leg of the tracing experiment: wall time plus the
// structures the flight recorder captured and the verifier checked.
func traceRow(name string, wall time.Duration, rec *trace.Recording, rep *trace.VerifyReport) row {
	return row{
		{"name", name, "run", "%s"},
		{"wall_ms", wall.Milliseconds(), "wall", "%dms"},
		{"events", len(rec.Events), "events", "%d"},
		{"dropped", rec.Dropped, "dropped", "%d"},
		{"collective_groups", rep.Checks[trace.RuleCollectives], "groups", "%d"},
		{"shuffle_edges", rep.Checks[trace.RuleShuffleOrder], "shuffle", "%d"},
		{"replay_checks", rep.Checks[trace.RuleReplayOrder], "replays", "%d"},
	}
}

// timedRowBound is the ledger's bound on a timed row (BENCHMARK.json),
// in percent: an experiment that compares two timings of its own reports
// the ratio as a number and fails only above this. Here the median
// paired overhead: the recorder's true cost (~2,300 events of a few ns
// each) sits far below a ~50 ms workload's run-to-run noise, so a
// tighter gate would test the host, not the recorder; the number of
// record is trace.overhead_ratio in the benchmark ledger. In the serve
// experiment, cached against uncached query latency.
const timedRowBound = 25.0

// traceOverhead measures the flight recorder's cost and proves its
// recordings check out: the same workload runs untraced and traced in
// alternating pairs, and a traced 64:1 run that crashes a staging rank
// mid-stream must still produce a recording that passes trace.Verify —
// collective sequences aligned across survivors, shuffle happens-before
// intact, replays ordered before Reduce.
func traceOverhead(rp *Report) error {
	const (
		perRank = 4000 // small chunks: pipeline machinery, not GC churn
		// Many dumps amortize per-dump scheduling jitter and keep the
		// legs near 50 ms, so the paired ratios are about the recorder
		// and not about timer noise.
		dumps = 36
		reps  = 7

		// Crash leg at the paper's 64:1 ratio.
		crashCompute = 64
		crashStaging = 3
		crashPerRank = 20
		crashDumps   = 3
		crashDump    = 1
	)
	rp.seeded("Trace — flight-recorder overhead and verified invariants")

	// One pull in flight per staging rank, here and on the crash leg: the
	// setting the overhead has always been measured at.
	shape := gtcShape(8, 2, dumps)
	shape.PullConcurrency = 1
	untraced, traced, overhead, rec, err := tracePair(rp.seed, reps, shape, perRank)
	if err != nil {
		return err
	}
	rep, err := trace.Verify(rec)
	if err != nil {
		return fmt.Errorf("bench: traced run failed verification: %w", err)
	}

	crashEP := crashCompute + 1
	crashLeg := leg{
		name:    fmt.Sprintf("traced 64:1 + crash:%d@%d", crashEP, crashDump),
		cfg:     gtcShape(crashCompute, crashStaging, crashDumps),
		perRank: crashPerRank,
		plan:    fmt.Sprintf("crash:%d@%d", crashEP, crashDump),
	}
	crashLeg.cfg.PullConcurrency = 1
	crashLeg.cfg.Tracer = trace.New(trace.Config{
		NumCompute: crashCompute, NumStaging: crashStaging, Dumps: crashDumps,
	})
	crashOut, err := crashLeg.run(rp.seed)
	if err != nil {
		return err
	}
	crash := crashLeg.cfg.Tracer.Snapshot()
	crashRep, err := trace.Verify(crash)
	if err != nil {
		return fmt.Errorf("bench: traced 64:1 crash run failed verification: %w", err)
	}

	rp.section("trace", row{{"overhead_pct", overhead, "", ""}}, []row{
		traceRow(fmt.Sprintf("untraced best-of-%d", reps), untraced, &trace.Recording{}, &trace.VerifyReport{}),
		traceRow(fmt.Sprintf("traced best-of-%d (paired)", reps), traced, rec, rep),
		traceRow(crashLeg.name, crashOut.wall, crash, crashRep),
	})
	rp.printf("\ntrace overhead %.2f%% (median of %d paired runs; best traced %v vs best untraced %v; bound %.0f%%)\n",
		overhead, reps, traced, untraced, timedRowBound)

	// Invariants the experiment exists to demonstrate.
	if overhead > timedRowBound {
		return fmt.Errorf("bench: tracing overhead %.2f%% exceeds the %.0f%% timed-row bound", overhead, timedRowBound)
	}
	if rec.Dropped != 0 || crash.Dropped != 0 {
		return fmt.Errorf("bench: recordings dropped events (%d traced, %d crash)", rec.Dropped, crash.Dropped)
	}
	for _, r := range []*trace.VerifyReport{rep, crashRep} {
		if r.Checks[trace.RuleCollectives] == 0 || r.Checks[trace.RuleShuffleOrder] == 0 {
			return fmt.Errorf("bench: a traced run verified no collective groups or shuffle edges: %s", r)
		}
	}
	rp.printf("\nboth recordings dropped nothing, and a crashed 64:1 run still verifies all ordering invariants\n")
	return nil
}
