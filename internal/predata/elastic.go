package predata

import (
	"fmt"
	"slices"
	"sync"

	"predata/internal/elastic"
	"predata/internal/flowctl"
	"predata/internal/mpi"
	"predata/internal/trace"
)

// ElasticConfig layers telemetry-driven autoscaling on a pipeline: the
// world provisions NumStaging staging ranks, but only an elastic subset
// of them serves each dump. At every dump boundary each live staging
// rank feeds the pool-wide merged overload telemetry into an identical
// deterministic autoscaler, so all ranks reach the same grow/shrink/hold
// decision without a membership protocol — the same shared-derivation
// idiom the crash-recovery path uses with the fault plan.
type ElasticConfig struct {
	// Policy bounds and tunes the autoscaler. Min and Max bound the
	// active rank count; Max must not exceed the pipeline's NumStaging
	// (the provisioned reserve pool).
	Policy elastic.Policy
	// Start is the initial active count, clamped into [Min, Max]; zero
	// means Policy.Min.
	Start int
}

// ScaleEpoch records one membership epoch of an elastic run: a stretch
// of dumps served by one fixed active set.
type ScaleEpoch struct {
	Epoch     int64
	FirstDump int64
	// Active is the epoch's active rank count; Direction the change
	// relative to the previous epoch (elastic.Grow, Shrink, or Hold —
	// crash-induced pool changes report the resulting direction too).
	Active    int
	Direction int
}

// ScaleReport summarizes the autoscaler's activity over one elastic run.
type ScaleReport struct {
	// Stats holds the decision counters.
	elastic.Stats
	// Epochs lists every membership epoch in order.
	Epochs []ScaleEpoch
	// RankDumps is the sum of active rank counts over all dumps — the
	// run's rank-hour proxy the bench compares against static
	// provisioning.
	RankDumps int64
	// MinActive/MaxActive bound the active count the run actually used;
	// FinalActive is the target after the last decision.
	MinActive   int
	MaxActive   int
	FinalActive int
}

// RunElastic executes computeFn on NumCompute ranks against an elastic
// staging pool: NumStaging ranks are provisioned, but each dump is
// served by the active subset the autoscaler chose at the previous
// boundary. It is RunPipeline's staged runtime with a membership value
// that also consults the announced active count: grows widen the
// serving communicator onto parked reserve ranks, shrinks retire ranks
// by drain-then-Split (the departing rank finishes its dump — leases
// flushed, spill replayed — and goes silent). Every resize is stamped into the flight recorder as a scale
// epoch that trace.Verify checks for cross-rank agreement, chunk
// conservation, and retired-rank silence.
func RunElastic(cfg PipelineConfig, ecfg ElasticConfig, computeFn ComputeFunc, opsFor OperatorFactory) (*PipelineResult, *ScaleReport, error) {
	start := ecfg.Start
	if start == 0 {
		start = ecfg.Policy.Min
	}
	start = min(max(start, ecfg.Policy.Min), ecfg.Policy.Max)
	el := &elasticRun{cfg: ecfg, start: start, sched: elastic.NewSchedule(start)}
	res, err := runStaged(cfg, el, computeFn, opsFor)
	if err != nil {
		return nil, nil, err
	}
	return res, &el.report, nil
}

// elasticRun is the autoscaling side of a staged run: the announced
// schedule its membership value consults, and the work only an elastic
// run does at a boundary — the scale-epoch stamp and the telemetry
// exchange that feeds the next decision.
type elasticRun struct {
	cfg   ElasticConfig
	start int // initial active count, clamped into [Min, Max]
	sched *elastic.Schedule

	mu     sync.Mutex // guards report
	report ScaleReport
}

// installEpoch is the elastic part of entering a membership epoch: the
// designated survivor records the epoch, and every live rank stamps the
// epoch it is entering — first dump, active count, and the active-index
// bitmask that trace.Verify checks for cross-rank agreement and
// retired-rank silence.
func (el *elasticRun) installEpoch(r *stagingRank, ts int64, next epochView) {
	if r.idx == next.active[0] {
		ep := ScaleEpoch{Epoch: r.epoch, FirstDump: ts, Active: len(next.active), Direction: elastic.Hold}
		switch prev := r.view.active; {
		case prev == nil:
			// initial configuration, not a resize
		case len(next.active) > len(prev):
			ep.Direction = elastic.Grow
		case len(next.active) < len(prev):
			ep.Direction = elastic.Shrink
		}
		el.mu.Lock()
		el.report.Epochs = append(el.report.Epochs, ep)
		el.mu.Unlock()
	}
	var mask int64
	for _, idx := range next.active {
		mask |= 1 << idx
	}
	r.cfg.Tracer.Instant(trace.PhaseScaleEpoch, r.rank, len(next.active), ts, r.epoch, mask)
}

// observe is the boundary telemetry exchange after dump ts, over the
// full live pool with the ranks sitting out included: every rank feeds
// the identical merged view into its own scaler, so all ranks reach the
// same decision independently and announce it for the next dump. ov is
// this rank's overload stats for the dump (nil if it sat out); lost is
// the number of ranks the pool lost entering it.
func (el *elasticRun) observe(r *stagingRank, ts int64, ov *flowctl.OverloadStats, lost int) error {
	// Only the pool's lowest rank reports the boundary's crash losses,
	// so the merge counts them once.
	if r.pool.Rank() != 0 {
		lost = 0
	}
	rows, err := mpi.Allgather(r.pool, []elastic.Telemetry{elastic.FromOverload(ts, ov, lost)})
	if err != nil {
		return fmt.Errorf("telemetry exchange: %w", err)
	}
	dec := r.scaler.Observe(elastic.Merge(slices.Concat(rows...)))
	r.cfg.Tracer.Instant(trace.PhaseScale, r.rank, dec.Direction, ts, r.epoch, int64(dec.Target))
	if err := el.sched.Announce(ts+1, dec.Target); err != nil {
		return fmt.Errorf("announcing dump %d: %w", ts+1, err)
	}
	if active := r.view.active; r.idx == active[0] {
		n := len(active)
		el.mu.Lock()
		rep := &el.report
		rep.RankDumps += int64(n)
		if rep.MinActive == 0 || n < rep.MinActive {
			rep.MinActive = n
		}
		rep.MaxActive = max(rep.MaxActive, n)
		rep.Stats = r.scaler.Stats()
		rep.FinalActive = r.scaler.Current()
		el.mu.Unlock()
	}
	return nil
}
