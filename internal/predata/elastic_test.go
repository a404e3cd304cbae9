package predata

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"predata/internal/apps/xray"
	"predata/internal/elastic"
	"predata/internal/fabric"
	"predata/internal/faults"
	"predata/internal/ffs"
	"predata/internal/flowctl"
	"predata/internal/mpi"
	"predata/internal/staging"
	"predata/internal/trace"
)

// TestReconfigureHardened covers the membership-epoch contract on its
// own: epochs only move forward, redelivery of the installed epoch is
// an idempotent no-op, and a different communicator offered for the
// installed epoch means two membership derivations diverged.
func TestReconfigureHardened(t *testing.T) {
	fab, err := fabric.New(fabric.DefaultConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	defer fab.Shutdown()
	ep, err := fab.Endpoint(0)
	if err != nil {
		t.Fatal(err)
	}
	err = mpi.Run(1, func(world *mpi.Comm) error {
		s, err := NewServer(ServerConfig{
			StagingIndex: 0,
			Comm:         world,
			Endpoint:     ep,
			NumCompute:   1,
		})
		if err != nil {
			return err
		}
		if got := s.Epoch(); got != -1 {
			return fmt.Errorf("fresh server epoch %d, want -1", got)
		}
		sub1, err := world.Split(0, 0)
		if err != nil {
			return err
		}
		sub2, err := world.Split(0, 0)
		if err != nil {
			return err
		}

		if err := s.Reconfigure(nil, 0, 0); err == nil ||
			!strings.Contains(err.Error(), "nil communicator") {
			return fmt.Errorf("nil comm: got %v", err)
		}
		if err := s.Reconfigure(sub1, 0, 0); err != nil {
			return fmt.Errorf("installing epoch 0: %v", err)
		}
		if got := s.Epoch(); got != 0 {
			return fmt.Errorf("epoch after install %d, want 0", got)
		}
		// Idempotent redelivery: same epoch, same communicator.
		if err := s.Reconfigure(sub1, 0, time.Second); err != nil {
			return fmt.Errorf("idempotent redelivery rejected: %v", err)
		}
		// Conflicting communicator for the installed epoch.
		if err := s.Reconfigure(sub2, 0, 0); err == nil ||
			!strings.Contains(err.Error(), "diverged") {
			return fmt.Errorf("conflicting comm for epoch 0: got %v", err)
		}
		// Stale delivery: the epoch moved backwards.
		if err := s.Reconfigure(sub2, -1, 0); err == nil ||
			!strings.Contains(err.Error(), "moved backwards") {
			return fmt.Errorf("backwards epoch: got %v", err)
		}
		// And a clean forward move still works after the rejections.
		if err := s.Reconfigure(sub2, 3, 0); err != nil {
			return fmt.Errorf("installing epoch 3: %v", err)
		}
		if got := s.Epoch(); got != 3 {
			return fmt.Errorf("epoch after forward move %d, want 3", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// runElasticTraced executes one traced elastic run and fails t on any
// pipeline error or trace.Verify violation.
func runElasticTraced(t *testing.T, cfg PipelineConfig, ecfg ElasticConfig,
	computeFn ComputeFunc, opsFor OperatorFactory) (*PipelineResult, *ScaleReport, *trace.Recording, *trace.VerifyReport) {
	t.Helper()
	recorder := trace.New(trace.Config{
		NumCompute: cfg.NumCompute,
		NumStaging: cfg.NumStaging,
		Dumps:      cfg.Dumps,
	})
	cfg.Tracer = recorder
	if cfg.Timeout == 0 {
		cfg.Timeout = 2 * time.Minute
	}
	res, scale, err := RunElastic(cfg, ecfg, computeFn, opsFor)
	if err != nil {
		t.Fatal(err)
	}
	rec := recorder.Snapshot()
	rep, err := trace.Verify(rec)
	if err != nil {
		t.Fatalf("trace.Verify: %v", err)
	}
	return res, scale, rec, rep
}

// xrayCompute drives the pipeline with the detector-frame proxy: every
// rank follows the same explicit burst schedule, so dump sizes jump by
// the chosen factors in lockstep.
func xrayCompute(dumps, baseFrames int, factors []float64, seed int64) ComputeFunc {
	return func(comm *mpi.Comm, client *Client) error {
		det, err := xray.New(xray.Config{
			Rank:       comm.Rank(),
			NumRanks:   comm.Size(),
			BaseFrames: baseFrames,
			Steps:      dumps,
			Seed:       seed,
			Schedule:   factors,
		})
		if err != nil {
			return err
		}
		schema := xray.Schema()
		for step := 0; step < dumps; step++ {
			if _, err := client.Write(schema, ffs.Record{"frames": det.Frames(int64(step))}, int64(step)); err != nil {
				return err
			}
		}
		return nil
	}
}

// xrayTotalFrames returns one rank's frame count over an explicit
// schedule — the conservation figure, identical on every rank.
func xrayTotalFrames(baseFrames int, factors []float64) int64 {
	var n int64
	for _, f := range factors {
		n += int64(math.Round(float64(baseFrames) * f))
	}
	return n
}

// frameCost is the modeled analysis cost of one detector frame in
// frameCountOp's Map. A burst chunk (16,000 frames) takes 4 ms — four
// times the soak's admission patience — so a rank holding two of them
// overruns its budget whatever the speed of the data path in front of the
// operator, and a quiet chunk (200 frames) costs next to nothing.
const frameCost = 250 * time.Nanosecond

// frameCountOp counts detector frames across chunks, shuffling the
// per-chunk counts to one reducer so conservation sums are exact. Its Map
// is a slow consumer (frameCost per frame, or perChunk per chunk when
// set): overload in these tests comes from the operator falling behind
// the burst, as it does in production.
type frameCountOp struct {
	perChunk time.Duration

	mu sync.Mutex
	n  int64
}

func (c *frameCountOp) Name() string { return "frames" }
func (c *frameCountOp) Initialize(ctx *staging.Context, agg map[string]any) error {
	return nil
}
func (c *frameCountOp) Map(ctx *staging.Context, chunk *staging.Chunk) error {
	if arr, ok := chunk.Record["frames"].(*ffs.Array); ok && len(arr.Dims) == 2 {
		cost := c.perChunk
		if cost == 0 {
			cost = time.Duration(arr.Dims[0]) * frameCost
		}
		time.Sleep(cost)
		staging.Emit(ctx, 0, int64(arr.Dims[0]))
	}
	return nil
}
func (c *frameCountOp) Reduce(ctx *staging.Context, tag int, values []int64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, v := range values {
		c.n += v
	}
	return nil
}
func (c *frameCountOp) Finalize(ctx *staging.Context) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	ctx.SetResult("n", c.n)
	return nil
}

func frameCountOps(dump int) []staging.Operator {
	return []staging.Operator{&frameCountOp{}}
}

// sumFrameCounts folds every staging rank's per-dump "frames" results —
// each emitted chunk count lands in exactly one reducer, so the grand
// total equals the frames written iff nothing was lost or double-reduced.
func sumFrameCounts(res *PipelineResult) int64 {
	var total int64
	for _, dumps := range res.StagingResults {
		for _, r := range dumps {
			if r == nil {
				continue
			}
			if n, ok := r.PerOperator["frames"]["n"].(int64); ok {
				total += n
			}
		}
	}
	return total
}

// burstFactors is the canonical soak schedule: one quiet warmup dump, a
// sustained 80x burst, then a quiet tail — enough pressure to grow the
// pool and enough idle time to shrink it back.
var burstFactors = []float64{1, 80, 80, 80, 80, 80, 1, 1, 1, 1}

const (
	burstBaseFrames = 200 // quiet dump: 200 frames x 5 attrs x 8 B = 8 KB/rank
	burstSeed       = 7
)

// elasticSoakConfig is the shared pipeline shape of the soak legs: a
// 1 MiB budget that a burst dump overruns by ~5x on a single active
// rank, with short patience so overload escalates to spilling fast, and
// spill/pass limits high enough that no chunk is shed or passed raw —
// every frame flows through the operators and conservation is exact.
func elasticSoakConfig(t *testing.T, numStaging int) PipelineConfig {
	t.Helper()
	return PipelineConfig{
		NumCompute:      8,
		NumStaging:      numStaging,
		Dumps:           len(burstFactors),
		PullConcurrency: 4,
		BufferMB:        1,
		Overload: flowctl.Policy{
			Patience:        time.Millisecond,
			SpillDir:        t.TempDir(),
			SpillLimitBytes: 1 << 40,
			PassLimitBytes:  1 << 40,
		},
	}
}

// TestElasticGrowsUnderBurstThenShrinks: the detector burst trips the
// overload latch for consecutive dumps, the pool grows via the rehash
// path onto parked reserve ranks, and once the burst collapses the idle
// pool drains back down — all stamped into the flight recorder and
// verified.
func TestElasticGrowsUnderBurstThenShrinks(t *testing.T) {
	cfg := elasticSoakConfig(t, 3)
	res, scale, rec, rep := runElasticTraced(t, cfg, ElasticConfig{
		Policy: elastic.Policy{Min: 1, Max: 3, GrowK: 2, ShrinkJ: 2, Cooldown: 1},
	}, xrayCompute(cfg.Dumps, burstBaseFrames, burstFactors, burstSeed), frameCountOps)

	if scale.Grows < 1 {
		t.Errorf("burst run grew %d times, want >= 1: %+v", scale.Grows, scale)
	}
	if scale.Shrinks < 1 {
		t.Errorf("idle tail shrank %d times, want >= 1: %+v", scale.Shrinks, scale)
	}
	if scale.MinActive != 1 || scale.MaxActive < 2 {
		t.Errorf("active range [%d, %d], want [1, >=2]", scale.MinActive, scale.MaxActive)
	}
	if len(scale.Epochs) < 3 { // initial + at least one grow + one shrink
		t.Errorf("%d membership epochs, want >= 3: %+v", len(scale.Epochs), scale.Epochs)
	}
	if scale.RankDumps <= int64(cfg.Dumps) {
		t.Errorf("RankDumps %d, want > %d (pool above Min for part of the run)",
			scale.RankDumps, cfg.Dumps)
	}
	// Conservation: every frame written reduces exactly once.
	want := int64(cfg.NumCompute) * xrayTotalFrames(burstBaseFrames, burstFactors)
	if got := sumFrameCounts(res); got != want {
		t.Errorf("counted %d frames across the run, want %d", got, want)
	}

	// The recording must carry the elastic structures the verifier checks.
	if rep.Checks[trace.RuleScaleEpochs] < 2 {
		t.Errorf("verifier cross-checked %d scale epochs, want >= 2", rep.Checks[trace.RuleScaleEpochs])
	}
	if rep.Checks[trace.RuleChunkConservation] != cfg.Dumps {
		t.Errorf("chunk conservation checked %d dumps, want %d", rep.Checks[trace.RuleChunkConservation], cfg.Dumps)
	}
	for _, ph := range []trace.Phase{trace.PhaseScale, trace.PhaseScaleEpoch,
		trace.PhaseDrain, trace.PhaseSpill} {
		if !hasPhase(rec, ph) {
			t.Errorf("recording has no %v events", ph)
		}
	}
	if rec.Dropped != 0 {
		t.Errorf("recording dropped %d events", rec.Dropped)
	}
}

// TestElasticBeatsStaticProvisioning runs the burst schedule on three
// pools: static-small (one rank, sized for the quiet dumps), static-large
// (three, sized for the burst) and elastic 1:3. The consumer costs a
// fixed mapCost per chunk on one worker, and the 1 MiB budget holds one
// burst chunk, so with every writer's pull in flight a rank's last burst
// admission waits (writers-1) x mapCost: 70 ms for all eight writers,
// 20-30 ms for three or four. The patience sits between with a margin
// on each side wider than scheduling noise under a loaded -race run, so
// static-small must spill and a grown pool keeps up, whatever the speed
// of the data path. The elastic pool must overflow less than
// static-small and spend fewer rank-dumps than static-large, and no leg
// may lose a frame.
func TestElasticBeatsStaticProvisioning(t *testing.T) {
	const (
		pool     = 3
		mapCost  = 10 * time.Millisecond
		patience = 45 * time.Millisecond
	)
	opsFor := func(int) []staging.Operator {
		return []staging.Operator{&frameCountOp{perChunk: mapCost}}
	}
	type leg struct {
		overflow int64 // bytes spilled or passed raw
		scale    *ScaleReport
	}
	provision := func(name string, ranks int, policy *elastic.Policy) leg {
		cfg := elasticSoakConfig(t, ranks)
		cfg.Engine = staging.Config{Workers: 1}
		cfg.PullConcurrency = cfg.NumCompute
		cfg.Overload.Patience = patience
		cfg.Timeout = 2 * time.Minute
		compute := xrayCompute(cfg.Dumps, burstBaseFrames, burstFactors, burstSeed)
		var (
			res *PipelineResult
			err error
			// A static pool serves every dump with every rank.
			scale = &ScaleReport{RankDumps: int64(ranks * cfg.Dumps)}
		)
		if policy == nil {
			res, err = RunPipeline(cfg, compute, opsFor)
		} else {
			res, scale, err = RunElastic(cfg, ElasticConfig{Policy: *policy}, compute, opsFor)
		}
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := int64(cfg.NumCompute) * xrayTotalFrames(burstBaseFrames, burstFactors)
		if got := sumFrameCounts(res); got != want {
			t.Errorf("%s counted %d frames, want %d", name, got, want)
		}
		return leg{overflow: res.Overload.SpilledBytes + res.Overload.PassedBytes, scale: scale}
	}
	small := provision("static-small", 1, nil)
	large := provision("static-large", pool, nil)
	el := provision("elastic 1:3", pool, &elastic.Policy{Min: 1, Max: pool, GrowK: 1, ShrinkJ: 2, Cooldown: 1})

	// The triggers fired: the one-rank pool overflowed and the autoscaler
	// grew in response. Without them the comparisons below are vacuous.
	if small.overflow == 0 {
		t.Fatal("static-small never spilled: the burst put no pressure on one rank")
	}
	if el.scale.Grows < 1 {
		t.Fatalf("elastic pool never grew: %+v", el.scale)
	}
	if el.overflow >= small.overflow {
		t.Errorf("elastic overflow %d B not below static-small %d B", el.overflow, small.overflow)
	}
	if el.scale.RankDumps >= large.scale.RankDumps {
		t.Errorf("elastic rank-dumps %d not below static-large %d", el.scale.RankDumps, large.scale.RankDumps)
	}
}

// TestElasticShrinksWhenIdle: a pool started at Max with a light steady
// workload retires ranks one cooldown at a time — drain-then-Split, with
// the retired ranks silent afterwards (trace.Verify checks the silence).
func TestElasticShrinksWhenIdle(t *testing.T) {
	const perRank = 20
	cfg := PipelineConfig{
		NumCompute: 8,
		NumStaging: 3,
		Dumps:      8,
		BufferMB:   4,
		Overload: flowctl.Policy{
			SpillDir: t.TempDir(),
		},
	}
	recorder := trace.New(trace.Config{
		NumCompute: cfg.NumCompute,
		NumStaging: cfg.NumStaging,
		Dumps:      cfg.Dumps,
	})
	cfg.Tracer = recorder
	cfg.Timeout = 2 * time.Minute
	res, scale, err := RunElastic(cfg, ElasticConfig{
		Policy: elastic.Policy{Min: 1, Max: 3, GrowK: 2, ShrinkJ: 2, Cooldown: 1},
		Start:  3,
	}, chaoticCompute(cfg.Dumps, perRank), countOps)
	if err != nil {
		t.Fatal(err)
	}
	rec := recorder.Snapshot()
	rep, err := trace.Verify(rec)
	if err != nil {
		t.Fatalf("trace.Verify: %v", err)
	}

	if scale.Shrinks < 2 {
		t.Errorf("idle pool shrank %d times, want >= 2: %+v", scale.Shrinks, scale)
	}
	if scale.FinalActive != 1 {
		t.Errorf("final active count %d, want 1", scale.FinalActive)
	}
	if scale.MaxActive != 3 || scale.MinActive != 1 {
		t.Errorf("active range [%d, %d], want [1, 3]", scale.MinActive, scale.MaxActive)
	}
	if scale.Grows != 0 {
		t.Errorf("idle pool grew %d times", scale.Grows)
	}
	if !hasPhase(rec, trace.PhaseDrain) {
		t.Error("no drain span recorded for any retiring rank")
	}
	if rep.Checks[trace.RuleScaleEpochs] < 2 {
		t.Errorf("verifier cross-checked %d scale epochs, want >= 2", rep.Checks[trace.RuleScaleEpochs])
	}

	// Conservation: the steady workload's values all reduce exactly once.
	var total int64
	for _, dumps := range res.StagingResults {
		for _, r := range dumps {
			if r == nil {
				continue
			}
			if n, ok := r.PerOperator["count"]["n"].(int64); ok {
				total += n
			}
		}
	}
	if want := int64(cfg.NumCompute) * int64(cfg.Dumps) * perRank; total != want {
		t.Errorf("counted %d values, want %d", total, want)
	}
}

// TestElasticCrashDuringGrow is the elasticity soak's hardest leg: the
// burst grows the pool, and the freshly joined rank crashes one dump
// later, forcing a fault-epoch on top of the elastic epoch. Under every
// seed the run must finish with zero lost or double-reduced frames and
// a recording that passes every resize invariant.
func TestElasticCrashDuringGrow(t *testing.T) {
	const (
		crashIdx  = 1 // joins at the first grow (set [0 1]), dies a dump later
		crashDump = 4
	)
	for _, seed := range confSeeds {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			cfg := elasticSoakConfig(t, 4)
			plan, err := faults.ParsePlan(
				fmt.Sprintf("crash:%d@%d", cfg.NumCompute+crashIdx, crashDump), seed)
			if err != nil {
				t.Fatal(err)
			}
			cfg.FaultPlan = &plan
			res, scale, rec, rep := runElasticTraced(t, cfg, ElasticConfig{
				Policy: elastic.Policy{Min: 1, Max: 4, GrowK: 2, ShrinkJ: 4, Cooldown: 1},
			}, xrayCompute(cfg.Dumps, burstBaseFrames, burstFactors, seed), frameCountOps)

			if scale.Grows < 1 {
				t.Fatalf("crash leg never grew: %+v", scale)
			}
			if !hasPhase(rec, trace.PhaseCrashExit) {
				t.Error("no crash-exit event recorded")
			}
			if !hasPhase(rec, trace.PhaseScaleEpoch) {
				t.Error("no scale-epoch events recorded")
			}

			// Zero lost, zero double-reduced: exact frame conservation even
			// with the crash landing inside the grow.
			want := int64(cfg.NumCompute) * xrayTotalFrames(burstBaseFrames, burstFactors)
			if got := sumFrameCounts(res); got != want {
				t.Errorf("counted %d frames, want %d", got, want)
			}
			if rep.Checks[trace.RuleScaleEpochs] < 2 {
				t.Errorf("verifier cross-checked %d scale epochs, want >= 2", rep.Checks[trace.RuleScaleEpochs])
			}
			if rep.Checks[trace.RuleChunkConservation] != cfg.Dumps {
				t.Errorf("chunk conservation checked %d dumps, want %d", rep.Checks[trace.RuleChunkConservation], cfg.Dumps)
			}
			if res.Fault == nil || len(res.Fault.CrashedStaging) != 1 {
				t.Errorf("fault report %+v, want one crashed staging rank", res.Fault)
			}
		})
	}
}
