package predata

import (
	"fmt"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"predata/internal/elastic"
	"predata/internal/faults"
	"predata/internal/flowctl"
	"predata/internal/staging"
	"predata/internal/trace"
	"predata/internal/wal"
)

// Adversarial-wire soak: corrupt, partition and degrade legs under each
// seed, with the flight recorder on. The acceptance invariant is the
// tentpole's: every dump's Reduce output is either bit-identical to the
// fault-free run or explicitly marked Degraded — never silently wrong —
// and the recording passes every trace.Verify rule, including the
// corruption-quarantine and heal-exclusivity checks.

const (
	advCompute = 8
	advStaging = 3
	advDumps   = 4
	advPerRank = 20
)

// advPartition cuts staging index 2 (endpoint 10) away from the other
// two staging ranks over dumps 1-2: it loses quorum (reaches 1 of 3
// live) and is fenced, while endpoints 8 and 9 keep a strict majority.
const advPartition = "partition:10|8,9@1-2"

func advRun(t *testing.T, spec string, seed int64) (*PipelineResult, *trace.Recording, *trace.VerifyReport) {
	t.Helper()
	cfg := PipelineConfig{
		NumCompute: advCompute,
		NumStaging: advStaging,
		Dumps:      advDumps,
		Timeout:    2 * time.Minute,
	}
	if spec != "" {
		plan, err := faults.ParsePlan(spec, seed)
		if err != nil {
			t.Fatal(err)
		}
		cfg.FaultPlan = &plan
	}
	recorder := trace.New(trace.Config{
		NumCompute: cfg.NumCompute,
		NumStaging: cfg.NumStaging,
		Dumps:      cfg.Dumps,
	})
	cfg.Tracer = recorder
	res := runDrained(t, cfg, chaoticCompute(cfg.Dumps, advPerRank), countOps)
	rec := recorder.Snapshot()
	rep, err := trace.Verify(rec)
	if err != nil {
		t.Fatalf("trace.Verify: %v", err)
	}
	return res, rec, rep
}

// advCheckConserved asserts the per-dump data-conservation invariant
// (every writer's values counted exactly once somewhere) and the
// bit-identical-or-Degraded contract against the clean run.
func advCheckConserved(t *testing.T, clean, got *PipelineResult) {
	t.Helper()
	for dump := 0; dump < advDumps; dump++ {
		var total int64
		for rank := 0; rank < advStaging; rank++ {
			if dump >= len(got.StagingResults[rank]) {
				continue // crashed rank
			}
			r := got.StagingResults[rank][dump]
			if n, ok := r.PerOperator["count"]["n"].(int64); ok {
				total += n
			}
			if !r.Degraded && !reflect.DeepEqual(r.PerOperator, clean.StagingResults[rank][dump].PerOperator) {
				t.Errorf("rank %d dump %d: not Degraded yet differs from the fault-free run:\ngot   %v\nclean %v",
					rank, dump, r.PerOperator, clean.StagingResults[rank][dump].PerOperator)
			}
		}
		if total != advCompute*advPerRank {
			t.Errorf("dump %d counted %d values, want %d", dump, total, advCompute*advPerRank)
		}
	}
}

func TestAdversarySoak(t *testing.T) {
	for _, seed := range confSeeds {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			clean, _, _ := advRun(t, "", seed)

			t.Run("corrupt", func(t *testing.T) {
				// Wire corruption heals on re-pull: zero loss, zero
				// degradation, bit-identical output.
				res, rec, _ := advRun(t, "corrupt:*:0.15:pull", seed)
				advCheckConserved(t, clean, res)
				rep := res.Fault
				if rep == nil {
					t.Fatal("no fault report")
				}
				if rep.Corruptions == 0 || rep.CorruptPulls == 0 {
					t.Errorf("p=0.15 corrupt plan fired %d corruptions, %d CRC failures",
						rep.Corruptions, rep.CorruptPulls)
				}
				if rep.CorruptDrops != 0 || rep.Drops != 0 || rep.DegradedDumps != 0 {
					t.Errorf("wire corruption must heal transparently: %+v", rep)
				}
				if !hasPhase(rec, trace.PhaseCorrupt) || !hasPhase(rec, trace.PhaseCorruptDetect) {
					t.Error("corruption fired but left no trace events")
				}
			})

			t.Run("partition", func(t *testing.T) {
				// Staging index 2 is fenced for dumps 1-2 and heals at 3:
				// zero loss, the fence window explicitly Degraded, and the
				// healed rank's final dump identical to the clean run.
				res, rec, vrep := advRun(t, advPartition, seed)
				advCheckConserved(t, clean, res)
				rep := res.Fault
				if rep == nil {
					t.Fatal("no fault report")
				}
				if rep.Heals != 1 {
					t.Errorf("Heals = %d, want 1", rep.Heals)
				}
				if rep.FencedDumps != 2 {
					t.Errorf("FencedDumps = %d, want 2", rep.FencedDumps)
				}
				if rep.Drops != 0 {
					t.Errorf("partition recovery dropped %d chunks; fencing must be lossless", rep.Drops)
				}
				if rep.ReroutedDumps == 0 {
					t.Error("no client writes rerouted around the fenced rank")
				}
				for dump := 1; dump <= 2; dump++ {
					st := res.StagingStats[2][dump]
					if !st.Fenced || !st.Degraded {
						t.Errorf("fenced rank's dump %d stats: %+v, want Fenced+Degraded", dump, st)
					}
				}
				if res.StagingStats[2][3].Fenced {
					t.Error("rank 2 still fenced after its window closed")
				}
				if got := res.StagingResults[2][3]; got.Degraded ||
					!reflect.DeepEqual(got.PerOperator, clean.StagingResults[2][3].PerOperator) {
					t.Errorf("healed rank's dump 3 diverged from the fault-free run: %+v", got.PerOperator)
				}
				if !hasPhase(rec, trace.PhaseProbe) || !hasPhase(rec, trace.PhaseHeal) {
					t.Error("fence window left no probe/heal trace events")
				}
				if vrep.Checks[trace.RuleHealOnce] == 0 {
					t.Errorf("heal recorded but exclusivity unchecked: %+v", vrep)
				}
			})

			t.Run("combined", func(t *testing.T) {
				// Corruption, the fence window and a degrade slowdown all at
				// once: conservation and the Degraded contract still hold.
				res, _, _ := advRun(t,
					"corrupt:*:0.1:pull;"+advPartition+";degrade:3:1-2:4", seed)
				advCheckConserved(t, clean, res)
				rep := res.Fault
				if rep == nil {
					t.Fatal("no fault report")
				}
				if rep.Heals != 1 || rep.Drops != 0 || rep.CorruptDrops != 0 {
					t.Errorf("combined leg lost data: %+v", rep)
				}
			})
		})
	}
}

// TestSourceCorruptionFallsThroughToShed: a send-site corruption
// persists across re-pulls (the source copy is bad), so after the
// attempt budget the chunk is shed like an overloaded one — the dump
// completes without it, explicitly Degraded, and the FaultReport
// accounts the whole trajectory. The trace's corruption-quarantine rule
// proves the damaged bytes never reached Reduce.
func TestSourceCorruptionFallsThroughToShed(t *testing.T) {
	clean, _, _ := advRun(t, "", 1)
	res, rec, vrep := advRun(t, "corrupt:0:1:send", 1)
	rep := res.Fault
	if rep == nil {
		t.Fatal("no fault report")
	}
	if rep.CorruptDrops != advDumps {
		t.Errorf("CorruptDrops = %d, want %d (writer 0's chunk every dump)", rep.CorruptDrops, advDumps)
	}
	if rep.Corruptions == 0 || rep.CorruptPulls == 0 {
		t.Errorf("source corruption fired %d corruptions, %d CRC failures", rep.Corruptions, rep.CorruptPulls)
	}
	if rep.Drops != 0 {
		t.Errorf("crash-style drops %d, want 0 — the endpoint is up, only its bytes are bad", rep.Drops)
	}
	for dump := 0; dump < advDumps; dump++ {
		var total int64
		degraded := false
		for rank := 0; rank < advStaging; rank++ {
			r := res.StagingResults[rank][dump]
			if n, ok := r.PerOperator["count"]["n"].(int64); ok {
				total += n
			}
			degraded = degraded || r.Degraded
		}
		if want := int64((advCompute - 1) * advPerRank); total != want {
			t.Errorf("dump %d counted %d values, want %d (all but the bad writer)", dump, total, want)
		}
		if !degraded {
			t.Errorf("dump %d lost a chunk without being marked Degraded", dump)
		}
	}
	// The rank serving writer 0 still reduced every other writer it owns.
	idx := DefaultRoute(0, advCompute, advStaging)
	if reflect.DeepEqual(res.StagingResults[idx][0].PerOperator, clean.StagingResults[idx][0].PerOperator) {
		t.Error("serving rank's output unchanged despite the shed chunk")
	}
	if !hasPhase(rec, trace.PhaseCorruptDrop) {
		t.Error("no corrupt-drop trace event")
	}
	if vrep.Checks[trace.RuleCorruptQuarantine] == 0 {
		t.Errorf("corrupt drops recorded but quarantine unchecked: %+v", vrep)
	}
}

// TestCorruptLadderSpillAndPass drives the overload ladder — spill
// escalating straight to raw pass-through — under wire corruption. A
// spilled chunk is pulled with only its seal header checked and checked
// once it is replayed, re-pulled from its writer's region on a mismatch; a
// passed one is checked at the pull, so its pass log holds only intact
// bytes. Every CRC failure heals; each dump is the fault-free run's or
// explicitly Degraded; the processed and the passed values together are
// every writer's values, once; and every pass-log record decodes to its
// writer's values.
func TestCorruptLadderSpillAndPass(t *testing.T) {
	const (
		numCompute = 16
		numStaging = 2
		dumps      = 2
		perRank    = 40_000 // ~320 KB a chunk, 8 chunks a rank a dump against a 1 MB budget
	)
	var wrong atomic.Int64
	run := func(spec, spillDir string) *PipelineResult {
		t.Helper()
		cfg := PipelineConfig{
			NumCompute:       numCompute,
			NumStaging:       numStaging,
			Dumps:            dumps,
			PartialCalculate: localMinMax,
			Aggregate:        globalMinMax,
			PullConcurrency:  4,
			BufferMB:         1,
			Overload: flowctl.Policy{
				Patience:        time.Millisecond,
				SpillLimitBytes: 1, // the first spilled byte escalates
				PassLimitBytes:  1, // straight to raw pass-through
				SpillDir:        spillDir,
			},
			Timeout: 2 * time.Minute,
		}
		if spec != "" {
			plan, err := faults.ParsePlan(spec, 1)
			if err != nil {
				t.Fatal(err)
			}
			cfg.FaultPlan = &plan
		}
		return runDrained(t, cfg, chaoticCompute(dumps, perRank), func(int) []staging.Operator {
			return []staging.Operator{&writersHist{
				slowHist: slowHist{minmaxHist: minmaxHist{bins: 16}, perChunk: 5 * time.Millisecond},
				perRank:  perRank, wrong: &wrong,
			}}
		})
	}
	clean := run("", t.TempDir())
	spillDir := t.TempDir()
	res := run("corrupt:*:0.2:pull", spillDir)
	if rep := res.Fault; rep == nil || rep.CorruptPulls == 0 || rep.CorruptDrops != 0 {
		t.Fatalf("want healed CRC failures: %+v", rep)
	}
	ov := res.Overload
	if ov == nil || ov.SpilledChunks == 0 || ov.ReplayedChunks != ov.SpilledChunks || ov.PassedChunks == 0 {
		t.Fatalf("the ladder never spilled, replayed and passed: %+v", ov)
	}

	passed := make([]int64, dumps) // values in the pass logs, by dump
	var records int
	logs, err := filepath.Glob(filepath.Join(spillDir, "predata-pass-*"))
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range logs {
		err := wal.Scan(dir, func(rec wal.Record) error {
			records++
			chunk, err := staging.DecodeChunk(rec.Payload)
			if err != nil {
				return fmt.Errorf("pass-log record of writer %d: %w", rec.Writer, err)
			}
			vals, _ := chunk.Record["values"].([]float64)
			if chunk.WriterRank != rec.Writer || chunk.Timestep != rec.Timestep ||
				!reflect.DeepEqual(vals, chaoticValues(rec.Writer, int(rec.Timestep), perRank)) {
				t.Errorf("pass-log record of writer %d dump %d is not its writer's values", rec.Writer, rec.Timestep)
			}
			passed[rec.Timestep] += int64(len(vals))
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if n := wrong.Load(); n != 0 {
		t.Errorf("%d chunks reached Map with values that are not their writer's", n)
	}
	if records != int(ov.PassedChunks) {
		t.Errorf("%d pass-log records, %d chunks passed", records, ov.PassedChunks)
	}
	for dump := 0; dump < dumps; dump++ {
		processed := int64(0)
		for rank := 0; rank < numStaging; rank++ {
			r := res.StagingResults[rank][dump]
			bins, _ := r.PerOperator["minmaxhist"]["bins"].(map[int]int64)
			for _, n := range bins {
				processed += n
			}
			if !r.Degraded && !reflect.DeepEqual(r.PerOperator, clean.StagingResults[rank][dump].PerOperator) {
				t.Errorf("rank %d dump %d: not Degraded yet differs from the fault-free run", rank, dump)
			}
		}
		if total := processed + passed[dump]; total != numCompute*perRank {
			t.Errorf("dump %d: %d values processed and %d passed, want %d in all", dump, processed, passed[dump], numCompute*perRank)
		}
	}
}

// writersHist is slowHist counting the chunks it maps whose values are
// not the ones chaoticCompute's writer wrote.
type writersHist struct {
	slowHist
	perRank int
	wrong   *atomic.Int64
}

func (h *writersHist) Map(ctx *staging.Context, chunk *staging.Chunk) error {
	vals, _ := chunk.Record["values"].([]float64)
	if !reflect.DeepEqual(vals, chaoticValues(chunk.WriterRank, int(chunk.Timestep), h.perRank)) {
		h.wrong.Add(1)
	}
	return h.slowHist.Map(ctx, chunk)
}

// TestPartitionPlanValidation: partition endpoints must exist in the
// job, and the elastic path rejects partition plans outright.
func TestPartitionPlanValidation(t *testing.T) {
	plan, err := faults.ParsePlan("partition:99|8,9@1-2", 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunPipeline(PipelineConfig{
		NumCompute: advCompute, NumStaging: advStaging, Dumps: 1, FaultPlan: &plan,
	}, chaoticCompute(1, 1), countOps); err == nil {
		t.Error("partition endpoint outside the job accepted")
	}

	inside, err := faults.ParsePlan(advPartition, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := RunElastic(PipelineConfig{
		NumCompute: advCompute, NumStaging: advStaging, Dumps: 1, FaultPlan: &inside,
	}, ElasticConfig{Policy: elastic.Policy{Min: 1, Max: 1}},
		chaoticCompute(1, 1), countOps); err == nil {
		t.Error("elastic run accepted a partition plan")
	}
}
