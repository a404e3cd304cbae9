package predata

import (
	"fmt"
	"reflect"
	"sort"
	"testing"
	"time"

	"predata/internal/faults"
	"predata/internal/flowctl"
	"predata/internal/staging"
	"predata/internal/trace"
)

// Trace-driven conformance tests: run the paper's 64:1 configuration
// with the flight recorder on and assert the runtime ordering
// invariants from the recording alone — collective-sequence equality,
// shuffle happens-before, spill-replay-before-Reduce, and the lease
// peak bound. These are properties no end-of-run aggregate can check.

const confCompute = 64 // 64:1 compute:staging, the paper's target ratio

var confSeeds = []int64{1, 7, 42}

// runTraced executes one traced pipeline run and returns the verified
// recording plus its verification report. Any Verify failure fails t.
func runTraced(t *testing.T, cfg PipelineConfig, perRank int, opsFor OperatorFactory) (*trace.Recording, *trace.VerifyReport) {
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
	if _, err := RunPipeline(cfg, chaoticCompute(cfg.Dumps, perRank), opsFor); err != nil {
		t.Fatal(err)
	}
	rec := recorder.Snapshot()
	rep, err := trace.Verify(rec)
	if err != nil {
		t.Fatalf("trace.Verify: %v", err)
	}
	return rec, rep
}

func countOps(dump int) []staging.Operator {
	return []staging.Operator{&countOp{}}
}

// TestTraceConformance64to1 covers the fault-free and transient-fault
// legs under each seed: every recording must satisfy all invariants,
// and must actually contain the structures the invariants quantify
// over (collectives, shuffle→reduce edges) — an empty check proves
// nothing.
func TestTraceConformance64to1(t *testing.T) {
	for _, seed := range confSeeds {
		for _, leg := range []string{"clean", "transient"} {
			t.Run(fmt.Sprintf("%s/seed%d", leg, seed), func(t *testing.T) {
				cfg := PipelineConfig{
					NumCompute: confCompute,
					NumStaging: 2,
					Dumps:      2,
				}
				if leg == "transient" {
					plan, err := faults.ParsePlan("transient:*:0.05", seed)
					if err != nil {
						t.Fatal(err)
					}
					cfg.FaultPlan = &plan
				}
				rec, rep := runTraced(t, cfg, 50, countOps)
				if rep.Checks[trace.RuleCollectives] == 0 {
					t.Errorf("no collectives verified: %+v", rep)
				}
				if rep.Checks[trace.RuleShuffleOrder] == 0 {
					t.Errorf("no shuffle happens-before edges verified: %+v", rep)
				}
				if rec.Dropped != 0 {
					t.Errorf("recording dropped %d events", rec.Dropped)
				}
				// Every dump must appear in the engine's trace.
				dumps := map[int64]bool{}
				for i := range rec.Events {
					if rec.Events[i].Phase == trace.PhaseMap {
						dumps[rec.Events[i].Dump] = true
					}
				}
				if len(dumps) != cfg.Dumps {
					t.Errorf("Map spans cover %d dumps, want %d", len(dumps), cfg.Dumps)
				}
				if leg == "transient" && !hasPhase(rec, trace.PhaseFault) {
					t.Error("transient plan fired no recorded faults")
				}
			})
		}
	}
}

// TestTraceConformanceCrashRecovery runs a crash:EP@DUMP plan under
// each seed and asserts — beyond trace.Verify — that the surviving
// staging ranks consumed identical collective sequences after the
// recovery reconfiguration, and that the crashed rank stopped
// participating.
func TestTraceConformanceCrashRecovery(t *testing.T) {
	const (
		numStaging = 3
		crashIdx   = 1
		crashDump  = 1
		dumps      = 3
	)
	crashEP := confCompute + crashIdx
	for _, seed := range confSeeds {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			plan, err := faults.ParsePlan(fmt.Sprintf("crash:%d@%d", crashEP, crashDump), seed)
			if err != nil {
				t.Fatal(err)
			}
			rec, rep := runTraced(t, PipelineConfig{
				NumCompute: confCompute,
				NumStaging: numStaging,
				Dumps:      dumps,
				FaultPlan:  &plan,
			}, 20, countOps)
			if rep.Checks[trace.RuleShuffleOrder] == 0 || rep.Checks[trace.RuleCollectives] == 0 {
				t.Errorf("crash run verified nothing: %+v", rep)
			}
			if !hasPhase(rec, trace.PhaseCrashExit) {
				t.Error("no crash-exit event recorded")
			}
			if !hasPhase(rec, trace.PhaseRecovery) {
				t.Error("no recovery span recorded")
			}
			if !hasPhase(rec, trace.PhaseEndpointDown) {
				t.Error("no endpoint-down event recorded")
			}

			// Post-recovery (dump >= crashDump) collective sequences must be
			// identical on every survivor, and absent on the crashed rank.
			seqs := map[int32][][4]int64{}
			for i := range rec.Events {
				e := &rec.Events[i]
				if e.Phase != trace.PhaseCollective || e.Dump < crashDump {
					continue
				}
				if int(e.Rank) < confCompute {
					continue // compute-side communicator
				}
				seqs[e.Rank] = append(seqs[e.Rank], [4]int64{e.Dump, e.Arg, e.Seq, int64(e.Endpoint)})
			}
			if got := len(seqs[int32(crashEP)]); got != 0 {
				t.Errorf("crashed rank %d recorded %d post-recovery collectives", crashEP, got)
			}
			survivors := []int32{int32(confCompute + 0), int32(confCompute + 2)}
			for _, s := range survivors {
				calls := seqs[s]
				if len(calls) == 0 {
					t.Fatalf("survivor %d recorded no post-recovery collectives", s)
				}
				sort.Slice(calls, func(i, j int) bool {
					for k := 0; k < 4; k++ {
						if calls[i][k] != calls[j][k] {
							return calls[i][k] < calls[j][k]
						}
					}
					return false
				})
				seqs[s] = calls
			}
			if !reflect.DeepEqual(seqs[survivors[0]], seqs[survivors[1]]) {
				t.Errorf("survivors diverged after recovery:\nrank %d: %v\nrank %d: %v",
					survivors[0], seqs[survivors[0]], survivors[1], seqs[survivors[1]])
			}
		})
	}
}

// TestTraceConformanceOverload runs the budgeted configuration hot
// enough to spill, so the spill-replay-before-Reduce and lease-peak
// invariants quantify over real events.
func TestTraceConformanceOverload(t *testing.T) {
	for _, seed := range confSeeds {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rec, rep := runTraced(t, PipelineConfig{
				NumCompute:       confCompute,
				NumStaging:       2,
				Dumps:            2,
				PartialCalculate: localMinMax,
				Aggregate:        globalMinMax,
				PullConcurrency:  4,
				BufferMB:         1,
				Overload: flowctl.Policy{
					Patience: time.Millisecond,
					SpillDir: t.TempDir(),
				},
			}, 20_000, func(dump int) []staging.Operator {
				return []staging.Operator{&slowHist{
					minmaxHist: minmaxHist{bins: 16},
					perChunk:   2 * time.Millisecond,
				}}
			})
			_ = seed // legs differ by shuffled goroutine interleaving, not data
			if rep.Checks[trace.RuleLeasePeak] == 0 {
				t.Errorf("no budgeted ranks verified: %+v", rep)
			}
			if !hasPhase(rec, trace.PhaseLease) || !hasPhase(rec, trace.PhaseBudgetCap) {
				t.Error("budgeted run recorded no lease movements")
			}
			if !hasPhase(rec, trace.PhaseThrottle) {
				t.Error("overloaded run recorded no throttle spans")
			}
			if hasPhase(rec, trace.PhaseSpill) != hasPhase(rec, trace.PhaseReplay) {
				t.Error("spill events without matching replay events (or vice versa)")
			}
			if rep.Checks[trace.RuleReplayOrder] == 0 && hasPhase(rec, trace.PhaseSpill) {
				t.Errorf("spills recorded but replay order unchecked: %+v", rep)
			}
		})
	}
}

func hasPhase(rec *trace.Recording, ph trace.Phase) bool {
	for i := range rec.Events {
		if rec.Events[i].Phase == ph {
			return true
		}
	}
	return false
}
