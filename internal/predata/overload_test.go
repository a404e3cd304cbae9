package predata

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"predata/internal/fabric"
	"predata/internal/faults"
	"predata/internal/ffs"
	"predata/internal/flowctl"
	"predata/internal/staging"
)

// TestRetryPolicyBackoffSeeded drives the backoff schedule from a seeded
// source: the jitter stays inside [0.5, 1.5) of the deterministic delay,
// the delay doubles from BaseDelay, and the cap is respected at every
// retry count.
func TestRetryPolicyBackoffSeeded(t *testing.T) {
	p := RetryPolicy{
		MaxAttempts: 8,
		BaseDelay:   100 * time.Microsecond,
		MaxDelay:    2 * time.Millisecond,
	}.withDefaults()
	rng := rand.New(rand.NewSource(42))
	for retry := 0; retry < 32; retry++ {
		// The un-jittered delay: doubling, capped.
		base := p.BaseDelay
		for i := 0; i < retry && base < p.MaxDelay; i++ {
			base *= 2
		}
		if base > p.MaxDelay {
			base = p.MaxDelay
		}
		for trial := 0; trial < 100; trial++ {
			u := rng.Float64()
			d := p.backoffAt(retry, u)
			if want := time.Duration(float64(base) * (0.5 + u)); d != want {
				t.Fatalf("backoffAt(%d, %g) = %v, want %v", retry, u, d, want)
			}
			if d < base/2 || d >= base*3/2 {
				t.Fatalf("backoffAt(%d, %g) = %v outside [%v, %v)", retry, u, d, base/2, base*3/2)
			}
			if d > p.MaxDelay*3/2 {
				t.Fatalf("backoffAt(%d) = %v exceeds jittered cap %v", retry, d, p.MaxDelay*3/2)
			}
		}
	}
	// Once the cap is reached, larger retry counts change nothing.
	if a, b := p.backoffAt(10, 0.25), p.backoffAt(30, 0.25); a != b {
		t.Fatalf("capped backoff not stable: retry 10 → %v, retry 30 → %v", a, b)
	}
}

// TestRetryPolicyAttemptBudget: under a p=1 transient plan every attempt
// fails, so an operation consumes exactly its attempt budget and then
// surfaces the transient error.
func TestRetryPolicyAttemptBudget(t *testing.T) {
	plan, err := faults.ParsePlan("transient:*:1", 3)
	if err != nil {
		t.Fatal(err)
	}
	inj, err := faults.NewInjector(plan)
	if err != nil {
		t.Fatal(err)
	}
	cfg := fabric.DefaultConfig(2)
	cfg.Faults = inj
	fab, err := fabric.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer fab.Shutdown()
	ep, _ := fab.Endpoint(0)
	client, err := NewClient(ClientConfig{
		WriterRank:  0,
		NumCompute:  1,
		NumStaging:  1,
		Endpoint:    ep,
		StagingBase: 1,
		Retry: RetryPolicy{
			MaxAttempts: 4,
			BaseDelay:   time.Microsecond,
			MaxDelay:    10 * time.Microsecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = client.Write(testSchema, ffs.Record{"values": []float64{1}}, 0)
	if !errors.Is(err, faults.ErrTransient) {
		t.Fatalf("Write under p=1 transients err = %v, want ErrTransient", err)
	}
	// MaxAttempts attempts = MaxAttempts-1 retries.
	if client.Retries != 3 {
		t.Fatalf("client retries = %d, want 3 (attempt budget 4)", client.Retries)
	}
}

// slowHist is minmaxHist with a fixed per-chunk Map cost, creating the
// producer:consumer byte-rate imbalance the overload soak needs.
type slowHist struct {
	minmaxHist
	perChunk time.Duration
}

func (h *slowHist) Map(ctx *staging.Context, chunk *staging.Chunk) error {
	time.Sleep(h.perChunk)
	return h.minmaxHist.Map(ctx, chunk)
}

// The overload soak's shape: the budget is smaller than one dump's
// share, and the consumer drains far slower than pulls arrive.
const (
	soakStaging = 2
	soakDumps   = 2
)

// soakRun runs the overload soak's pipeline — 8 writers of ~320 KB
// chunks (4 per rank per dump, ≈ 1.3 MB against a 1 MB budget) and a
// histogram costing 5 ms a chunk — with a bufMB budget (0: none), 2 ms
// of patience and spillDir as the policy's SpillDir.
func soakRun(t *testing.T, bufMB int, plan *faults.Plan, spillDir string) *PipelineResult {
	t.Helper()
	return runDrained(t, PipelineConfig{
		NumCompute:       8,
		NumStaging:       soakStaging,
		Dumps:            soakDumps,
		PartialCalculate: localMinMax,
		Aggregate:        globalMinMax,
		PullConcurrency:  4,
		BufferMB:         bufMB,
		Overload: flowctl.Policy{
			Patience: 2 * time.Millisecond,
			SpillDir: spillDir,
		},
		FaultPlan: plan,
		Timeout:   2 * time.Minute,
	}, chaoticCompute(soakDumps, 40_000),
		func(dump int) []staging.Operator {
			return []staging.Operator{&slowHist{
				minmaxHist: minmaxHist{bins: 16},
				perChunk:   5 * time.Millisecond,
			}}
		})
}

// TestOverloadSoakSpillLossless is the overload acceptance soak: the
// budget is smaller than one dump's share and the consumer drains far
// slower than pulls arrive (>=4:1 byte-rate imbalance via a per-chunk Map
// cost), so the rank must throttle and spill — yet the dump completes
// losslessly: operator results are identical to the unconstrained run,
// every spilled chunk is replayed, and the accountant's peak never
// exceeds budget + one chunk. The constrained run goes once clean and
// once under transient faults on every endpoint.
func TestOverloadSoakSpillLossless(t *testing.T) {
	unconstrained := soakRun(t, 0, nil, t.TempDir())
	if unconstrained.Overload != nil {
		t.Fatal("overload report present without a budget")
	}
	for _, spec := range []string{"none", "transient:*:0.1"} {
		t.Run("plan="+spec, func(t *testing.T) {
			var plan *faults.Plan
			if spec != "none" {
				p, err := faults.ParsePlan(spec, 1)
				if err != nil {
					t.Fatal(err)
				}
				plan = &p
			}
			constrained := soakRun(t, 1, plan, t.TempDir())
			if plan != nil && (constrained.Fault == nil || constrained.Fault.InjectedTransients == 0) {
				t.Errorf("transient plan never fired: %+v", constrained.Fault)
			}

			ov := constrained.Overload
			if ov == nil {
				t.Fatal("no overload report from a budgeted run")
			}
			if ov.Throttles == 0 {
				t.Error("overloaded run recorded no throttles")
			}
			if ov.SpilledChunks == 0 || ov.SpilledBytes == 0 {
				t.Errorf("overloaded run spilled nothing: %+v", ov)
			}
			if ov.ReplayedChunks != ov.SpilledChunks {
				t.Errorf("replayed %d of %d spilled chunks — spill was lossy",
					ov.ReplayedChunks, ov.SpilledChunks)
			}
			if ov.PassedChunks != 0 || ov.ShedChunks != 0 {
				t.Errorf("soak escalated past spill: %+v", ov)
			}

			// Peak accounted memory <= budget + one chunk. Every chunk packs
			// the same record shape, so the per-chunk size falls out of the
			// totals.
			var totalBytes int64
			var totalChunks int
			for _, rankStats := range constrained.StagingStats {
				for _, st := range rankStats {
					totalBytes += st.BytesPulled
					totalChunks += st.Requests
				}
			}
			chunkBytes := totalBytes / int64(totalChunks)
			if ov.PeakBytes > ov.BudgetBytes+chunkBytes {
				t.Errorf("peak accounted bytes %d exceeds budget %d + one chunk %d",
					ov.PeakBytes, ov.BudgetBytes, chunkBytes)
			}
			if chunkBytes*4 <= ov.BudgetBytes {
				t.Fatalf("soak mis-sized: 4 chunks (%d B) fit the budget (%d B) — no overload pressure",
					chunkBytes*4, ov.BudgetBytes)
			}

			// Losslessness: operator results identical to the unconstrained
			// run, and nothing marked Degraded (spill never degrades).
			for rank := 0; rank < soakStaging; rank++ {
				for dump := 0; dump < soakDumps; dump++ {
					want := unconstrained.StagingResults[rank][dump]
					got := constrained.StagingResults[rank][dump]
					if got.Degraded {
						t.Errorf("rank %d dump %d degraded under spill-only overload", rank, dump)
					}
					if !reflect.DeepEqual(got.PerOperator, want.PerOperator) {
						t.Errorf("rank %d dump %d results diverged under budget:\nbudget %v\nfree   %v",
							rank, dump, got.PerOperator, want.PerOperator)
					}
				}
			}
		})
	}
}

// TestOverloadSpillByReference runs the soak with SpillDir naming a
// regular file, under which no directory can be made: a spilled chunk
// waits in its writer's region and is pulled once, at replay, so the run
// spills and replays every spilled chunk without touching SpillDir, the
// accountant never holds more than its budget, and the results are the
// unbudgeted run's.
func TestOverloadSpillByReference(t *testing.T) {
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	unconstrained := soakRun(t, 0, nil, file)
	constrained := soakRun(t, 1, nil, file)
	ov := constrained.Overload
	if ov == nil {
		t.Fatal("no overload report from a budgeted run")
	}
	if ov.SpilledChunks == 0 || ov.ReplayedChunks != ov.SpilledChunks || ov.PassedChunks != 0 {
		t.Errorf("want spills, each replayed, and no pass: %+v", ov)
	}
	if ov.PeakBytes > ov.BudgetBytes {
		t.Errorf("peak accounted bytes %d exceed the budget %d", ov.PeakBytes, ov.BudgetBytes)
	}
	for rank := range soakStaging {
		for dump := range soakDumps {
			want := unconstrained.StagingResults[rank][dump]
			got := constrained.StagingResults[rank][dump]
			if got.Degraded || !reflect.DeepEqual(got.PerOperator, want.PerOperator) {
				t.Errorf("rank %d dump %d: degraded %v, results %v; want %v",
					rank, dump, got.Degraded, got.PerOperator, want.PerOperator)
			}
		}
	}
}

// optionalHist is minmaxHist marked sheddable.
type optionalHist struct{ minmaxHist }

func (h *optionalHist) Name() string   { return "optionalhist" }
func (h *optionalHist) Optional() bool { return true }

// TestOverloadShedDegradesOptionalOperators forces the ladder past spill:
// with a one-byte spill limit, the first spilled chunk escalates to shed,
// and the optional histogram runs on sampled input with Degraded-flagged
// results, while the dump still completes.
func TestOverloadShedDegradesOptionalOperators(t *testing.T) {
	const (
		numCompute = 16 // 8 chunks/rank/dump: enough arrive after shed kicks in
		numStaging = 2
		dumps      = 2
		perRank    = 40_000
	)
	res := runDrained(t, PipelineConfig{
		NumCompute:       numCompute,
		NumStaging:       numStaging,
		Dumps:            dumps,
		PartialCalculate: localMinMax,
		Aggregate:        globalMinMax,
		PullConcurrency:  4,
		BufferMB:         1,
		Overload: flowctl.Policy{
			Patience:        time.Millisecond,
			SpillLimitBytes: 1,       // first spill escalates straight to shed
			PassLimitBytes:  1 << 40, // but never to raw pass-through
			ShedSample:      2,
			SpillDir:        t.TempDir(),
		},
		Timeout: 2 * time.Minute,
	}, chaoticCompute(dumps, perRank),
		func(dump int) []staging.Operator {
			return []staging.Operator{&slowHist{
				minmaxHist: minmaxHist{bins: 16},
				perChunk:   5 * time.Millisecond,
			}, &optionalHist{minmaxHist{bins: 16}}}
		})
	ov := res.Overload
	if ov == nil {
		t.Fatal("no overload report")
	}
	if ov.MaxLevel < flowctl.LevelShed {
		t.Fatalf("ladder never reached shed: %+v", ov)
	}
	if ov.ShedChunks == 0 {
		t.Errorf("shed level reached but no chunks withheld: %+v", ov)
	}
	var degraded, shedOps int
	for _, rankResults := range res.StagingResults {
		for _, r := range rankResults {
			if r.Degraded {
				degraded++
			}
			for _, name := range r.ShedOperators {
				if name != "optionalhist" {
					t.Errorf("unexpected shed operator %q", name)
				}
				shedOps++
			}
		}
	}
	if degraded == 0 || shedOps == 0 {
		t.Errorf("shedding left no Degraded marks (degraded=%d shedOps=%d)", degraded, shedOps)
	}
	if fmt.Sprint(res.StagingResults[0][0].PerOperator["minmaxhist"]) == "" {
		t.Error("mandatory operator produced no results")
	}
}
