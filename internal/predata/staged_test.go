package predata

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"predata/internal/elastic"
	"predata/internal/faults"
	"predata/internal/staging"
	"predata/internal/trace"
)

// TestStaticElasticBitIdentical pins the staged runtime's one-loop
// contract: an elastic run whose policy can never resize (Min == Max ==
// NumStaging) is the static pipeline, so for the same config and seed
// both entry points must produce the same per-dump operator outputs on
// every rank — fault-free and with a staging rank crashing mid-run —
// and both recordings must pass every trace.Verify rule.
func TestStaticElasticBitIdentical(t *testing.T) {
	const (
		numCompute = 8
		numStaging = 3
		dumps      = 5
		perRank    = 40
	)
	ops := func(dump int) []staging.Operator {
		return []staging.Operator{&minmaxHist{bins: 16}, &countOp{}}
	}
	for _, leg := range []struct{ name, plan string }{
		{"fault-free", ""},
		{"crash", fmt.Sprintf("crash:%d@2", numCompute+1)},
	} {
		for _, seed := range confSeeds {
			t.Run(fmt.Sprintf("%s/seed%d", leg.name, seed), func(t *testing.T) {
				run := func(elasticRun bool) *PipelineResult {
					t.Helper()
					recorder := trace.New(trace.Config{
						NumCompute: numCompute, NumStaging: numStaging, Dumps: dumps,
					})
					cfg := PipelineConfig{
						NumCompute:       numCompute,
						NumStaging:       numStaging,
						Dumps:            dumps,
						PartialCalculate: localMinMax,
						Aggregate:        globalMinMax,
						Timeout:          2 * time.Minute,
						Tracer:           recorder,
					}
					if leg.plan != "" {
						plan, err := faults.ParsePlan(leg.plan, seed)
						if err != nil {
							t.Fatal(err)
						}
						cfg.FaultPlan = &plan
					}
					var (
						res *PipelineResult
						err error
					)
					if elasticRun {
						res, _, err = RunElastic(cfg, ElasticConfig{
							Policy: elastic.Policy{Min: numStaging, Max: numStaging},
						}, chaoticCompute(dumps, perRank), ops)
					} else {
						res, err = RunPipeline(cfg, chaoticCompute(dumps, perRank), ops)
					}
					if err != nil {
						t.Fatal(err)
					}
					if _, err := trace.Verify(recorder.Snapshot()); err != nil {
						t.Fatalf("trace.Verify (elastic=%v): %v", elasticRun, err)
					}
					return res
				}
				static, scaled := run(false), run(true)
				for rank := 0; rank < numStaging; rank++ {
					want, got := static.StagingResults[rank], scaled.StagingResults[rank]
					if len(got) != len(want) {
						t.Fatalf("rank %d: elastic run has %d dump rows, static %d", rank, len(got), len(want))
					}
					for dump := range want {
						if got[dump].Degraded != want[dump].Degraded {
							t.Errorf("rank %d dump %d: Degraded elastic=%v static=%v",
								rank, dump, got[dump].Degraded, want[dump].Degraded)
						}
						if !reflect.DeepEqual(got[dump].PerOperator, want[dump].PerOperator) {
							t.Errorf("rank %d dump %d diverged:\nelastic %v\nstatic  %v",
								rank, dump, got[dump].PerOperator, want[dump].PerOperator)
						}
					}
				}
			})
		}
	}
}

// TestMembershipDiff drives the membership diff alone — no pipeline run —
// through every event the dump loop handles: each boundary must be
// recognised as exactly one epoch bump, however many ranks moved and
// whether the pool, the serving set or both changed, and exactly the
// crashed ranks must be told they are leaving.
func TestMembershipDiff(t *testing.T) {
	all := []int{0, 1, 2, 3}
	for _, tc := range []struct {
		name       string
		prev, next epochView
		leaving    int // the staging index that crashes, or -1
	}{
		{"crash", epochView{all, all}, epochView{[]int{0, 2, 3}, []int{0, 2, 3}}, 1},
		{"fence", epochView{all, all}, epochView{all, []int{0, 1, 2}}, -1},
		{"heal", epochView{all, []int{0, 1, 2}}, epochView{all, all}, -1},
		{"restart-park", epochView{all, all}, epochView{all, []int{0, 2, 3}}, -1},
		{"revive", epochView{all, []int{0, 2, 3}}, epochView{all, all}, -1},
		{"initial elastic configuration", epochView{all, nil}, epochView{all, []int{0}}, -1},
		{"grow", epochView{all, []int{0}}, epochView{all, []int{0, 1}}, -1},
		{"shrink", epochView{all, []int{0, 1, 2}}, epochView{all, []int{0, 1}}, -1},
		// Rank 1 joined a dump ago and dies as the pool grows again: the
		// pool and the serving set both change at one boundary.
		{"crash-during-grow", epochView{all, []int{0, 1}}, epochView{[]int{0, 2, 3}, []int{0, 2, 3}}, 1},
		{"crash of a parked rank", epochView{all, []int{0, 1}}, epochView{[]int{0, 1, 2}, []int{0, 1}}, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for idx := range all {
				// Each rank's loop: cross the boundary, then serve the next
				// dump under the unchanged view.
				epoch := int64(-1)
				boundary, leaving := diffMembership(tc.prev, tc.next, idx)
				if boundary {
					epoch++
				}
				if leaving != (idx == tc.leaving) {
					t.Errorf("rank %d: leaving %v, want %v", idx, leaving, idx == tc.leaving)
				}
				if leaving {
					continue // the rank exits at the boundary
				}
				if again, gone := diffMembership(tc.next, tc.next, idx); again {
					epoch++
				} else if gone {
					t.Errorf("rank %d: steady state reported it leaving", idx)
				}
				if epoch != 0 {
					t.Errorf("rank %d ends on epoch %d, want exactly one bump to 0", idx, epoch)
				}
			}
		})
	}
}

// TestMembershipStateOf checks the classification behind the placeholder
// kinds against real plans: a restart window parks, a partition fences,
// and an announced count below the pool idles.
func TestMembershipStateOf(t *testing.T) {
	const numCompute, numStaging = 8, 3
	mk := func(spec string, sched *elastic.Schedule) *Membership {
		t.Helper()
		m := newMembership(nil, numCompute, numStaging, numCompute)
		m.sched, m.deadline = sched, time.Second
		if spec != "" {
			plan, err := faults.ParsePlan(spec, 1)
			if err != nil {
				t.Fatal(err)
			}
			if m.inj, err = faults.NewInjector(plan); err != nil {
				t.Fatal(err)
			}
		}
		return m
	}
	for _, tc := range []struct {
		name string
		m    *Membership
		ts   int64
		want []rankState
	}{
		{"fault-free", mk("", nil), 0, []rankState{serving, serving, serving}},
		{"restart window", mk("restart:9@1:2", nil), 2, []rankState{serving, down, serving}},
		{"restart window closed", mk("restart:9@1:2", nil), 3, []rankState{serving, serving, serving}},
		{"partition", mk(advPartition, nil), 1, []rankState{serving, serving, fenced}},
		{"partition healed", mk(advPartition, nil), 3, []rankState{serving, serving, serving}},
		{"elastic", mk("", elastic.NewSchedule(2)), 0, []rankState{serving, serving, idle}},
	} {
		v, err := tc.m.at(tc.ts)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for idx, want := range tc.want {
			if got := tc.m.stateOf(v, idx, tc.ts); got != want {
				t.Errorf("%s: rank %d state %d, want %d", tc.name, idx, got, want)
			}
		}
	}
}

// TestElasticJournals: an elastic run honours WALDir and
// CheckpointEvery like a static one — the journal lifecycle lives in the
// per-rank setup both entry points share. Every rank journals the dumps
// it serves, checkpoints on the cadence, and leaves a per-rank journal
// directory behind.
func TestElasticJournals(t *testing.T) {
	const (
		numCompute = 8
		numStaging = 3
		dumps      = 6
		cadence    = 2
	)
	walDir := t.TempDir()
	res, scale, _, _ := runElasticTraced(t, PipelineConfig{
		NumCompute:      numCompute,
		NumStaging:      numStaging,
		Dumps:           dumps,
		WALDir:          walDir,
		CheckpointEvery: cadence,
	}, ElasticConfig{
		Policy: elastic.Policy{Min: 1, Max: numStaging, ShrinkJ: 2, Cooldown: 1},
		Start:  numStaging,
	}, chaoticCompute(dumps, 20), countOps)
	if scale.Shrinks == 0 {
		t.Fatalf("idle pool never shrank, so no rank journaled across a retirement: %+v", scale)
	}
	if res.Fault == nil || res.Fault.WalRecords == 0 {
		t.Fatalf("elastic run with a WALDir appended no WAL records: %+v", res.Fault)
	}
	// A rank checkpoints after each dump it served whose index lands on
	// the cadence; dumps it sat out write nothing.
	var want int64
	for rank := 0; rank < numStaging; rank++ {
		for dump, st := range res.StagingStats[rank] {
			if !st.Parked && (dump+1)%cadence == 0 {
				want++
			}
		}
	}
	if res.Fault.Checkpoints != want || want == 0 {
		t.Errorf("Checkpoints = %d, want %d (served dumps on the cadence)", res.Fault.Checkpoints, want)
	}
	for rank := 0; rank < numStaging; rank++ {
		dir := filepath.Join(walDir, fmt.Sprintf("rank-%d", numCompute+rank))
		if entries, err := os.ReadDir(dir); err != nil || len(entries) == 0 {
			t.Errorf("rank %d left no journal under %s (err %v)", rank, dir, err)
		}
	}
}

// TestElasticRowsAreDumpIndexed: StagingResults[rank][i] is dump i in an
// elastic run too. A rank the autoscaler has not activated yet records
// an explicit placeholder for each dump it sits out — Parked, not
// Degraded, so the fault report's DegradedDumps does not move — and its
// first served dump lands at its own index.
func TestElasticRowsAreDumpIndexed(t *testing.T) {
	cfg := elasticSoakConfig(t, 3)
	res, scale, _, _ := runElasticTraced(t, cfg, ElasticConfig{
		Policy: elastic.Policy{Min: 1, Max: 3, GrowK: 2, ShrinkJ: 2, Cooldown: 1},
	}, xrayCompute(cfg.Dumps, burstBaseFrames, burstFactors, burstSeed), frameCountOps)
	if scale.Grows < 1 {
		t.Fatalf("burst run never grew: %+v", scale)
	}
	joined := -1 // first dump rank 1, the first joiner, served
	for rank := 0; rank < cfg.NumStaging; rank++ {
		rows := res.StagingStats[rank]
		if len(rows) != cfg.Dumps || len(res.StagingResults[rank]) != cfg.Dumps {
			t.Fatalf("rank %d has %d stats / %d result rows, want %d each",
				rank, len(rows), len(res.StagingResults[rank]), cfg.Dumps)
		}
		for dump, st := range rows {
			r := res.StagingResults[rank][dump]
			if st.Parked {
				if st.Degraded || r.Degraded || st.Requests != 0 || len(r.PerOperator) != 0 {
					t.Errorf("rank %d dump %d: parked placeholder carries data: %+v %+v", rank, dump, st, r)
				}
			} else if rank == 1 && joined < 0 {
				joined = dump
			}
		}
	}
	if !res.StagingStats[1][0].Parked || joined < 1 {
		t.Fatalf("joiner rank 1 first served dump %d; want placeholders before a later join", joined)
	}
	for _, ep := range scale.Epochs {
		if ep.Direction == elastic.Grow && ep.Active == 2 && int64(joined) != ep.FirstDump {
			t.Errorf("rank 1's first served row is dump %d, but the grow to 2 ranks began at dump %d", joined, ep.FirstDump)
			break
		}
	}
	if res.Fault != nil && res.Fault.DegradedDumps != 0 {
		t.Errorf("parked placeholders counted as %d degraded dumps", res.Fault.DegradedDumps)
	}
}

// TestRestartFenceHandoffs: a rank may pass from one sit-out window straight
// into another — fenced into a restart bounce, or bounced into a fence —
// at a boundary where it stays outside the serving set throughout. The
// bounce must still park it (off the fabric, journal sealed) the moment
// the restart window opens, and a parked rank must still revive from its
// journal when it next serves, whatever else kept it out in between.
// Both plans pass Plan.Validate; the crash only forces a boundary at the
// dump where the rank changes windows.
func TestRestartFenceHandoffs(t *testing.T) {
	const (
		numCompute = 10
		numStaging = 5
		dumps      = 5
		perRank    = 20
	)
	for _, tc := range []struct {
		name, plan string
		rows       []rankState // staging rank 0's per-dump rows
	}{
		{"fenced into bounce",
			"partition:10|11,12,13,14@1-1;restart:10@2:1;crash:14@2",
			[]rankState{serving, fenced, down, serving, serving}},
		{"bounced into fence",
			"restart:10@1:1;partition:10|11,12,13,14@2-2;crash:14@2",
			[]rankState{serving, down, down, serving, serving}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			plan, err := faults.ParsePlan(tc.plan, 1)
			if err != nil {
				t.Fatal(err)
			}
			recorder := trace.New(trace.Config{
				NumCompute: numCompute, NumStaging: numStaging, Dumps: dumps,
			})
			res := runDrained(t, PipelineConfig{
				NumCompute: numCompute,
				NumStaging: numStaging,
				Dumps:      dumps,
				FaultPlan:  &plan,
				WALDir:     t.TempDir(),
				Retry:      RetryPolicy{DumpDeadline: 5 * time.Second},
				Timeout:    2 * time.Minute,
				Tracer:     recorder,
			}, chaoticCompute(dumps, perRank), countOps)
			if _, err := trace.Verify(recorder.Snapshot()); err != nil {
				t.Fatalf("trace.Verify: %v", err)
			}
			for dump := 0; dump < dumps; dump++ {
				var total int64
				for rank := 0; rank < numStaging; rank++ {
					if rows := res.StagingResults[rank]; dump < len(rows) {
						if n, ok := rows[dump].PerOperator["count"]["n"].(int64); ok {
							total += n
						}
					}
				}
				if total != numCompute*perRank {
					t.Errorf("dump %d counted %d values, want %d", dump, total, numCompute*perRank)
				}
				st := res.StagingStats[0][dump]
				want := tc.rows[dump]
				if st.Fenced != (want == fenced) || st.Down != (want == down) {
					t.Errorf("rank 0 dump %d: row Fenced=%v Down=%v, want state %d", dump, st.Fenced, st.Down, want)
				}
			}
			if res.Fault.Restarts != 1 {
				t.Errorf("Restarts = %d, want 1", res.Fault.Restarts)
			}
		})
	}
}
