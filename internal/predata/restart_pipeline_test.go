package predata

import (
	"encoding/gob"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"predata/internal/faults"
	"predata/internal/staging"
	"predata/internal/trace"
)

// The test partial rides FetchRequest's any-typed field into the
// journal; gob needs the concrete type registered to round-trip it.
func init() {
	gob.Register([2]float64{})
}

// TestRestartRecoveryLossless: one staging rank bounces for two dumps
// (controlled restart at the boundary, journal sealed, fabric endpoint
// down) and rejoins with its journal. The down dumps reroute its
// writers — zero values lost anywhere — and the revived rank serves
// post-revival dumps exactly as before the bounce.
func TestRestartRecoveryLossless(t *testing.T) {
	const (
		numCompute = 8
		numStaging = 3
		dumps      = 5
		restartIdx = 1
		atDump     = 1
		downtime   = 2
		perRank    = 20
	)
	plan, err := faults.ParsePlan(
		fmt.Sprintf("restart:%d@%d:%d", numCompute+restartIdx, atDump, downtime), 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunPipeline(PipelineConfig{
		NumCompute: numCompute,
		NumStaging: numStaging,
		Dumps:      dumps,
		FaultPlan:  &plan,
		WALDir:     t.TempDir(),
		Timeout:    2 * time.Minute,
	}, chaoticCompute(dumps, perRank),
		func(dump int) []staging.Operator { return []staging.Operator{&countOp{}} })
	if err != nil {
		t.Fatal(err)
	}

	for dump := 0; dump < dumps; dump++ {
		var total int64
		for rank := 0; rank < numStaging; rank++ {
			r := res.StagingResults[rank][dump]
			if n, ok := r.PerOperator["count"]["n"].(int64); ok {
				total += n
			}
		}
		// Zero silent loss: every dump accounts for every writer's values,
		// bounce or no bounce.
		if total != numCompute*perRank {
			t.Errorf("dump %d counted %d values, want %d", dump, total, numCompute*perRank)
		}
		down := dump >= atDump && dump < atDump+downtime
		st := res.StagingStats[restartIdx][dump]
		if down != st.Down {
			t.Errorf("dump %d: restart rank Down=%v, want %v", dump, st.Down, down)
		}
		if !down && st.Degraded {
			t.Errorf("dump %d degraded outside the restart window", dump)
		}
	}

	rep := res.Fault
	if rep == nil {
		t.Fatal("no fault report")
	}
	if rep.Restarts != 1 {
		t.Errorf("Restarts = %d, want 1", rep.Restarts)
	}
	if rep.WalRecords == 0 {
		t.Error("journaling rank appended no WAL records")
	}
	if rep.Drops != 0 {
		t.Errorf("restart recovery dropped %d chunks; the bounce must be lossless", rep.Drops)
	}
	if rep.Redistributed == 0 {
		t.Error("no requests redistributed around the bounced rank")
	}
}

// TestCrashAllRecoveryBitIdentical: the whole staging service crashes
// mid-dump after journaling its gathered requests and pulled chunks,
// rebuilds every rank from the journals under a fresh epoch, and
// finishes the dump by replay. Every dump's results — including the
// crashed one — must be byte-identical to the fault-free run, with
// nothing Degraded, and the flight recording must pass the WAL replay
// fidelity and restart exclusivity rules.
func TestCrashAllRecoveryBitIdentical(t *testing.T) {
	const (
		numCompute = 8
		numStaging = 2
		dumps      = 4
		crashDump  = 2
		perRank    = 50
	)
	ops := func(dump int) []staging.Operator {
		return []staging.Operator{&minmaxHist{bins: 16}}
	}
	run := func(plan *faults.Plan, walDir string) (*PipelineResult, *trace.VerifyReport) {
		t.Helper()
		recorder := trace.New(trace.Config{
			NumCompute: numCompute, NumStaging: numStaging, Dumps: dumps,
		})
		res, err := RunPipeline(PipelineConfig{
			NumCompute:       numCompute,
			NumStaging:       numStaging,
			Dumps:            dumps,
			PartialCalculate: localMinMax,
			Aggregate:        globalMinMax,
			FaultPlan:        plan,
			WALDir:           walDir,
			Timeout:          2 * time.Minute,
			Tracer:           recorder,
		}, chaoticCompute(dumps, perRank), ops)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := trace.Verify(recorder.Snapshot())
		if err != nil {
			t.Fatalf("trace.Verify: %v", err)
		}
		return res, rep
	}
	clean, _ := run(nil, "")
	plan, err := faults.ParsePlan(fmt.Sprintf("crashall@%d", crashDump), 1)
	if err != nil {
		t.Fatal(err)
	}
	crashed, rep := run(&plan, t.TempDir())

	for rank := 0; rank < numStaging; rank++ {
		for dump := 0; dump < dumps; dump++ {
			want := clean.StagingResults[rank][dump]
			got := crashed.StagingResults[rank][dump]
			if got.Degraded {
				t.Errorf("rank %d dump %d degraded; crashall replay must be lossless", rank, dump)
			}
			if !reflect.DeepEqual(got.PerOperator, want.PerOperator) {
				t.Errorf("rank %d dump %d diverged after replay:\ncrashed %v\nclean   %v",
					rank, dump, got.PerOperator, want.PerOperator)
			}
		}
	}
	fr := crashed.Fault
	if fr == nil {
		t.Fatal("no fault report")
	}
	if fr.Restarts != numStaging {
		t.Errorf("Restarts = %d, want %d (every rank rebuilt)", fr.Restarts, numStaging)
	}
	if fr.WalReplayed != numCompute {
		t.Errorf("WalReplayed = %d, want %d (every chunk of the crashed dump)", fr.WalReplayed, numCompute)
	}
	// The recording must actually exercise the new rules: replays matched
	// to appends, and the exclusivity census over every retired chunk.
	if rep.Checks[trace.RuleWALReplay] == 0 {
		t.Errorf("no WAL replay fidelity checks ran: %+v", rep)
	}
	if rep.Checks[trace.RuleRestartOnce] == 0 {
		t.Errorf("no restart exclusivity checks ran: %+v", rep)
	}
}

// TestCheckpointTruncatesJournal: with a checkpoint cadence, the journal
// compacts at dump boundaries and the recording orders every truncate
// after a covering checkpoint (verify rule 12 runs non-vacuously).
func TestCheckpointTruncatesJournal(t *testing.T) {
	const (
		numCompute = 4
		numStaging = 2
		dumps      = 4
		perRank    = 10
	)
	recorder := trace.New(trace.Config{
		NumCompute: numCompute, NumStaging: numStaging, Dumps: dumps,
	})
	res, err := RunPipeline(PipelineConfig{
		NumCompute:      numCompute,
		NumStaging:      numStaging,
		Dumps:           dumps,
		WALDir:          t.TempDir(),
		CheckpointEvery: 2,
		Timeout:         time.Minute,
		Tracer:          recorder,
	}, chaoticCompute(dumps, perRank),
		func(dump int) []staging.Operator { return []staging.Operator{&countOp{}} })
	if err != nil {
		t.Fatal(err)
	}
	if res.Fault == nil {
		t.Fatal("journaled run produced no fault report")
	}
	if want := int64(numStaging * dumps / 2); res.Fault.Checkpoints != want {
		t.Errorf("Checkpoints = %d, want %d", res.Fault.Checkpoints, want)
	}
	rep, err := trace.Verify(recorder.Snapshot())
	if err != nil {
		t.Fatalf("trace.Verify: %v", err)
	}
	if rep.Checks[trace.RuleCheckpointOrder] == 0 {
		t.Errorf("no checkpoint-before-truncate checks ran: %+v", rep)
	}
}

// TestRestartPlanValidation: restart/crashall plans must target staging
// endpoints, have a journal directory to rebuild from, and keep at
// least one rank serving through every window.
func TestRestartPlanValidation(t *testing.T) {
	walDir := t.TempDir()
	compute := faults.Plan{Restarts: []faults.Restart{{Endpoint: 0, AtDump: 1, Downtime: 1}}}
	if _, err := RunPipeline(PipelineConfig{
		NumCompute: 2, NumStaging: 1, Dumps: 3, FaultPlan: &compute, WALDir: walDir,
	}, nil, nil); err == nil || !strings.Contains(err.Error(), "not a staging endpoint") {
		t.Errorf("compute-endpoint restart accepted: %v", err)
	}
	noWal := faults.Plan{Restarts: []faults.Restart{{Endpoint: 2, AtDump: 1, Downtime: 1}}}
	if _, err := RunPipeline(PipelineConfig{
		NumCompute: 2, NumStaging: 2, Dumps: 3, FaultPlan: &noWal,
	}, nil, nil); err == nil || !strings.Contains(err.Error(), "WALDir") {
		t.Errorf("restart plan without a WALDir accepted: %v", err)
	}
	allDown := faults.Plan{Restarts: []faults.Restart{
		{Endpoint: 2, AtDump: 1, Downtime: 1},
		{Endpoint: 3, AtDump: 1, Downtime: 1},
	}}
	if _, err := RunPipeline(PipelineConfig{
		NumCompute: 2, NumStaging: 2, Dumps: 3, FaultPlan: &allDown, WALDir: walDir,
	}, nil, nil); err == nil || !strings.Contains(err.Error(), "no active staging rank") {
		t.Errorf("all-ranks-down restart window accepted: %v", err)
	}
}
