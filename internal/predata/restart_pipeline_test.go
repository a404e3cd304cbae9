package predata

import (
	"encoding/gob"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"predata/internal/fabric"
	"predata/internal/faults"
	"predata/internal/ffs"
	"predata/internal/flowctl"
	"predata/internal/mpi"
	"predata/internal/staging"
	"predata/internal/trace"
	"predata/internal/wal"
)

// The test partial rides FetchRequest's any-typed field into the
// journal; gob needs the concrete type registered to round-trip it.
func init() {
	gob.Register([2]float64{})
}

// runDrained is RunPipeline for a test that owns the whole run: it fails
// t on a pipeline error and, once the run is over, on any compute
// endpoint that still exposes a region — a chunk no Ack released, at
// pull time or at its dump's commit.
func runDrained(t *testing.T, cfg PipelineConfig, compute ComputeFunc, ops OperatorFactory) *PipelineResult {
	t.Helper()
	writers := make([]*fabric.Endpoint, cfg.NumCompute)
	res, err := RunPipeline(cfg, func(comm *mpi.Comm, client *Client) error {
		writers[comm.Rank()] = client.Endpoint()
		return compute(comm, client)
	}, ops)
	if err != nil {
		t.Fatal(err)
	}
	for rank, ep := range writers {
		if n := ep.ExposedBytes(); n != 0 {
			t.Errorf("writer %d still exposes %d bytes after the run: a region was never released", rank, n)
		}
	}
	return res
}

// probeOp is countOp with a hook that runs in Reduce: after every chunk
// of the dump has been pulled, and before the dump commits.
type probeOp struct {
	countOp
	probe func()
}

func (p *probeOp) Reduce(ctx *staging.Context, tag int, values []int64) error {
	p.probe()
	return p.countOp.Reduce(ctx, tag, values)
}

// TestJournaledRegionHeldUntilCommit pins journal by reference: with a
// journal, every chunk the dump will reduce still has its writer's
// region exposed while Reduce runs, and every
// region is released once ServeDump has committed the dump. Without a
// journal the regions are held just as long, because the staging side
// reads a chunk's bytes until the dump's Finalize returns and the writer
// reuses a released frame; this used to release each region as soon as
// its pull verified, and the flip of that expectation is deliberate.
// Either way a source that stays corrupt is released when the re-pulls
// give up: it is shed, not part of the dump.
func TestJournaledRegionHeldUntilCommit(t *testing.T) {
	const (
		corrupt = 1 // source copy damaged at Expose: corrupt-dropped; writers 0 and 2 are reduced
		writers = 3
	)
	plan, err := faults.ParsePlan(fmt.Sprintf("corrupt:%d:1:send", corrupt), 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, journaled := range []bool{false, true} {
		t.Run(fmt.Sprintf("journal=%v", journaled), func(t *testing.T) {
			inj, err := faults.NewInjector(plan)
			if err != nil {
				t.Fatal(err)
			}
			fcfg := fabric.DefaultConfig(writers + 1)
			fcfg.Faults = inj
			fab, err := fabric.New(fcfg)
			if err != nil {
				t.Fatal(err)
			}
			defer fab.Shutdown()
			eps := make([]*fabric.Endpoint, writers)
			for w := range eps {
				eps[w], _ = fab.Endpoint(w)
				client, err := NewClient(ClientConfig{
					WriterRank: w, NumCompute: writers, NumStaging: 1,
					Endpoint: eps[w], StagingBase: writers,
				})
				if err != nil {
					t.Fatal(err)
				}
				if _, err := client.Write(testSchema, ffs.Record{"values": []float64{1, 2, 3}}, 0); err != nil {
					t.Fatal(err)
				}
			}
			var journal *wal.Log
			if journaled {
				if journal, err = wal.Open(t.TempDir()); err != nil {
					t.Fatal(err)
				}
				defer journal.Close()
			}
			probed := false
			op := &probeOp{probe: func() {
				probed = true
				for w, ep := range eps {
					n := ep.ExposedBytes()
					if held := w != corrupt; held != (n > 0) {
						t.Errorf("in Reduce: writer %d exposes %d bytes, want held=%v", w, n, held)
					}
				}
			}}
			err = mpi.Run(1, func(world *mpi.Comm) error {
				sep, err := fab.Endpoint(writers)
				if err != nil {
					return err
				}
				server, err := NewServer(ServerConfig{
					StagingIndex: 0, Comm: world, Endpoint: sep, NumCompute: writers,
					Retry:   RetryPolicy{MaxAttempts: 2, BaseDelay: time.Microsecond, MaxDelay: time.Microsecond},
					Journal: journal,
				})
				if err != nil {
					return err
				}
				_, stats, err := server.ServeDump(0, []staging.Operator{op})
				if err != nil {
					return err
				}
				if stats.CorruptDrops != 1 {
					return fmt.Errorf("dump stats %+v, want one corrupt drop", stats)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if !probed {
				t.Fatal("Reduce never ran the probe")
			}
			for w, ep := range eps {
				if n := ep.ExposedBytes(); n != 0 {
					t.Errorf("after ServeDump: writer %d still exposes %d bytes", w, n)
				}
			}
		})
	}
}

// TestJournaledLadderAcksAtCommit drives a journaled dump down the
// degradation ladder — spill escalating straight to raw pass-through —
// and checks that every region is still released: spilled and passed
// chunks are acknowledged at their dump's commit.
func TestJournaledLadderAcksAtCommit(t *testing.T) {
	const (
		numCompute = 16
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
			SpillLimitBytes: 1, // the first spilled byte escalates
			PassLimitBytes:  1, // straight to raw pass-through
			SpillDir:        t.TempDir(),
		},
		WALDir:  t.TempDir(),
		Timeout: 2 * time.Minute,
	}, chaoticCompute(dumps, perRank),
		func(dump int) []staging.Operator {
			return []staging.Operator{&slowHist{
				minmaxHist: minmaxHist{bins: 16},
				perChunk:   5 * time.Millisecond,
			}}
		})
	ov := res.Overload
	if ov == nil || ov.SpilledChunks == 0 || ov.PassedChunks == 0 {
		t.Fatalf("ladder never spilled and passed: %+v", ov)
	}
}

// slowCount is countOp with a fixed per-chunk Map cost: a consumer that
// drains slower than the pulls arrive.
type slowCount struct {
	countOp
	perChunk time.Duration
}

func (c *slowCount) Map(ctx *staging.Context, chunk *staging.Chunk) error {
	time.Sleep(c.perChunk)
	return c.countOp.Map(ctx, chunk)
}

// TestRestartRecoveryLossless: one staging rank bounces for two dumps
// (controlled restart at the boundary, journal sealed, fabric endpoint
// down) and rejoins with its journal. The down dumps reroute its
// writers — zero values lost anywhere — and the revived rank serves
// post-revival dumps exactly as before the bounce. Under a 1 MB budget
// whose ladder passes chunks raw past a slow consumer, the bounce still
// happens and values are lost, but never silently: every short dump is
// Degraded.
func TestRestartRecoveryLossless(t *testing.T) {
	const (
		numCompute = 8
		numStaging = 3
		dumps      = 5
		restartIdx = 1
		atDump     = 1
		downtime   = 2
	)
	plan, err := faults.ParsePlan(
		fmt.Sprintf("restart:%d@%d:%d", numCompute+restartIdx, atDump, downtime), 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range []struct {
		name     string
		perRank  int
		bufferMB int
	}{
		{"unbudgeted", 20, 0},
		// ~800 KB per chunk: the budget holds one, so with one pull in
		// flight a rank's second chunk of a dump waits out the patience
		// behind the slow Map and spills, the dump escalates, and a third
		// chunk passes raw.
		{"budget=1MB", 100_000, 1},
	} {
		t.Run(in.name, func(t *testing.T) {
			budgeted := in.bufferMB > 0
			cfg := PipelineConfig{
				NumCompute: numCompute,
				NumStaging: numStaging,
				Dumps:      dumps,
				FaultPlan:  &plan,
				WALDir:     t.TempDir(),
				Timeout:    2 * time.Minute,
			}
			ops := func(dump int) []staging.Operator { return []staging.Operator{&countOp{}} }
			if budgeted {
				cfg.PullConcurrency = 1
				cfg.BufferMB = in.bufferMB
				cfg.Overload = flowctl.Policy{
					Patience:        time.Millisecond,
					SpillLimitBytes: 1, // the first spilled byte escalates
					PassLimitBytes:  1, // straight to raw pass-through
					SpillDir:        t.TempDir(),
				}
				ops = func(dump int) []staging.Operator {
					return []staging.Operator{&slowCount{perChunk: 5 * time.Millisecond}}
				}
			}
			res := runDrained(t, cfg, chaoticCompute(dumps, in.perRank), ops)

			for dump := 0; dump < dumps; dump++ {
				var total int64
				degraded := false
				for rank := 0; rank < numStaging; rank++ {
					r := res.StagingResults[rank][dump]
					if n, ok := r.PerOperator["count"]["n"].(int64); ok {
						total += n
					}
					degraded = degraded || r.Degraded
				}
				// Zero silent loss: every dump accounts for every writer's
				// values, bounce or no bounce, unless it says it does not.
				want := int64(numCompute * in.perRank)
				if total > want || (total < want && !(budgeted && degraded)) {
					t.Errorf("dump %d counted %d values, want %d (degraded=%v)", dump, total, want, degraded)
				}
				down := dump >= atDump && dump < atDump+downtime
				st := res.StagingStats[restartIdx][dump]
				if down != st.Down {
					t.Errorf("dump %d: restart rank Down=%v, want %v", dump, st.Down, down)
				}
				if !budgeted && !down && st.Degraded {
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
			if budgeted && (res.Overload == nil || res.Overload.PassedChunks == 0) {
				t.Errorf("the budget never passed a chunk raw, so no loss was tested: %+v", res.Overload)
			}
		})
	}
}

// TestCrashAllRecoveryBitIdentical: the whole staging service crashes
// mid-dump after journaling its gathered requests and pulling their
// chunks, rebuilds every rank from the journals under a fresh epoch, and
// finishes the dump by re-pulling the chunks from the regions their
// writers still hold. Every dump's results — including the crashed one
// — must be byte-identical to the fault-free run, with nothing
// Degraded, and the flight recording must pass the WAL replay fidelity
// and restart exclusivity rules.
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
		res := runDrained(t, PipelineConfig{
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
		t.Errorf("WalReplayed = %d, want %d (every chunk of the crashed dump re-pulled)", fr.WalReplayed, numCompute)
	}
	// The recording must actually exercise the new rules: re-pulls matched
	// to journaled requests, and the exclusivity census over every
	// retired chunk.
	if rep.Checks[trace.RuleWALReplay] == 0 {
		t.Errorf("no WAL replay fidelity checks ran: %+v", rep)
	}
	if rep.Checks[trace.RuleRestartOnce] == 0 {
		t.Errorf("no restart exclusivity checks ran: %+v", rep)
	}
}

// TestCheckpointTruncatesJournal: with a checkpoint cadence, each rank's
// journal compacts at dump boundaries into one file that opens with the
// checkpoint record of its last cadence point.
func TestCheckpointTruncatesJournal(t *testing.T) {
	const (
		numCompute = 4
		numStaging = 2
		dumps      = 4
		perRank    = 10
	)
	walDir := t.TempDir()
	res := runDrained(t, PipelineConfig{
		NumCompute:      numCompute,
		NumStaging:      numStaging,
		Dumps:           dumps,
		WALDir:          walDir,
		CheckpointEvery: 2,
		Timeout:         time.Minute,
	}, chaoticCompute(dumps, perRank),
		func(dump int) []staging.Operator { return []staging.Operator{&countOp{}} })
	if res.Fault == nil {
		t.Fatal("journaled run produced no fault report")
	}
	if want := int64(numStaging * dumps / 2); res.Fault.Checkpoints != want {
		t.Errorf("Checkpoints = %d, want %d", res.Fault.Checkpoints, want)
	}
	for rank := numCompute; rank < numCompute+numStaging; rank++ {
		dir := filepath.Join(walDir, fmt.Sprintf("rank-%d", rank))
		if names, err := filepath.Glob(filepath.Join(dir, "*")); err != nil || len(names) != 1 || filepath.Base(names[0]) != "journal.wal" {
			t.Errorf("rank %d's directory holds %v (err %v), want only journal.wal", rank, names, err)
		}
		var first *wal.Record
		if err := wal.Scan(dir, func(rec wal.Record) error {
			if first == nil {
				first = &rec
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if first == nil || first.Kind != wal.KindCheckpoint || first.Timestep != dumps {
			t.Errorf("rank %d's journal opens with %+v, want the checkpoint record for dump %d", rank, first, dumps)
		}
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
	// A partition that fences every staging rank is the same outage: no
	// rank holds quorum, so it must be refused before any rank runs.
	for _, spec := range []string{"partition:2|3@1-1", "partition:2|3@1-*"} {
		cut, err := faults.ParsePlan(spec, 1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := RunPipeline(PipelineConfig{
			NumCompute: 2, NumStaging: 2, Dumps: 3, FaultPlan: &cut,
		}, nil, nil); err == nil || !strings.Contains(err.Error(), "no active staging rank at dump 1") {
			t.Errorf("%s: all-ranks-fenced partition accepted: %v", spec, err)
		}
	}
}
