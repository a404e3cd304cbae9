package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"predata/internal/faults"
	"predata/internal/ffs"
	"predata/internal/mpi"
	"predata/internal/ops"
	"predata/internal/predata"
	"predata/internal/staging"
	"predata/internal/trace"
)

// The restart experiment reuses the adversary shape (8 writers, 3
// staging ranks, 4 dumps) and drives the durability layer through its
// three regimes: journaling with nothing going wrong, one rank bouncing
// and rejoining from its journal, and the whole service crashing
// mid-dump and rebuilding by replay. The per-writer particle count
// runs above the adversary's: journaling pays a fixed few commit
// barriers per dump, so its share of the wall-clock (the journal
// column) is only meaningful against a dump big enough to measure.
const restPerRank = 8000

// restBounce takes staging index 1 (endpoint 9) down over dumps 1-2; it
// rejoins from its journal at dump 3 while its writers reroute.
const restBounce = "restart:9@1:2"

// restCrashAll kills every staging rank mid-dump 2, after the dump's
// requests and chunks are journaled but before any reduction.
const restCrashAll = "crashall@2"

// RestartRun is one leg of the durability experiment in
// BENCH_restart.json form: goodput plus the journal, checkpoint and
// recovery trajectories.
type RestartRun struct {
	Name   string `json:"name"`
	WallMS int64  `json:"wall_ms"`
	// GoodputMValS is values verifiably reduced per wall second, in
	// millions — the figure journaling overhead and recovery stalls tax.
	GoodputMValS float64 `json:"goodput_mval_s"`
	// Journal trajectory: records and bytes appended, wall time spent
	// inside WAL writes summed across ranks, and that time as a percent
	// of the per-rank dump wall-clock (ranks journal concurrently).
	WalRecords int64   `json:"wal_records"`
	WalBytes   int64   `json:"wal_bytes"`
	JournalMS  int64   `json:"journal_ms"`
	JournalPct float64 `json:"journal_pct"`
	// Checkpoint and recovery trajectory: checkpoints cut, ranks
	// restarted, and journal records replayed through the engine.
	Checkpoints int64 `json:"checkpoints"`
	Restarts    int64 `json:"restarts"`
	WalReplayed int64 `json:"wal_replayed"`
	// Reroutes and overload shedding around the bounce window.
	ReroutedDumps int64 `json:"rerouted_dumps"`
	SpilledChunks int64 `json:"spilled_chunks"`
	// DegradedDumps and DataLoss close the ledger: explicit degradation
	// versus silently missing values (always zero — loss is loud).
	DegradedDumps int64 `json:"degraded_dumps"`
	DataLoss      int64 `json:"data_loss"`
}

// RestartSummary is the JSON document the restart experiment emits.
type RestartSummary struct {
	Seed    int64        `json:"seed"`
	Writers int          `json:"writers"`
	Staging int          `json:"staging"`
	Dumps   int          `json:"dumps"`
	Runs    []RestartRun `json:"runs"`
}

// restBenchRun executes one leg of the durability experiment. A
// non-empty walDir turns on journaling; bufferMB>0 adds the flow
// controller for the overload leg. The returned recorder holds the
// leg's flight recording for trace.Verify.
func restBenchRun(spec string, seed int64, walDir string, checkpointEvery, bufferMB int) (*predata.PipelineResult, time.Duration, *trace.Recorder, error) {
	recorder := trace.New(trace.Config{
		NumCompute: advCompute, NumStaging: advStaging, Dumps: advDumps,
	})
	cfg := predata.PipelineConfig{
		NumCompute:       advCompute,
		NumStaging:       advStaging,
		Dumps:            advDumps,
		PartialCalculate: ops.MinMaxPartial("p", []int{ColZeta, ColRadial, ColRank}),
		Aggregate:        ops.MinMaxAggregate(),
		Engine:           staging.Config{Workers: 2},
		PullConcurrency:  2,
		Timeout:          2 * time.Minute,
		WALDir:           walDir,
		CheckpointEvery:  checkpointEvery,
		BufferMB:         bufferMB,
		Tracer:           recorder,
	}
	if spec != "" {
		plan, err := faults.ParsePlan(spec, seed)
		if err != nil {
			return nil, 0, nil, err
		}
		cfg.FaultPlan = &plan
	}
	opsFor := func(dump int) []staging.Operator {
		h, err := ops.NewHistogramOperator(ops.HistogramConfig{
			Var: "p", Columns: []int{ColZeta, ColRadial}, Bins: 64, AggRanges: true,
		})
		if err != nil {
			return nil
		}
		return []staging.Operator{h}
	}
	start := time.Now()
	res, err := predata.RunPipeline(cfg,
		func(comm *mpi.Comm, client *predata.Client) error {
			for step := 0; step < advDumps; step++ {
				arr := GenParticles(comm.Rank(), restPerRank, int64(step))
				if _, err := client.Write(ParticleSchema, ffs.Record{"p": arr}, int64(step)); err != nil {
					return err
				}
			}
			return nil
		},
		opsFor)
	return res, time.Since(start), recorder, err
}

// restBenchRow condenses one leg into its JSON form. Loss is measured
// against the conservation figure: every particle bins exactly twice
// (two histogrammed columns) per dump.
func restBenchRow(name string, res *predata.PipelineResult, wall time.Duration) RestartRun {
	want := int64(advCompute*restPerRank) * 2 * int64(advDumps)
	var got int64
	for d := 0; d < advDumps; d++ {
		got += histTotal(res, d)
	}
	row := RestartRun{
		Name:     name,
		WallMS:   wall.Milliseconds(),
		DataLoss: want - got,
	}
	if wall > 0 {
		row.GoodputMValS = float64(got) / wall.Seconds() / 1e6
	}
	if f := res.Fault; f != nil {
		row.WalRecords = f.WalRecords
		row.WalBytes = f.WalBytes
		row.JournalMS = f.JournalWall.Milliseconds()
		if wall > 0 && advStaging > 0 {
			// Ranks journal concurrently: the honest overhead figure is
			// the per-rank average journal time against the run's wall.
			row.JournalPct = 100 * f.JournalWall.Seconds() / float64(advStaging) / wall.Seconds()
		}
		row.Checkpoints = f.Checkpoints
		row.Restarts = f.Restarts
		row.WalReplayed = f.WalReplayed
		row.ReroutedDumps = f.ReroutedDumps
		row.DegradedDumps = f.DegradedDumps
	}
	if o := res.Overload; o != nil {
		row.SpilledChunks = o.SpilledChunks
	}
	return row
}

// perDumpIdentical reports the first dump whose histogram census
// diverges between two legs, or -1 when every dump matches.
func perDumpIdentical(a, b *predata.PipelineResult) int {
	for d := 0; d < advDumps; d++ {
		if histTotal(a, d) != histTotal(b, d) {
			return d
		}
	}
	return -1
}

// Restart runs the durability experiment: the same workload without a
// journal, journaling with a checkpoint cadence (measuring the
// overhead), bouncing one staging rank across a two-dump window,
// crashing the whole staging service mid-dump and replaying it back,
// and bouncing a rank while the flow controller is starved. It
// demonstrates the durability contract: a journaled dump is never
// silently lost — every leg either matches the baseline census
// bit-for-bit or declares its degradation. The journaling share of
// the wall-clock is reported (the journal column, journal_pct in the
// JSON) but not gated: on a ~90 ms leg it moves by several points
// between runs, and the figure to quote is the benchmark ledger's
// wal.journal_share at scale. When jsonPath is non-empty the legs are
// also written there as JSON.
func Restart(w io.Writer, jsonPath string) error {
	seed := chaosSeed()
	header(w, fmt.Sprintf("Restart — journal, checkpoint and crash-restart recovery (seed %d)", seed))

	// Journal onto memory-backed storage when the host has it: staging
	// nodes journal to fast node-local devices, and the journal column
	// below measures the journaling layer itself — framing, CRC, copies,
	// commit barriers — not the bandwidth of whatever disk backs the
	// bench harness's temp directory.
	tmpRoot := ""
	if st, err := os.Stat("/dev/shm"); err == nil && st.IsDir() {
		tmpRoot = "/dev/shm"
	}
	walRoot, err := os.MkdirTemp(tmpRoot, "predata-restart-bench")
	if err != nil {
		return err
	}
	defer os.RemoveAll(walRoot)
	walDir := func(leg string) string { return walRoot + "/" + leg }

	type leg struct {
		name            string
		spec            string
		walDir          string
		checkpointEvery int
		bufferMB        int
	}
	legs := []leg{
		{"no journal", "", "", 0, 0},
		{"journal clean", "", walDir("clean"), 2, 0},
		{"single restart", restBounce, walDir("bounce"), 0, 0},
		{"crashall replay", restCrashAll, walDir("crashall"), 0, 0},
		{"restart overloaded", restBounce, walDir("overload"), 0, 1},
	}

	rows := make([]RestartRun, 0, len(legs))
	results := make([]*predata.PipelineResult, 0, len(legs))
	recorders := make([]*trace.Recorder, 0, len(legs))
	for _, l := range legs {
		res, wall, rec, err := restBenchRun(l.spec, seed, l.walDir, l.checkpointEvery, l.bufferMB)
		if err != nil {
			return fmt.Errorf("bench: %s leg: %w", l.name, err)
		}
		rows = append(rows, restBenchRow(l.name, res, wall))
		results = append(results, res)
		recorders = append(recorders, rec)
	}

	fmt.Fprintf(w, "%-20s %8s %9s %8s %9s %8s %6s %5s %7s %6s %5s\n",
		"run", "wall", "goodput", "walRecs", "journal", "ckpts", "rstrt", "rply", "rerout", "degr", "loss")
	for _, r := range rows {
		fmt.Fprintf(w, "%-20s %6dms %7.2fM %8d %7.2f%% %8d %6d %5d %7d %6d %5d\n",
			r.Name, r.WallMS, r.GoodputMValS, r.WalRecords, r.JournalPct,
			r.Checkpoints, r.Restarts, r.WalReplayed, r.ReroutedDumps, r.DegradedDumps, r.DataLoss)
	}

	// The invariants the experiment exists to demonstrate.
	base, clean, bounce, crash, overload := rows[0], rows[1], rows[2], rows[3], rows[4]
	if base.DataLoss != 0 || base.DegradedDumps != 0 {
		return fmt.Errorf("bench: no-journal leg not clean: %+v", base)
	}
	// Journaling must be invisible in the results.
	if clean.DataLoss != 0 || clean.DegradedDumps != 0 {
		return fmt.Errorf("bench: clean journal leg not lossless: %+v", clean)
	}
	if d := perDumpIdentical(results[0], results[1]); d >= 0 {
		return fmt.Errorf("bench: journaling changed dump %d's census", d)
	}
	if clean.WalRecords == 0 || clean.WalBytes == 0 {
		return fmt.Errorf("bench: clean journal leg appended nothing: %+v", clean)
	}
	if wantCkpt := int64(advStaging * advDumps / 2); clean.Checkpoints != wantCkpt {
		return fmt.Errorf("bench: clean leg cut %d checkpoints, want %d", clean.Checkpoints, wantCkpt)
	}
	// The bounce reroutes its writers and rejoins without losing a value.
	if bounce.DataLoss != 0 {
		return fmt.Errorf("bench: single restart leg lost %d values across the bounce", bounce.DataLoss)
	}
	if bounce.Restarts != 1 || bounce.ReroutedDumps == 0 {
		return fmt.Errorf("bench: single restart leg did not bounce and reroute: %+v", bounce)
	}
	// The whole-service crash replays back bit-identical: no degradation
	// anywhere, every rank rebuilt, the crashed dump's chunks replayed.
	if crash.DataLoss != 0 || crash.DegradedDumps != 0 {
		return fmt.Errorf("bench: crashall leg must replay losslessly: %+v", crash)
	}
	if d := perDumpIdentical(results[0], results[3]); d >= 0 {
		return fmt.Errorf("bench: crashall replay diverged from the baseline at dump %d", d)
	}
	if crash.Restarts != int64(advStaging) {
		return fmt.Errorf("bench: crashall rebuilt %d ranks, want %d", crash.Restarts, advStaging)
	}
	if crash.WalReplayed != int64(advCompute) {
		return fmt.Errorf("bench: crashall replayed %d chunks, want %d", crash.WalReplayed, advCompute)
	}
	// The flight recording must prove it: replays matched to journal
	// appends byte-for-byte and no chunk reduced by two incarnations.
	rep, err := trace.Verify(recorders[3].Snapshot())
	if err != nil {
		return fmt.Errorf("bench: crashall leg failed trace verification: %w", err)
	}
	if rep.WALChecks == 0 || rep.RestartChecks == 0 {
		return fmt.Errorf("bench: crashall recording ran no WAL/restart checks: %+v", rep)
	}
	// Bouncing under a starved flow controller may shed, but only loudly.
	if overload.Restarts != 1 {
		return fmt.Errorf("bench: overloaded restart leg did not bounce: %+v", overload)
	}
	if overload.DataLoss != 0 && overload.DegradedDumps == 0 {
		return fmt.Errorf("bench: overloaded restart leg lost %d values silently", overload.DataLoss)
	}

	if jsonPath != "" {
		doc, err := json.MarshalIndent(RestartSummary{
			Seed: seed, Writers: advCompute, Staging: advStaging, Dumps: advDumps, Runs: rows,
		}, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonPath, append(doc, '\n'), 0o644); err != nil {
			return fmt.Errorf("bench: write restart json: %w", err)
		}
		fmt.Fprintf(w, "\nrestart legs written to %s\n", jsonPath)
	}
	fmt.Fprintf(w, "\nbounced ranks rejoin from their journals, a whole-service crash replays back bit-identical — no silent loss anywhere (journaling cost: the journal column here, wal.journal_share in the benchmark ledger)\n")
	return nil
}
