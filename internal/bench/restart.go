package bench

import (
	"fmt"
	"os"
	"slices"

	"predata/internal/predata"
	"predata/internal/trace"
)

// The restart experiment reuses the adversary shape (8 writers, 3
// staging ranks, 4 dumps) and drives the durability layer through its
// three regimes: journaling with nothing going wrong, one rank bouncing
// and rejoining from its journal, and the whole service crashing
// mid-dump and rebuilding by re-pulling. The per-writer particle count
// runs above the adversary's: journaling pays a fixed few commit
// barriers per dump, so its share of the wall-clock (the journal
// column) is only meaningful against a dump big enough to measure.
const restPerRank = 8000

// restBounce takes staging index 1 (endpoint 9) down over dumps 1-2; it
// rejoins from its journal at dump 3 while its writers reroute.
const restBounce = "restart:9@1:2"

// restCrashAll kills every staging rank mid-dump 2, after the dump's
// requests are journaled and its chunks pulled but before any
// reduction; the writers still hold the regions the requests name.
const restCrashAll = "crashall@2"

// restart runs the durability experiment: the same workload without a
// journal, journaling with a checkpoint cadence (measuring the
// overhead), bouncing one staging rank across a two-dump window,
// crashing the whole staging service mid-dump and re-pulling it,
// and bouncing a rank while the flow controller is starved. It
// demonstrates the durability contract: a journaled dump is never
// silently lost — every leg either matches the baseline census
// bit-for-bit or declares its degradation. The journaling share of
// the wall-clock is reported (the journal column, journal_pct in the
// JSON) but not gated: on a ~90 ms leg it moves by several points
// between runs, and the figure to quote is the benchmark ledger's
// wal.journal_share at scale.
func restart(rp *Report) error {
	rp.seeded("Restart — journal, checkpoint and crash-restart recovery")

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

	// Every leg is flight-recorded; a non-empty journal name turns on
	// journaling under walRoot, bufferMB > 0 adds the flow controller.
	shape := func(journal string, checkpointEvery, bufferMB int) predata.PipelineConfig {
		cfg := gtcShape(advCompute, advStaging, advDumps)
		if journal != "" {
			cfg.WALDir = walRoot + "/" + journal
		}
		cfg.CheckpointEvery = checkpointEvery
		cfg.BufferMB = bufferMB
		cfg.Tracer = trace.New(trace.Config{NumCompute: advCompute, NumStaging: advStaging, Dumps: advDumps})
		return cfg
	}
	legs := []leg{
		{name: "no journal", cfg: shape("", 0, 0), perRank: restPerRank},
		{name: "journal clean", cfg: shape("clean", 2, 0), perRank: restPerRank},
		{name: "single restart", cfg: shape("bounce", 0, 0), perRank: restPerRank, plan: restBounce},
		{name: "crashall replay", cfg: shape("crashall", 0, 0), perRank: restPerRank, plan: restCrashAll},
		{name: "restart overloaded", cfg: shape("overload", 0, 1), perRank: restPerRank, plan: restBounce},
	}
	outs, err := runLegs(rp.seed, legs)
	if err != nil {
		return err
	}

	// Goodput, then the journal trajectory (records and bytes appended,
	// wall time inside WAL writes summed across ranks, and that time as a
	// percent of the run's wall — ranks journal concurrently, so the
	// honest overhead figure is the per-rank average), the checkpoint and
	// recovery trajectory, reroutes and spills around the bounce window,
	// and the ledger's close: explicit degradation versus silent loss.
	var rows []row
	for _, o := range outs {
		f := o.res.Fault
		rows = append(rows, row{
			{"name", o.name, "run", "%s"},
			{"wall_ms", o.wall.Milliseconds(), "wall", "%dms"},
			{"goodput_mval_s", o.goodput(), "goodput", "%.2fM"},
			{"wal_records", f.WalRecords, "walRecs", "%d"},
			{"wal_bytes", f.WalBytes, "", ""},
			{"journal_ms", f.JournalWall.Milliseconds(), "", ""},
			{"journal_pct", 100 * f.JournalWall.Seconds() / advStaging / o.wall.Seconds(), "journal", "%.2f%%"},
			{"checkpoints", f.Checkpoints, "ckpts", "%d"},
			{"restarts", f.Restarts, "rstrt", "%d"},
			{"wal_replayed", f.WalReplayed, "rply", "%d"},
			{"rerouted_dumps", f.ReroutedDumps, "rerout", "%d"},
			{"spilled_chunks", o.res.Overload.SpilledChunks, "", ""},
			{"degraded_dumps", f.DegradedDumps, "degr", "%d"},
			{"data_loss", o.loss(), "loss", "%d"},
		})
	}
	rp.section("restart", advParams, rows)

	// The invariants the experiment exists to demonstrate.
	base, clean, bounce, crash, overloaded := outs[0], outs[1], outs[2], outs[3], outs[4]
	if base.loss() != 0 || base.res.Fault.DegradedDumps != 0 {
		return fmt.Errorf("bench: no-journal leg not clean: %v", rows[0])
	}
	// Journaling must be invisible in the results.
	if clean.loss() != 0 || clean.res.Fault.DegradedDumps != 0 {
		return fmt.Errorf("bench: clean journal leg not lossless: %v", rows[1])
	}
	if !slices.Equal(base.census, clean.census) {
		return fmt.Errorf("bench: journaling changed the per-dump census: %v != %v", clean.census, base.census)
	}
	if f := clean.res.Fault; f.WalRecords == 0 || f.WalBytes == 0 {
		return fmt.Errorf("bench: clean journal leg appended nothing: %v", rows[1])
	}
	if got, want := clean.res.Fault.Checkpoints, int64(advStaging*advDumps/2); got != want {
		return fmt.Errorf("bench: clean leg cut %d checkpoints, want %d", got, want)
	}
	// The bounce reroutes its writers and rejoins without losing a value.
	if bounce.loss() != 0 {
		return fmt.Errorf("bench: single restart leg lost %d values across the bounce", bounce.loss())
	}
	if f := bounce.res.Fault; f.Restarts != 1 || f.ReroutedDumps == 0 {
		return fmt.Errorf("bench: single restart leg did not bounce and reroute: %v", rows[2])
	}
	// The whole-service crash replays back bit-identical: no degradation
	// anywhere, every rank rebuilt, the crashed dump's chunks re-pulled.
	if crash.loss() != 0 || crash.res.Fault.DegradedDumps != 0 {
		return fmt.Errorf("bench: crashall leg must replay losslessly: %v", rows[3])
	}
	if !slices.Equal(base.census, crash.census) {
		return fmt.Errorf("bench: crashall replay diverged from the baseline census: %v != %v", crash.census, base.census)
	}
	if got := crash.res.Fault.Restarts; got != int64(advStaging) {
		return fmt.Errorf("bench: crashall rebuilt %d ranks, want %d", got, advStaging)
	}
	if got := crash.res.Fault.WalReplayed; got != int64(advCompute) {
		return fmt.Errorf("bench: crashall re-pulled %d chunks, want %d", got, advCompute)
	}
	// The flight recording must prove it: re-pulls matched by checksum to
	// journaled requests and no chunk reduced by two incarnations.
	rep, err := trace.Verify(legs[3].cfg.Tracer.Snapshot())
	if err != nil {
		return fmt.Errorf("bench: crashall leg failed trace verification: %w", err)
	}
	if rep.Checks[trace.RuleWALReplay] == 0 || rep.Checks[trace.RuleRestartOnce] == 0 {
		return fmt.Errorf("bench: crashall recording ran no WAL/restart checks: %s", rep)
	}
	// Bouncing under a starved flow controller may shed, but only loudly.
	if overloaded.res.Fault.Restarts != 1 {
		return fmt.Errorf("bench: overloaded restart leg did not bounce: %v", rows[4])
	}
	if overloaded.loss() != 0 && overloaded.res.Fault.DegradedDumps == 0 {
		return fmt.Errorf("bench: overloaded restart leg lost %d values silently", overloaded.loss())
	}
	rp.printf("\nbounced ranks rejoin from their journals, a whole-service crash replays back bit-identical — no silent loss anywhere (journaling cost: the journal column here, wal.journal_share in the benchmark ledger)\n")
	return nil
}
