// Command predata-run executes a complete PreDatA pipeline — compute
// writers, asynchronous staging, and a chosen set of in-transit
// operators — at a configurable laptop scale, printing per-rank results
// and cost statistics.
//
// Usage:
//
//	predata-run -compute 16 -staging 4 -particles 50000 -dumps 2 -ops sort,hist,hist2d,index
//	predata-run -app pixie3d -compute 8 -staging 2 -local 16 -ops reorg
//	predata-run -app xray -compute 8 -staging 3 -dumps 10 -buffer-mb 1 -elastic 1:3 -scale-policy growk=1,cooldown=1
//	predata-run -compute 8 -staging 3 -dumps 6 -wal-dir /tmp/predata-wal -checkpoint-every 2 -fault-plan 'restart:9@1:2'
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"sync"
	"time"

	"predata/internal/adios"
	"predata/internal/apps/gtc"
	"predata/internal/apps/xray"
	"predata/internal/bp"
	"predata/internal/elastic"
	"predata/internal/faults"
	"predata/internal/ffs"
	"predata/internal/flowctl"
	"predata/internal/mpi"
	"predata/internal/ops"
	"predata/internal/pfs"
	"predata/internal/predata"
	"predata/internal/staging"
	"predata/internal/trace"
)

func main() { os.Exit(cli(os.Args[1:])) }

// cli parses args, runs the chosen configuration under the optional CPU
// profile and returns the exit status: 0, 1 for a failed run, 2 for a bad
// invocation. The profile is stopped and flushed on every path.
func cli(args []string) (code int) {
	flags := flag.NewFlagSet("predata-run", flag.ContinueOnError)
	var (
		mode      = flags.String("mode", "staging", "configuration: staging|incompute")
		adiosCfg  = flags.String("adios-config", "", "ADIOS XML config selecting the method per group (overrides -mode)")
		app       = flags.String("app", "gtc", "workload: gtc|pixie3d|xray")
		compute   = flags.Int("compute", 16, "compute ranks")
		stagingN  = flags.Int("staging", 4, "staging ranks")
		particles = flags.Int("particles", 50000, "particles per compute rank (gtc)")
		local     = flags.Int("local", 16, "local array edge (pixie3d)")
		frames    = flags.Int("frames", 64, "quiet-dump frames per compute rank (xray; bursts scale this 10-100x)")
		dumps     = flags.Int("dumps", 2, "I/O dumps")
		opsFlag   = flags.String("ops", "sort,hist", "operators: sort,hist,hist2d,index,reorg")
		workers   = flags.Int("workers", 2, "map workers per staging rank")
		faultPlan = flags.String("fault-plan", "",
			"fault plan, e.g. 'transient:*:0.1;crash:9@1;degrade:3:0-2:4;corrupt:*:0.1:pull;partition:10|8,9@1-2;dup:*:0.2' (staging mode only)")
		faultSeed = flags.Int64("fault-seed", 1, "seed for the fault plan's probabilistic draws")
		bufferMB  = flags.Int("buffer-mb", -1,
			"staging memory budget in MB (0 disables; -1 takes the ADIOS <buffer size-MB> when -adios-config is given, else 0)")
		spillDir = flags.String("spill-dir", "", "directory for overload spill and pass logs (default: system temp)")
		walDir   = flags.String("wal-dir", "",
			"durable staging: keep per-rank write-ahead journals under this empty or new directory and recover from them on start (required for restart/crashall fault plans; staging mode only)")
		checkpointEvery = flags.Int("checkpoint-every", 0,
			"compact the journals every N dumps behind a dump-boundary checkpoint record (0 disables; requires -wal-dir)")
		tracePath = flags.String("trace", "",
			"flight-record the run and write the trace here (.json: Chrome trace_event; otherwise PDTRACE2 binary; staging mode only)")
		elasticSpec = flags.String("elastic", "",
			"autoscale the active staging pool within \"min:max\" of the provisioned -staging ranks (staging mode only)")
		scalePolicy = flags.String("scale-policy", "",
			"autoscaler tuning as comma-separated k=v pairs: growk, shrinkj, lowutil, cooldown, maxstep (requires -elastic)")
		cpuProfile = flags.String("cpuprofile", "", "write a CPU profile of the run to this file")
	)
	if err := flags.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	for _, f := range []struct {
		name     string
		val, min int
	}{
		{"compute", *compute, 1}, {"staging", *stagingN, 1}, {"particles", *particles, 1},
		{"local", *local, 1}, {"frames", *frames, 1}, {"workers", *workers, 1},
		{"dumps", *dumps, 0}, {"checkpoint-every", *checkpointEvery, 0},
	} {
		if f.val < f.min {
			fmt.Fprintf(os.Stderr, "predata-run: -%s %d must be >= %d\n", f.name, f.val, f.min)
			return 2
		}
	}
	stop, err := trace.StartCPUProfile(*cpuProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "predata-run:", err)
		return 1
	}
	defer func() {
		if err := stop(); err != nil {
			fmt.Fprintln(os.Stderr, "predata-run:", err)
			code = max(code, 1)
		}
	}()

	if *adiosCfg != "" {
		m, cfgBufMB, err := modeFromConfig(*adiosCfg, *app)
		if err != nil {
			fmt.Fprintln(os.Stderr, "predata-run:", err)
			return 1
		}
		*mode = m
		// The XML buffer hint is the budget unless -buffer-mb overrides it.
		if *bufferMB < 0 {
			*bufferMB = cfgBufMB
		}
	}
	if *bufferMB < 0 {
		*bufferMB = 0
	}
	if *mode == "incompute" {
		if *faultPlan != "" {
			fmt.Fprintln(os.Stderr, "predata-run: -fault-plan requires -mode staging")
			return 2
		}
		if *tracePath != "" {
			fmt.Fprintln(os.Stderr, "predata-run: -trace requires -mode staging")
			return 2
		}
		if *elasticSpec != "" {
			fmt.Fprintln(os.Stderr, "predata-run: -elastic requires -mode staging")
			return 2
		}
		if *walDir != "" || *checkpointEvery != 0 {
			fmt.Fprintln(os.Stderr, "predata-run: -wal-dir and -checkpoint-every require -mode staging")
			return 2
		}
		if *app == "xray" {
			fmt.Fprintln(os.Stderr, "predata-run: the xray workload requires -mode staging")
			return 2
		}
		if err := runInCompute(*app, *compute, *particles, *local, *dumps); err != nil {
			fmt.Fprintln(os.Stderr, "predata-run:", err)
			return 1
		}
		return 0
	}
	if *mode != "staging" {
		fmt.Fprintln(os.Stderr, "predata-run: unknown -mode", *mode)
		return 2
	}
	// A journal left by an earlier run names dumps and regions this run's
	// writers never exposed: recovering from it would wait on them.
	if entries, _ := os.ReadDir(*walDir); len(entries) > 0 {
		fmt.Fprintf(os.Stderr, "predata-run: -wal-dir %s holds an earlier run's journal; give an empty or new directory\n", *walDir)
		return 2
	}
	if err := run(*app, *compute, *stagingN, *particles, *local, *frames, *dumps, *workers, *opsFlag, *faultPlan, *faultSeed, *bufferMB, *spillDir, *walDir, *checkpointEvery, *tracePath, *elasticSpec, *scalePolicy); err != nil {
		fmt.Fprintln(os.Stderr, "predata-run:", err)
		return 1
	}
	return 0
}

func run(app string, compute, stagingN, particles, local, frames, dumps, workers int, opsFlag, faultPlan string, faultSeed int64, bufferMB int, spillDir, walDir string, checkpointEvery int, tracePath, elasticSpec, scalePolicy string) error {
	opNames := strings.Split(opsFlag, ",")
	factory, err := operatorFactory(app, opNames)
	if err != nil {
		return err
	}
	if spillDir != "" {
		if err := os.MkdirAll(spillDir, 0o755); err != nil {
			return fmt.Errorf("spill dir: %w", err)
		}
	}
	if checkpointEvery != 0 && walDir == "" {
		return fmt.Errorf("-checkpoint-every requires -wal-dir")
	}
	if walDir != "" {
		if err := os.MkdirAll(walDir, 0o755); err != nil {
			return fmt.Errorf("wal dir: %w", err)
		}
	}
	cfg := predata.PipelineConfig{
		NumCompute:      compute,
		NumStaging:      stagingN,
		Dumps:           dumps,
		Engine:          staging.Config{Workers: workers},
		PullConcurrency: 2,
		BufferMB:        bufferMB,
		Overload:        flowctl.Policy{SpillDir: spillDir},
		WALDir:          walDir,
		CheckpointEvery: checkpointEvery,
	}
	if faultPlan != "" {
		plan, err := faults.ParsePlan(faultPlan, faultSeed)
		if err != nil {
			return err
		}
		cfg.FaultPlan = &plan
	}
	var recorder *trace.Recorder
	if tracePath != "" {
		recorder = trace.New(trace.Config{
			NumCompute: compute,
			NumStaging: stagingN,
			Dumps:      dumps,
		})
		cfg.Tracer = recorder
	}
	// The min/max partial pass operates on 2D particle arrays; the
	// Pixie3D workload ships 3D field chunks instead.
	if cols := partialCols(app); cols != nil {
		cfg.PartialCalculate = ops.MinMaxPartial(varFor(app), cols)
		cfg.Aggregate = ops.MinMaxAggregate()
	}
	wl := workload{app: app, particles: particles, local: local, frames: frames, dumps: dumps, seed: faultSeed}
	start := time.Now()
	var (
		res   *predata.PipelineResult
		scale *predata.ScaleReport
	)
	if elasticSpec != "" {
		pol, err := parseScalePolicy(elasticSpec, scalePolicy)
		if err != nil {
			return err
		}
		res, scale, err = predata.RunElastic(cfg, predata.ElasticConfig{Policy: pol},
			computeFn(wl), factory)
		if err != nil {
			return err
		}
	} else {
		if scalePolicy != "" {
			return fmt.Errorf("-scale-policy requires -elastic")
		}
		res, err = predata.RunPipeline(cfg, computeFn(wl), factory)
		if err != nil {
			return err
		}
	}
	wall := time.Since(start)

	fmt.Printf("pipeline: %d compute + %d staging ranks, %d dumps, wall %v\n",
		compute, stagingN, dumps, wall.Round(time.Millisecond))
	if scale != nil {
		fmt.Printf("elastic: %d decisions (%d grows, %d shrinks, %d holds, %d in cooldown), active %d..%d ranks, final %d, %d rank-dumps\n",
			scale.Decisions, scale.Grows, scale.Shrinks, scale.Holds, scale.CooldownHolds,
			scale.MinActive, scale.MaxActive, scale.FinalActive, scale.RankDumps)
		for _, ep := range scale.Epochs {
			fmt.Printf("elastic: epoch %d from dump %d: %d active (%s)\n",
				ep.Epoch, ep.FirstDump, ep.Active, scaleDirName(ep.Direction))
		}
	}
	if recorder != nil {
		if err := exportTrace(recorder, tracePath); err != nil {
			return err
		}
	}
	if rep := res.Fault; rep != nil {
		fmt.Printf("faults: %d transients injected, %d retries, %d rerouted writes, %d redistributed requests, %d drops, %d degraded dumps",
			rep.InjectedTransients, rep.Retries, rep.ReroutedDumps, rep.Redistributed, rep.Drops, rep.DegradedDumps)
		if rep.Corruptions > 0 || rep.CorruptPulls > 0 {
			fmt.Printf(", %d corruptions (%d CRC-failed pulls, %d shed)",
				rep.Corruptions, rep.CorruptPulls, rep.CorruptDrops)
		}
		if rep.FencedDumps > 0 || rep.Heals > 0 {
			fmt.Printf(", %d unreachable ops, %d fenced dumps, %d heals",
				rep.Unreachables, rep.FencedDumps, rep.Heals)
		}
		if rep.Duplicates > 0 {
			fmt.Printf(", %d duplicated ctl messages (%d absorbed)", rep.Duplicates, rep.DupDrops)
		}
		if rep.WalRecords > 0 || rep.Restarts > 0 {
			fmt.Printf(", %d WAL records (%.1f MB, %v journaling), %d checkpoints, %d restarts (%d chunks re-pulled)",
				rep.WalRecords, float64(rep.WalBytes)/1e6, rep.JournalWall.Round(time.Microsecond),
				rep.Checkpoints, rep.Restarts, rep.WalReplayed)
		}
		if len(rep.CrashedStaging) > 0 {
			fmt.Printf(", crashed staging %v, recovery %v",
				rep.CrashedStaging, rep.RecoveryWall.Round(time.Microsecond))
		}
		fmt.Println()
	}
	if ov := res.Overload; ov != nil {
		fmt.Printf("overload: budget %.0f MB/rank, %d throttles (%v waiting), %d chunks spilled (%.1f MB, %d replayed), %d shed, %d passed raw, peak %.1f MB, max level %s\n",
			float64(ov.BudgetBytes)/(1<<20), ov.Throttles, ov.ThrottleWait.Round(time.Millisecond),
			ov.SpilledChunks, float64(ov.SpilledBytes)/(1<<20), ov.ReplayedChunks,
			ov.ShedChunks, ov.PassedChunks, float64(ov.PeakBytes)/(1<<20), flowctl.LevelName(ov.MaxLevel))
	}
	for rank, perDump := range res.StagingStats {
		for dump, st := range perDump {
			// Rows are dump-indexed on every rank; a dump the rank sat out
			// is a placeholder, named for why.
			if why := satOut(st); why != "" {
				fmt.Printf("staging rank %d dump %d: %s\n", rank, dump, why)
				continue
			}
			fmt.Printf("staging rank %d dump %d: %d requests, %.1f MB pulled, modeled pull %v, process wall %v\n",
				rank, dump, st.Requests, float64(st.BytesPulled)/1e6,
				st.PullModeled.Round(time.Millisecond), st.ProcessWall.Round(time.Millisecond))
		}
	}
	for rank, perDump := range res.StagingResults {
		for dump, r := range perDump {
			for opName, outs := range r.PerOperator {
				fmt.Printf("staging rank %d dump %d %s:", rank, dump, opName)
				for k, v := range outs {
					switch val := v.(type) {
					case int64, float64, string:
						fmt.Printf(" %s=%v", k, val)
					case map[int][]int64:
						fmt.Printf(" %s=%d-histograms", k, len(val))
					default:
						fmt.Printf(" %s=<%T>", k, v)
					}
				}
				fmt.Println()
			}
		}
	}
	return nil
}

// satOut names why a staging rank recorded a placeholder for a dump, or
// returns "" for a dump it served.
func satOut(st *predata.DumpStats) string {
	switch {
	case st.Parked:
		return "parked (outside the elastic active set)"
	case st.Fenced:
		return "fenced (no staging quorum)"
	case st.Down:
		return "down (restart window)"
	}
	return ""
}

// exportTrace snapshots the flight recorder, checks the recording against
// the runtime invariants, and writes it to path — Chrome trace_event JSON
// for a .json suffix, PDTRACE2 binary otherwise.
func exportTrace(recorder *trace.Recorder, path string) error {
	rec := recorder.Snapshot()
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	if strings.HasSuffix(path, ".json") {
		err = trace.WriteChrome(f, rec)
	} else {
		err = trace.WriteBinary(f, rec)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("trace: writing %s: %w", path, err)
	}
	rep, verr := trace.Verify(rec)
	if verr != nil {
		fmt.Printf("trace: %d events -> %s; verify FAILED:\n", len(rec.Events), path)
		for _, v := range rep.Violations {
			fmt.Printf("trace:   %s\n", v)
		}
		return fmt.Errorf("trace: verification failed with %d violations", len(rep.Violations))
	}
	fmt.Printf("trace: %s (dropped %d); verified %s\n", path, rec.Dropped, rep)
	return nil
}

// varFor names the app's one output variable.
func varFor(app string) string { return workload{app: app}.schema().Fields[0].Name }

func partialCols(app string) []int {
	switch app {
	case "pixie3d":
		return nil
	case "xray":
		return []int{xray.AttrEnergy, xray.AttrX, xray.AttrY}
	}
	return []int{gtc.AttrZeta, gtc.AttrRadial, gtc.AttrRank}
}

// parseScalePolicy builds the autoscaler policy from the -elastic
// "min:max" bounds and the optional -scale-policy k=v tuning pairs.
func parseScalePolicy(spec, tuning string) (elastic.Policy, error) {
	var pol elastic.Policy
	if n, err := fmt.Sscanf(spec, "%d:%d", &pol.Min, &pol.Max); n != 2 || err != nil {
		return pol, fmt.Errorf("bad -elastic %q (want min:max, e.g. 1:4)", spec)
	}
	if tuning != "" {
		for _, pair := range strings.Split(tuning, ",") {
			k, v, ok := strings.Cut(strings.TrimSpace(pair), "=")
			if !ok {
				return pol, fmt.Errorf("bad -scale-policy entry %q (want k=v)", pair)
			}
			var err error
			switch strings.ToLower(k) {
			case "growk":
				_, err = fmt.Sscanf(v, "%d", &pol.GrowK)
			case "shrinkj":
				_, err = fmt.Sscanf(v, "%d", &pol.ShrinkJ)
			case "lowutil":
				_, err = fmt.Sscanf(v, "%g", &pol.LowUtil)
			case "cooldown":
				_, err = fmt.Sscanf(v, "%d", &pol.Cooldown)
			case "maxstep":
				_, err = fmt.Sscanf(v, "%d", &pol.MaxStep)
			default:
				return pol, fmt.Errorf("unknown -scale-policy key %q (want growk|shrinkj|lowutil|cooldown|maxstep)", k)
			}
			if err != nil {
				return pol, fmt.Errorf("bad -scale-policy value %q for %s: %v", v, k, err)
			}
		}
	}
	return pol, pol.Validate()
}

func scaleDirName(dir int) string {
	switch {
	case dir > 0:
		return "grow"
	case dir < 0:
		return "shrink"
	}
	return "hold"
}

// workload is one compute rank's application: the app and the sizes of
// its dumps. Both modes run it, each through its own adios.Writer.
type workload struct {
	app                      string
	particles, local, frames int
	dumps                    int
	seed                     int64
}

// schema is the app's ADIOS output group.
func (wl workload) schema() *ffs.Schema {
	switch wl.app {
	case "pixie3d":
		return &ffs.Schema{Name: "pixie", Fields: []ffs.Field{{Name: "rho", Kind: ffs.KindArray}}}
	case "xray":
		return xray.Schema()
	}
	return gtc.ParticleSchema
}

// arrays returns what rank writes at each dump: the generated particles,
// one 1-D slab of a global array for the reorg operator to merge, or
// the detector's frames.
func (wl workload) arrays(rank, size int) (func(step int) *ffs.Array, error) {
	switch wl.app {
	case "xray":
		det, err := xray.New(xray.Config{
			Rank: rank, NumRanks: size, BaseFrames: wl.frames, Steps: wl.dumps, Seed: wl.seed,
		})
		if err != nil {
			return nil, err
		}
		return func(step int) *ffs.Array { return det.Frames(int64(step)) }, nil
	case "pixie3d":
		n := uint64(wl.local * wl.local * wl.local)
		return func(int) *ffs.Array {
			data := make([]float64, n)
			for i := range data {
				data[i] = float64(rank)*1000 + float64(i)
			}
			return &ffs.Array{
				Dims: []uint64{n}, Global: []uint64{n * uint64(size)},
				Offsets: []uint64{n * uint64(rank)}, Float64: data,
			}
		}, nil
	}
	return func(step int) *ffs.Array { return gtc.GenParticles(rank, wl.particles, int64(step)) }, nil
}

// write writes rank's dumps through w, one step each, and returns their
// summed cost.
func (wl workload) write(w adios.Writer, rank, size int) (adios.StepResult, error) {
	var total adios.StepResult
	array, err := wl.arrays(rank, size)
	if err != nil {
		return total, err
	}
	v := varFor(wl.app)
	for step := 0; step < wl.dumps; step++ {
		if err := w.BeginStep(int64(step)); err != nil {
			return total, err
		}
		if err := w.Write(v, array(step)); err != nil {
			return total, err
		}
		sr, err := w.EndStep()
		if err != nil {
			return total, err
		}
		total.Modeled += sr.Modeled
		total.Bytes += sr.Bytes
	}
	return total, nil
}

// computeFn is the staging mode's per-rank driver: the workload written
// through the PreDatA client.
func computeFn(wl workload) predata.ComputeFunc {
	return func(comm *mpi.Comm, client *predata.Client) error {
		w, err := adios.NewStagingWriter(client, wl.schema())
		if err != nil {
			return err
		}
		_, err = wl.write(w, comm.Rank(), comm.Size())
		return err
	}
}

// operatorFactory builds the per-dump operator list.
func operatorFactory(app string, names []string) (predata.OperatorFactory, error) {
	// Validate eagerly so flag typos fail before the pipeline launches.
	for _, n := range names {
		switch strings.TrimSpace(n) {
		case "sort", "hist", "hist2d", "index", "reorg", "":
		default:
			return nil, fmt.Errorf("unknown operator %q (want sort|hist|hist2d|index|reorg)", n)
		}
	}
	// Column choices per workload: the GTC particle attributes, or the
	// detector-frame attributes of the xray proxy.
	v := varFor(app)
	keyMajor, keyMinor := gtc.AttrRank, gtc.AttrLocalID
	histCols := []int{gtc.AttrZeta, gtc.AttrRadial, gtc.AttrWeight}
	pairCols := [][2]int{{gtc.AttrZeta, gtc.AttrRadial}}
	indexCols := []int{gtc.AttrZeta, gtc.AttrRadial}
	if app == "xray" {
		keyMajor, keyMinor = xray.AttrEnergy, xray.AttrFrameID
		histCols = []int{xray.AttrEnergy, xray.AttrIntensity}
		pairCols = [][2]int{{xray.AttrX, xray.AttrY}}
		indexCols = []int{xray.AttrEnergy}
	}
	return func(dump int) []staging.Operator {
		var out []staging.Operator
		for _, n := range names {
			switch strings.TrimSpace(n) {
			case "sort":
				op, err := ops.NewSortOperator(ops.SortConfig{
					Var: v, KeyMajor: keyMajor, KeyMinor: keyMinor, AggFromColumn: true,
				})
				if err == nil {
					out = append(out, op)
				}
			case "hist":
				op, err := ops.NewHistogramOperator(ops.HistogramConfig{
					Var: v, Columns: histCols,
					Bins: 64, AggRanges: true,
				})
				if err == nil {
					out = append(out, op)
				}
			case "hist2d":
				op, err := ops.NewHistogram2DOperator(ops.Histogram2DConfig{
					Var: v, Pairs: pairCols,
					Bins: 32, AggRanges: true,
				})
				if err == nil {
					out = append(out, op)
				}
			case "index":
				op, err := ops.NewBitmapIndexOperator(ops.BitmapIndexConfig{
					Var: v, Columns: indexCols,
					Bins: 32, AggRanges: true,
				})
				if err == nil {
					out = append(out, op)
				}
			case "reorg":
				op, err := ops.NewReorgOperator(ops.ReorgConfig{Vars: []string{varFor(app)}})
				if err == nil {
					out = append(out, op)
				}
			}
		}
		return out
	}, nil
}

// modeFromConfig reads an ADIOS XML configuration and returns the run
// mode and buffer budget for the application's output group — the
// paper's "switch configurations without changing application code"
// workflow. The gtc workload uses group "particles"; pixie3d uses group
// "pixie".
func modeFromConfig(path, app string) (string, int, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", 0, err
	}
	defer f.Close()
	cfg, err := adios.ParseConfig(f)
	if err != nil {
		return "", 0, err
	}
	group := "particles"
	if app == "pixie3d" {
		group = "pixie"
	}
	gc, err := cfg.Group(group)
	if err != nil {
		return "", 0, err
	}
	if gc.Schema.FieldIndex(varFor(app)) < 0 {
		return "", 0, fmt.Errorf("config group %q does not declare variable %q", group, varFor(app))
	}
	switch gc.Method {
	case adios.MethodStaging:
		return "staging", cfg.BufferMB, nil
	case adios.MethodMPIIO:
		return "incompute", cfg.BufferMB, nil
	default:
		return "", 0, fmt.Errorf("config method %v unsupported by predata-run", gc.Method)
	}
}

// runInCompute executes the paper's In-Compute-Node configuration: every
// rank writes its dumps synchronously into one shared BP file on the
// modeled parallel file system, and the visible write cost is reported —
// the baseline the staging configuration is compared against.
func runInCompute(app string, compute, particles, local, dumps int) error {
	fs, err := pfs.New(pfs.DefaultConfig())
	if err != nil {
		return err
	}
	bw, err := bp.CreateWriter(fs, "incompute.bp", 8)
	if err != nil {
		return err
	}
	wl := workload{app: app, particles: particles, local: local, dumps: dumps}
	var (
		mu    sync.Mutex
		total adios.StepResult
	)
	err = mpi.Run(compute, func(comm *mpi.Comm) error {
		w, err := adios.NewMPIIOWriter(bw, comm.Rank(), comm.Rank() == 0)
		if err != nil {
			return err
		}
		sr, err := wl.write(w, comm.Rank(), comm.Size())
		if err != nil {
			return err
		}
		mu.Lock()
		total.Modeled += sr.Modeled
		total.Bytes += sr.Bytes
		mu.Unlock()
		if err := comm.Barrier(); err != nil {
			return err
		}
		return w.Close()
	})
	if err != nil {
		return err
	}
	var mean time.Duration
	if dumps > 0 {
		mean = total.Modeled / time.Duration(compute*dumps)
	}
	fmt.Printf("in-compute-node: %d ranks x %d dumps, %.1f MB total, mean visible write %v/rank/dump (modeled synchronous)\n",
		compute, dumps, float64(total.Bytes)/1e6, mean.Round(time.Microsecond))
	r, err := bp.OpenReader(fs, "incompute.bp")
	if err != nil {
		return err
	}
	for _, vi := range r.Vars() {
		fmt.Printf("  %s step %d: %d chunks (unmerged layout)\n", vi.Name, vi.Timestep, vi.Chunks)
	}
	return nil
}
