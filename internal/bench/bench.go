// Package bench regenerates every table and figure of the paper's
// evaluation (Section V) and the design-choice ablations. The figures
// combine two sources:
//
//   - the calibrated performance model (package model) at the paper's
//     scales, 512-16,384 cores, reproducing the figures' shapes; and
//   - functional mini-runs of the real implementation (packages predata,
//     staging, ops, bp, pfs) at laptop scale, demonstrating that the
//     actual code paths produce the same qualitative behavior.
//
// Every functional run of the GTC mini-workload is a leg (leg.go): a
// PipelineConfig and the operators to run, whose one run method returns
// the runtime's PipelineResult and the wall time. Every functional run of
// a proxy application under both configurations is a placement
// (placement.go): one per-rank body, Step then WriteOutput, under
// adios.MPIIOWriter and again under adios.StagingWriter. Experiments
// (report.go) lists the entry points cmd/predata-bench walks. The
// runtime's loss/replay/verify invariants are not checked here: each is a
// test in the package that owns it (EXPERIMENTS.md lists them), and
// performance numbers of record come from the repository benchmark (go
// run ./benchmark).
package bench

import (
	"fmt"
	"time"

	"predata/internal/apps/gtc"
	"predata/internal/dataspaces"
	"predata/internal/model"
	"predata/internal/ops"
	"predata/internal/queryapp"
	"predata/internal/staging"
)

// fig7 regenerates the per-operation timing figure for one operator
// ("sort", "hist", "hist2d") or all three.
func fig7(rp *Report, op string) error {
	m := model.Jaguar()
	runOne := func(name string, f func(int) model.OpPlacementTime) {
		rp.header(fmt.Sprintf("Fig. 7 — %s operation (In-Compute-Node vs Staging)", name))
		rp.printf("%8s %14s %14s %14s %14s\n",
			"cores", "IC wall (s)", "IC visible (s)", "ST wall (s)", "ST latency (s)")
		for _, cores := range model.GTCScales {
			r := f(cores)
			rp.printf("%8d %14.2f %14.2f %14.2f %14.2f\n",
				cores, r.InComputeWall, r.InComputeVisible, r.StagingWall, r.StagingLatency)
		}
	}
	switch op {
	case "sort":
		runOne("sorting", m.GTCSort)
	case "hist":
		runOne("histogram", m.GTCHistogram)
	case "hist2d":
		runOne("2D histogram", m.GTCHistogram2D)
	case "", "all":
		runOne("sorting", m.GTCSort)
		runOne("histogram", m.GTCHistogram)
		runOne("2D histogram", m.GTCHistogram2D)
	default:
		return fmt.Errorf("bench: unknown fig7 operator %q (want sort|hist|hist2d|all)", op)
	}
	return fig7Functional(rp)
}

// fig7Functional runs the three operators through the real pipeline at
// laptop scale and reports measured wall times, demonstrating the same
// streaming path the model scales up.
func fig7Functional(rp *Report) error {
	rp.header("Fig. 7 — functional mini-run (real pipeline, 8 writers x 20k particles, 2 staging ranks)")
	minis := []leg{
		{name: "sort", ops: func(int) ([]staging.Operator, error) {
			return one(ops.NewSortOperator(ops.SortConfig{
				Var: "p", KeyMajor: gtc.AttrRank, KeyMinor: gtc.AttrLocalID, AggFromColumn: true,
			}))
		}},
		{name: "hist", ops: func(int) ([]staging.Operator, error) {
			return one(ops.NewHistogramOperator(ops.HistogramConfig{
				Var: "p", Columns: []int{gtc.AttrZeta, gtc.AttrRadial, gtc.AttrWeight}, Bins: 64, AggRanges: true,
			}))
		}},
		{name: "hist2d", ops: func(int) ([]staging.Operator, error) {
			return one(ops.NewHistogram2DOperator(ops.Histogram2DConfig{
				Var: "p", Pairs: [][2]int{{gtc.AttrZeta, gtc.AttrRadial}}, Bins: 32, AggRanges: true,
			}))
		}},
	}
	for _, mn := range minis {
		mn.cfg, mn.perRank = gtcShape(8, 2, 1), 20000
		res, wall, err := mn.run()
		if err != nil {
			return err
		}
		var mapT, shuffleT, reduceT time.Duration
		for _, r := range res.StagingResults {
			mapT += r[0].Breakdown.Get("map")
			shuffleT += r[0].Breakdown.Get("shuffle")
			reduceT += r[0].Breakdown.Get("reduce")
		}
		rp.printf("%8s wall=%8v map=%8v shuffle=%8v reduce=%8v\n",
			mn.name, wall.Round(time.Millisecond), mapT.Round(time.Millisecond),
			shuffleT.Round(time.Millisecond), reduceT.Round(time.Millisecond))
	}
	return nil
}

// fig8 regenerates the GTC simulation-performance figure: total time,
// breakdown, improvement, and CPU savings per scale.
func fig8(rp *Report) error {
	m := model.Jaguar()
	rp.header("Fig. 8(a) — GTC improvement and CPU saving (Staging vs In-Compute-Node)")
	rp.printf("%8s %14s %18s\n", "cores", "improvement %", "CPU saving (core-h)")
	for _, cores := range model.GTCScales {
		r := m.GTCRun(cores)
		rp.printf("%8d %14.2f %18.1f\n", cores, r.ImprovementPct, r.CPUSavingHours)
	}
	rp.header("Fig. 8(b) — GTC total execution time breakdown (seconds, 30-minute run)")
	rp.printf("%8s | %10s %10s %10s %10s | %10s %10s %10s\n",
		"cores", "IC main", "IC write", "IC ops", "IC total", "ST main", "ST I/O", "ST total")
	for _, cores := range model.GTCScales {
		r := m.GTCRun(cores)
		rp.printf("%8d | %10.1f %10.1f %10.1f %10.1f | %10.1f %10.1f %10.1f\n",
			cores,
			r.InCompute.MainLoop, r.InCompute.IOBlocking, r.InCompute.Operations, r.InCompute.Total,
			r.Staging.MainLoop, r.Staging.IOBlocking, r.Staging.Total)
	}
	r := m.GTCRun(16384)
	rp.printf("\nheadlines at 16,384 cores: visible write %.2fs/dump (paper: 8.6s) -> %.2fs/dump staged (paper: 0.30s); improvement %.1f%% (paper: 2.7%%); CPU saving %.0f core-h (paper: 98)\n",
		r.InCompute.IOBlocking/float64(r.Dumps), r.Staging.IOBlocking/float64(r.Dumps),
		r.ImprovementPct, r.CPUSavingHours)
	return fig8Functional(rp)
}

// fig8Functional runs the GTC proxy under both configurations with the
// real implementation at laptop scale and compares the per-dump I/O
// blocking each one exposes to the simulation.
func fig8Functional(rp *Report) error {
	rp.header("Fig. 8 — functional mini-run (GTC proxy, 8 ranks x 2 steps, both configurations)")
	ic, st, err := gtcPlacements(8, 2, 10000)
	if err != nil {
		return err
	}
	rp.printf("In-Compute-Node: mean visible I/O %v/dump (modeled synchronous shared-file write)\n",
		ic.Round(time.Microsecond))
	rp.printf("Staging:         mean visible I/O %v/dump (pack + fetch-request dispatch)\n",
		st.Round(time.Microsecond))
	if st > 0 {
		rp.printf("latency hiding: %.0fx\n", float64(ic)/float64(st))
	}
	return nil
}

// offline regenerates the Section V-B.3 comparison: offline operations
// applied after data reaches disk vs PreDatA's in-transit operations.
func offline(rp *Report) error {
	m := model.Jaguar()
	rp.header("Section V-B.3 — offline operation vs in-transit PreDatA (GTC sort)")
	rp.printf("%8s %10s %14s %12s %14s %14s %10s\n",
		"cores", "dump (GB)", "extra storage", "disk trips", "offline (s)", "in-transit (s)", "monitoring")
	scales := append(append([]int(nil), model.GTCScales...), 65536)
	for _, cores := range scales {
		r := m.GTCOffline(cores)
		fits := "yes"
		if !r.FitsMonitoring {
			fits = "NO"
		}
		rp.printf("%8d %10.1f %13.1fG %12d %14.1f %14.1f %10s\n",
			cores, r.DumpBytes/1e9, r.ExtraStorageBytes/1e9, r.DiskTripsSort,
			r.SortLatency, r.InTransitSortLatency, fits)
	}
	rp.printf("\nat 65,536 cores the dump is ~1 TB: offline sorting consumes 1 TB extra storage every 120 s, moves the data through the disk controllers three times, and its latency breaks the online-monitoring use case (paper, Section V-B.3)\n")
	return nil
}

// fig9 regenerates the DataSpaces setup/hashing/query figure.
func fig9(rp *Report) error {
	m := model.Jaguar()
	rp.header("Fig. 9 — DataSpaces setup, hashing and query time")
	rp.printf("%12s %10s %10s %10s %10s %10s %12s\n",
		"query cores", "fetch (s)", "sort (s)", "index (s)", "setup (s)", "query (s)", "11 queries")
	for _, q := range model.DSQueryCores {
		r := m.DataSpaces(q)
		rp.printf("%12d %10.1f %10.1f %10.2f %10.1f %10.2f %12.1f\n",
			q, r.FetchSeconds, r.SortSeconds, r.IndexSeconds,
			r.SetupSeconds, r.QuerySeconds, r.TotalQuerySeconds)
	}
	r := m.DataSpaces(64)
	rp.printf("\nheadlines: fetch %.1fs (paper: 20.3s), sort %.1fs (paper: 30.6s), index %.2fs (paper: 2.08s); preparation <= 55s and querying <= 80s within the 120s I/O interval\n",
		r.FetchSeconds, r.SortSeconds, r.IndexSeconds)
	return fig9Functional(rp)
}

// fig9Functional stages and sorts particles with the real pipeline,
// inserts them into a real DataSpaces space indexed on (local id, writer
// rank), and runs the Fig. 9 query pattern: disjoint sub-region gets from
// several querying "cores", with per-server query distribution reported.
func fig9Functional(rp *Report) error {
	rp.header("Fig. 9 — functional mini-run (real space: stage -> sort -> index -> query)")
	const (
		numCompute = 8
		numStaging = 2
		perRank    = 4000
		queryCores = 4
	)
	space, err := dataspaces.New(dataspaces.Config{
		Servers: numStaging,
		Domain:  dataspaces.Domain{Dims: []uint64{perRank, numCompute}},
	})
	if err != nil {
		return err
	}
	start := time.Now()
	res, _, err := leg{
		name: "stage+sort+index", cfg: gtcShape(numCompute, numStaging, 1), perRank: perRank,
		ops: func(int) ([]staging.Operator, error) {
			return one(ops.NewDataSpacesOperator(ops.DataSpacesConfig{
				Var: "p", Space: space, Object: "weight",
				ValueCol: gtc.AttrWeight, IDCol: gtc.AttrLocalID, RankCol: gtc.AttrRank,
			}))
		},
	}.run()
	if err != nil {
		return err
	}
	var inserted int64
	for rank := 0; rank < numStaging; rank++ {
		n, _ := res.StagingResults[rank][0].PerOperator["dataspaces"]["inserted"].(int64)
		inserted += n
	}
	indexWall := time.Since(start)

	qres, err := queryapp.Run(queryapp.Config{
		Query: space.Get, Object: "weight", Version: 0,
		Domain: []uint64{perRank, numCompute},
		Cores:  queryCores, Queries: 11,
	})
	if err != nil {
		return err
	}
	st := space.Stats()
	rp.printf("staged + indexed %d particles in %v; %d querying cores x 11 queries retrieved %d cells in %.3fs (setup %.4fs, per-query %.4fs)\n",
		inserted, indexWall.Round(time.Millisecond), queryCores, qres.Cells,
		qres.TotalSeconds, qres.SetupSeconds, qres.QuerySeconds)
	rp.printf("query distribution across %d servers: %v block lookups\n",
		space.Servers(), st.QueriesPerServer)
	return nil
}

// fig10 regenerates the Pixie3D simulation-performance figure.
func fig10(rp *Report) error {
	m := model.JaguarXT4()
	rp.header("Fig. 10 — Pixie3D simulation performance (XT4, 128:1 staging ratio)")
	rp.printf("%8s | %10s %10s | %10s %10s | %12s %10s\n",
		"cores", "IC write", "IC total", "ST visible", "ST total", "slowdown %", "CPU ratio")
	for _, cores := range model.PixieScales {
		r := m.PixieRun(cores)
		rp.printf("%8d | %10.2f %10.1f | %10.2f %10.1f | %12.3f %10.4f\n",
			cores,
			r.InCompute.IOBlocking/float64(r.Dumps), r.InCompute.Total,
			r.Staging.IOBlocking/float64(r.Dumps), r.Staging.Total,
			r.SlowdownPct, r.CPURatio)
	}
	rp.printf("\nheadlines: staging slows Pixie3D by 0.01%%-0.7%% (paper: same band) and the CPU-cost gap narrows with scale\n")
	return fig10Functional(rp)
}

// fig10Functional prints the real-implementation Pixie3D comparison.
func fig10Functional(rp *Report) error {
	rp.header("Fig. 10 — functional mini-run (Pixie3D proxy, 2x2x2 grid, both configurations)")
	r, err := pixiePlacements([3]int{2, 2, 2}, 8, 2)
	if err != nil {
		return err
	}
	rp.printf("In-Compute-Node: mean visible I/O %v/dump (synchronous unmerged write)\n",
		r.inCompute.Round(time.Microsecond))
	rp.printf("Staging:         mean visible I/O %v/dump (pack only; reorg hidden in staging)\n",
		r.staged.Round(time.Microsecond))
	rp.printf("merged-layout read gain: %.1fx\n", float64(r.unmergedRead)/float64(r.mergedRead))
	return nil
}

// fig11 regenerates the merged-vs-unmerged read comparison, from both the
// calibrated model at the paper's 4,096-core scale and a functional
// Pixie3D run whose staging side merges the file through the real reorg
// operator.
func fig11(rp *Report) error {
	m := model.JaguarXT4()
	rp.header("Fig. 11 — read time of one global array: merged vs unmerged BP files")
	rp.printf("%8s %12s %12s %14s %10s\n",
		"cores", "merged (s)", "unmerged (s)", "extents", "speedup")
	for _, cores := range model.PixieScales {
		r := m.PixieRead(cores)
		rp.printf("%8d %12.2f %12.2f %14d %9.1fx\n",
			cores, r.MergedSeconds, r.UnmergedRead, r.UnmergedChunks, r.Speedup)
	}

	const local = 16
	r, err := pixiePlacements([3]int{4, 4, 4}, local, 1)
	if err != nil {
		return err
	}
	rp.header("Fig. 11 — functional mini-run (real BP files on the modeled file system)")
	rp.printf("64 writers, %d^3 local arrays: unmerged %v (%d extents) vs merged %v -> %.1fx\n",
		local, r.unmergedRead.Round(time.Millisecond), r.extents, r.mergedRead.Round(time.Millisecond),
		float64(r.unmergedRead)/float64(r.mergedRead))
	return nil
}
