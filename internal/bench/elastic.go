package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"predata/internal/apps/xray"
	"predata/internal/elastic"
	"predata/internal/ffs"
	"predata/internal/flowctl"
	"predata/internal/mpi"
	"predata/internal/ops"
	"predata/internal/predata"
	"predata/internal/staging"
)

// The elastic experiment's detector schedule: one quiet warmup dump, a
// sustained 80x acquisition burst, then a quiet tail. A burst dump is
// ~5x one staging rank's budget, so static-small provisioning can only
// spill, while static-large wastes its extra ranks through the quiet
// stretches — the trade-off the autoscaler resolves.
var elasticFactors = []float64{1, 80, 80, 80, 80, 80, 1, 1, 1, 1}

const (
	elasticCompute    = 8
	elasticPool       = 3 // Max active ranks; the static-large leg's size
	elasticBaseFrames = 200
	elasticBufferMB   = 1
)

// ElasticRun is one leg of the elasticity experiment in BENCH_*.json
// form: provisioning cost (rank-dumps), overflow volume, and latency.
type ElasticRun struct {
	Name         string `json:"name"`
	StagingRanks int    `json:"staging_ranks"` // provisioned pool size
	WallMS       int64  `json:"wall_ms"`
	DumpMeanMS   int64  `json:"dump_mean_ms"`
	DumpMaxMS    int64  `json:"dump_max_ms"`
	SpilledBytes int64  `json:"spilled_bytes"`
	PassedBytes  int64  `json:"passed_bytes"`
	ShedChunks   int64  `json:"shed_chunks"`
	Throttles    int64  `json:"throttles"`
	// RankDumps is the run's rank-hour proxy: the sum of serving rank
	// counts over all dumps (static legs: ranks x dumps).
	RankDumps int64 `json:"rank_dumps"`
	// Autoscaler activity; zero on the static legs.
	Grows     int64 `json:"grows"`
	Shrinks   int64 `json:"shrinks"`
	MinActive int   `json:"min_active"`
	MaxActive int   `json:"max_active"`
	DataLoss  int64 `json:"data_loss"`
}

// ElasticSummary is the JSON document the elastic experiment emits.
type ElasticSummary struct {
	Seed       int64        `json:"seed"`
	BaseFrames int          `json:"base_frames"`
	Factors    []float64    `json:"burst_factors"`
	Runs       []ElasticRun `json:"runs"`
}

// The experiment's consumer is a slow analytics kernel (slowOp, as in the
// overload experiment): elasticMapCost per chunk on a one-worker engine,
// against a budget that holds one burst chunk. A rank serving m burst
// chunks makes the last admission in flight wait min(m-1, PullConcurrency)
// x elasticMapCost, so with the patience between 2x and 4x the cost a
// rank with three writers (the full pool) keeps up, a rank with all eight
// (static-small) must spill, and neither depends on how fast the data
// path in front of the operator happens to be.
const (
	elasticMapCost  = 2 * time.Millisecond
	elasticPatience = 7 * time.Millisecond
)

// elasticCfg is the pipeline shape shared by all three legs: only the
// provisioned staging count varies. Spill and pass limits sit far above
// the workload so the ladder never sheds — every frame flows through
// the histogram and conservation is exact.
func elasticCfg(numStaging int, spillDir string) predata.PipelineConfig {
	return predata.PipelineConfig{
		NumCompute:       elasticCompute,
		NumStaging:       numStaging,
		Dumps:            len(elasticFactors),
		PartialCalculate: ops.MinMaxPartial("frames", []int{xray.AttrEnergy}),
		Aggregate:        ops.MinMaxAggregate(),
		Engine:           staging.Config{Workers: 1},
		PullConcurrency:  4,
		BufferMB:         elasticBufferMB,
		Overload: flowctl.Policy{
			Patience:        elasticPatience,
			SpillDir:        spillDir,
			SpillLimitBytes: 1 << 40,
			PassLimitBytes:  1 << 40,
		},
		Timeout: 2 * time.Minute,
	}
}

// elasticWorkload drives the detector proxy over the experiment's
// shared burst schedule.
func elasticWorkload(seed int64) predata.ComputeFunc {
	return func(comm *mpi.Comm, client *predata.Client) error {
		det, err := xray.New(xray.Config{
			Rank:       comm.Rank(),
			NumRanks:   comm.Size(),
			BaseFrames: elasticBaseFrames,
			Steps:      len(elasticFactors),
			Seed:       seed,
			Schedule:   elasticFactors,
		})
		if err != nil {
			return err
		}
		schema := xray.Schema()
		for step := 0; step < det.Steps(); step++ {
			if _, err := client.Write(schema, ffs.Record{"frames": det.Frames(int64(step))}, int64(step)); err != nil {
				return err
			}
		}
		return nil
	}
}

func elasticOps(dump int) []staging.Operator {
	h, err := ops.NewHistogramOperator(ops.HistogramConfig{
		Var: "frames", Columns: []int{xray.AttrEnergy}, Bins: 64, AggRanges: true,
	})
	if err != nil {
		return nil
	}
	return []staging.Operator{&slowOp{Operator: h, delay: elasticMapCost}}
}

// elasticFramesWant is the conservation figure: every rank follows the
// same explicit schedule, so the total frame count is exact.
func elasticFramesWant() int64 {
	var perRank int64
	for _, f := range elasticFactors {
		perRank += int64(elasticBaseFrames * f)
	}
	return perRank * elasticCompute
}

// elasticFramesGot sums every histogram bin over every dump result. One
// histogrammed column means each frame lands in exactly one bin, so the
// sum equals the frames processed — regardless of which dumps each rank
// served (a dump a rank sat out is an empty placeholder row).
func elasticFramesGot(res *predata.PipelineResult) int64 {
	var total int64
	for _, perDump := range res.StagingResults {
		for _, r := range perDump {
			if r == nil {
				continue
			}
			hists, _ := r.PerOperator["histogram"]["histograms"].(map[int][]int64)
			for _, bins := range hists {
				for _, n := range bins {
					total += n
				}
			}
		}
	}
	return total
}

// elasticRow condenses one leg into its JSON form.
func elasticRow(name string, numStaging int, res *predata.PipelineResult, wall time.Duration, rankDumps int64, scale *predata.ScaleReport) ElasticRun {
	row := ElasticRun{
		Name:         name,
		StagingRanks: numStaging,
		WallMS:       wall.Milliseconds(),
		RankDumps:    rankDumps,
		MinActive:    numStaging,
		MaxActive:    numStaging,
		DataLoss:     elasticFramesWant() - elasticFramesGot(res),
	}
	if ov := res.Overload; ov != nil {
		row.SpilledBytes = ov.SpilledBytes
		row.PassedBytes = ov.PassedBytes
		row.ShedChunks = ov.ShedChunks
		row.Throttles = ov.Throttles
	}
	var sum time.Duration
	var n int64
	var max time.Duration
	for _, perDump := range res.StagingStats {
		for _, st := range perDump {
			if st == nil || st.Parked {
				continue // dump means are over served dumps only
			}
			d := st.GatherWall + st.AggregateWall + st.ProcessWall
			sum += d
			n++
			if d > max {
				max = d
			}
		}
	}
	if n > 0 {
		row.DumpMeanMS = (sum / time.Duration(n)).Milliseconds()
	}
	row.DumpMaxMS = max.Milliseconds()
	if scale != nil {
		row.Grows = scale.Grows
		row.Shrinks = scale.Shrinks
		row.MinActive = scale.MinActive
		row.MaxActive = scale.MaxActive
	}
	return row
}

// Elastic runs the autoscaling experiment: the bursty detector-frame
// workload under three provisioning strategies — a static pool sized
// for the quiet baseline (static-small), a static pool sized for the
// burst (static-large), and the elastic pool that grows into the burst
// and drains back out. The elastic leg must overflow less than
// static-small and consume fewer rank-dumps than static-large, losing
// no frames anywhere. When jsonPath is non-empty the three legs are
// also written there as JSON.
func Elastic(w io.Writer, jsonPath string) error {
	seed := chaosSeed()
	header(w, fmt.Sprintf("Elastic — telemetry-driven staging autoscaling (seed %d)", seed))
	dumps := len(elasticFactors)

	staticLeg := func(name string, numStaging int) (ElasticRun, error) {
		dir, err := os.MkdirTemp("", "predata-elastic-*")
		if err != nil {
			return ElasticRun{}, err
		}
		defer os.RemoveAll(dir)
		start := time.Now()
		res, err := predata.RunPipeline(elasticCfg(numStaging, dir), elasticWorkload(seed), elasticOps)
		if err != nil {
			return ElasticRun{}, fmt.Errorf("bench: %s leg: %w", name, err)
		}
		return elasticRow(name, numStaging, res, time.Since(start),
			int64(numStaging)*int64(dumps), nil), nil
	}

	small, err := staticLeg("static-small", 1)
	if err != nil {
		return err
	}
	large, err := staticLeg("static-large", elasticPool)
	if err != nil {
		return err
	}

	dir, err := os.MkdirTemp("", "predata-elastic-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	start := time.Now()
	res, scale, err := predata.RunElastic(elasticCfg(elasticPool, dir), predata.ElasticConfig{
		Policy: elastic.Policy{Min: 1, Max: elasticPool, GrowK: 1, ShrinkJ: 2, Cooldown: 1},
	}, elasticWorkload(seed), elasticOps)
	if err != nil {
		return fmt.Errorf("bench: elastic leg: %w", err)
	}
	elasticLeg := elasticRow(fmt.Sprintf("elastic 1:%d", elasticPool), elasticPool,
		res, time.Since(start), scale.RankDumps, scale)

	rows := []ElasticRun{small, large, elasticLeg}
	fmt.Fprintf(w, "%-16s %8s %9s %9s %9s %10s %10s %7s %6s %6s\n",
		"run", "wall", "dumpMean", "dumpMax", "spillMB", "rankDumps", "active", "grows", "shrnk", "loss")
	for _, r := range rows {
		fmt.Fprintf(w, "%-16s %6dms %7dms %7dms %9.2f %10d %7s %7d %6d %6d\n",
			r.Name, r.WallMS, r.DumpMeanMS, r.DumpMaxMS,
			float64(r.SpilledBytes+r.PassedBytes)/(1<<20), r.RankDumps,
			fmt.Sprintf("%d..%d", r.MinActive, r.MaxActive), r.Grows, r.Shrinks, r.DataLoss)
	}

	// The invariants the experiment exists to demonstrate.
	for _, r := range rows {
		if r.DataLoss != 0 {
			return fmt.Errorf("bench: %s lost %d frames", r.Name, r.DataLoss)
		}
	}
	overflow := func(r ElasticRun) int64 { return r.SpilledBytes + r.PassedBytes }
	if overflow(elasticLeg) >= overflow(small) {
		return fmt.Errorf("bench: elastic overflow %d B not below static-small %d B",
			overflow(elasticLeg), overflow(small))
	}
	if elasticLeg.RankDumps >= large.RankDumps {
		return fmt.Errorf("bench: elastic rank-dumps %d not below static-large %d",
			elasticLeg.RankDumps, large.RankDumps)
	}
	if elasticLeg.Grows == 0 {
		return fmt.Errorf("bench: elastic leg never grew: %+v", elasticLeg)
	}

	if jsonPath != "" {
		doc, err := json.MarshalIndent(ElasticSummary{
			Seed: seed, BaseFrames: elasticBaseFrames, Factors: elasticFactors, Runs: rows,
		}, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonPath, append(doc, '\n'), 0o644); err != nil {
			return fmt.Errorf("bench: write elastic json: %w", err)
		}
		fmt.Fprintf(w, "\nelastic comparison written to %s\n", jsonPath)
	}
	fmt.Fprintf(w, "\nelastic leg overflows less than static-small and consumes fewer rank-dumps than static-large, with zero frames lost\n")
	return nil
}
