package bench

import (
	"fmt"
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

// elasticOps is the one-column energy histogram behind the modeled slow
// consumer.
func elasticOps() *checkedOps {
	return &checkedOps{mapCost: elasticMapCost, build: func(int) ([]staging.Operator, error) {
		return one(ops.NewHistogramOperator(ops.HistogramConfig{
			Var: "frames", Columns: []int{xray.AttrEnergy}, Bins: 64, AggRanges: true,
		}))
	}}
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

// dumpWalls is the mean and the longest per-rank dump wall-clock over
// the dumps a rank actually served.
func dumpWalls(res *predata.PipelineResult) (mean, longest time.Duration) {
	var sum time.Duration
	var n int64
	for _, perDump := range res.StagingStats {
		for _, st := range perDump {
			if st == nil || st.Parked {
				continue
			}
			d := st.GatherWall + st.AggregateWall + st.ProcessWall
			sum += d
			n++
			longest = max(longest, d)
		}
	}
	if n > 0 {
		mean = sum / time.Duration(n)
	}
	return mean, longest
}

// provisioning is one leg of the elasticity experiment: the outcome of
// the burst schedule on a pool of staging ranks, plus the pool's scaling
// activity (for a static pool: none, every rank serving every dump).
// Its census counts frames: one histogrammed column means each frame
// lands in exactly one bin, whichever dumps each rank served.
type provisioning struct {
	outcome
	pool  int
	scale *predata.ScaleReport
}

// overflow is the volume the flow ladder had to move out of memory.
func (p provisioning) overflow() int64 {
	return p.res.Overload.SpilledBytes + p.res.Overload.PassedBytes
}

// provision runs the burst schedule on a pool of the given size: under
// the autoscaler when policy is non-nil, statically otherwise.
func provision(seed int64, name string, pool int, policy *elastic.Policy) (provisioning, error) {
	p := provisioning{pool: pool}
	dir, err := os.MkdirTemp("", "predata-elastic-*")
	if err != nil {
		return p, err
	}
	defer os.RemoveAll(dir)
	dumps := len(elasticFactors)
	operators := elasticOps()
	var res *predata.PipelineResult
	start := time.Now()
	if policy == nil {
		p.scale = &predata.ScaleReport{RankDumps: int64(pool * dumps), MinActive: pool, MaxActive: pool}
		res, err = predata.RunPipeline(elasticCfg(pool, dir), elasticWorkload(seed), operators.factory)
	} else {
		res, p.scale, err = predata.RunElastic(elasticCfg(pool, dir),
			predata.ElasticConfig{Policy: *policy}, elasticWorkload(seed), operators.factory)
	}
	wall := time.Since(start)
	if err = operators.after(err); err != nil {
		return p, fmt.Errorf("bench: %s leg: %w", name, err)
	}
	p.outcome = outcome{name: name, res: res, wall: wall, census: census(res, dumps), want: elasticFramesWant()}
	return p, nil
}

// elasticity runs the autoscaling experiment: the bursty detector-frame
// workload under three provisioning strategies — a static pool sized
// for the quiet baseline (static-small), a static pool sized for the
// burst (static-large), and the elastic pool that grows into the burst
// and drains back out. The elastic leg must overflow less than
// static-small and consume fewer rank-dumps than static-large, losing
// no frames anywhere.
func elasticity(rp *Report) error {
	rp.seeded("Elastic — telemetry-driven staging autoscaling")

	small, err := provision(rp.seed, "static-small", 1, nil)
	if err != nil {
		return err
	}
	large, err := provision(rp.seed, "static-large", elasticPool, nil)
	if err != nil {
		return err
	}
	el, err := provision(rp.seed, fmt.Sprintf("elastic 1:%d", elasticPool), elasticPool,
		&elastic.Policy{Min: 1, Max: elasticPool, GrowK: 1, ShrinkJ: 2, Cooldown: 1})
	if err != nil {
		return err
	}

	// Provisioning cost (rank_dumps: the run's rank-hour proxy, the sum
	// of serving rank counts over all dumps), overflow volume, latency,
	// and autoscaler activity — zero on the static legs.
	legs := []provisioning{small, large, el}
	var rows []row
	for _, p := range legs {
		ov := p.res.Overload
		mean, longest := dumpWalls(p.res)
		rows = append(rows, row{
			{"name", p.name, "run", "%s"},
			{"staging_ranks", p.pool, "", ""},
			{"wall_ms", p.wall.Milliseconds(), "wall", "%dms"},
			{"dump_mean_ms", mean.Milliseconds(), "dumpMean", "%dms"},
			{"dump_max_ms", longest.Milliseconds(), "dumpMax", "%dms"},
			{"spilled_bytes", ov.SpilledBytes, "", ""},
			{"passed_bytes", ov.PassedBytes, "", ""},
			{"", float64(p.overflow()) / (1 << 20), "spillMB", "%.2f"},
			{"shed_chunks", ov.ShedChunks, "", ""},
			{"throttles", ov.Throttles, "", ""},
			{"rank_dumps", p.scale.RankDumps, "rankDumps", "%d"},
			{"", fmt.Sprintf("%d..%d", p.scale.MinActive, p.scale.MaxActive), "active", "%s"},
			{"grows", p.scale.Grows, "grows", "%d"},
			{"shrinks", p.scale.Shrinks, "shrnk", "%d"},
			{"min_active", p.scale.MinActive, "", ""},
			{"max_active", p.scale.MaxActive, "", ""},
			{"data_loss", p.loss(), "loss", "%d"},
		})
	}
	rp.section("elastic", row{
		{"base_frames", elasticBaseFrames, "", ""},
		{"burst_factors", elasticFactors, "", ""},
	}, rows)

	// The invariants the experiment exists to demonstrate.
	for _, p := range legs {
		if p.loss() != 0 {
			return fmt.Errorf("bench: %s lost %d frames", p.name, p.loss())
		}
	}
	if el.overflow() >= small.overflow() {
		return fmt.Errorf("bench: elastic overflow %d B not below static-small %d B", el.overflow(), small.overflow())
	}
	if el.scale.RankDumps >= large.scale.RankDumps {
		return fmt.Errorf("bench: elastic rank-dumps %d not below static-large %d",
			el.scale.RankDumps, large.scale.RankDumps)
	}
	if el.scale.Grows == 0 {
		return fmt.Errorf("bench: elastic leg never grew: %v", rows[2])
	}
	rp.printf("\nelastic leg overflows less than static-small and consumes fewer rank-dumps than static-large, with zero frames lost\n")
	return nil
}
