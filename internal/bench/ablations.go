package bench

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"predata/internal/apps/gtc"
	"predata/internal/bitmap"
	"predata/internal/model"
	"predata/internal/ops"
	"predata/internal/staging"
)

// ablations runs the five design-choice ablations in order.
func ablations(rp *Report) error {
	for _, f := range []func(*Report) error{
		ablationScheduling, ablationCombine, ablationRatio, ablationFunctionalScaling, ablationBitmap,
	} {
		if err := f(rp); err != nil {
			return err
		}
	}
	return nil
}

// ablationScheduling quantifies the value of scheduling asynchronous data
// movement around the simulation's collective phases (Section IV-A): the
// model compares scheduled vs unscheduled GTC runs at every scale.
func ablationScheduling(rp *Report) error {
	m := model.Jaguar()
	rp.header("Ablation — scheduled vs unscheduled asynchronous data movement (GTC)")
	rp.printf("%8s %22s %22s\n", "cores", "scheduled improvement", "unscheduled improvement")
	for _, cores := range model.GTCScales {
		s := m.GTCRun(cores)
		u := m.GTCRunUnscheduled(cores)
		rp.printf("%8d %21.2f%% %21.2f%%\n", cores, s.ImprovementPct, u.ImprovementPct)
	}
	rp.printf("\nwithout scheduling, transfer interference erases the staging benefit at scale\n")
	return nil
}

// countingHist wraps the histogram operator to count the intermediate
// values that cross the shuffle — the quantity the combiner collapses.
type countingHist struct {
	*ops.HistogramOperator
	mu       sync.Mutex
	shuffled int
	combine  bool
}

func (c *countingHist) Reduce(ctx *staging.Context, tag int, values [][]int64) error {
	c.mu.Lock()
	c.shuffled += len(values)
	c.mu.Unlock()
	return c.HistogramOperator.Reduce(ctx, tag, values)
}

// Combine forwards to the histogram combiner only when enabled.
func (c *countingHist) Combine(tag int, values [][]int64) ([][]int64, error) {
	if !c.combine {
		return values, nil
	}
	return c.HistogramOperator.Combine(tag, values)
}

// ablationCombine measures the shuffle-volume effect of the compute-side
// Combine pass with the real pipeline: the same workload with the
// combiner on and off.
func ablationCombine(rp *Report) error {
	rp.header("Ablation — combiner on/off (real pipeline, shuffle volume)")
	run := func(enabled bool) (int, time.Duration, error) {
		// Every (rank, dump) operator instance is kept so the values it
		// saw cross the shuffle can be summed once the run is over.
		var mu sync.Mutex
		var hists []*countingHist
		_, wall, err := leg{
			name: "combiner", cfg: gtcShape(8, 2, 1), perRank: 10000,
			ops: func(int) ([]staging.Operator, error) {
				h, err := ops.NewHistogramOperator(ops.HistogramConfig{
					Var: "p", Columns: []int{gtc.AttrZeta, gtc.AttrRadial, gtc.AttrWeight, gtc.AttrVPar}, Bins: 128,
					AggRanges: true,
				})
				if err != nil {
					return nil, err
				}
				c := &countingHist{HistogramOperator: h, combine: enabled}
				mu.Lock()
				hists = append(hists, c)
				mu.Unlock()
				return []staging.Operator{c}, nil
			},
		}.run()
		var total int
		for _, c := range hists {
			total += c.shuffled
		}
		return total, wall, err
	}
	withC, wallC, err := run(true)
	if err != nil {
		return err
	}
	without, wallN, err := run(false)
	if err != nil {
		return err
	}
	rp.printf("combiner on : %6d values shuffled (wall %v)\n", withC, wallC.Round(time.Millisecond))
	rp.printf("combiner off: %6d values shuffled (wall %v)\n", without, wallN.Round(time.Millisecond))
	if withC > 0 {
		rp.printf("shuffle-volume reduction: %.1fx\n", float64(without)/float64(withC))
	}
	return nil
}

// ablationRatio sweeps the compute:staging core ratio: the tradeoff the
// paper's future-work section wants performance models for. Larger ratios
// cost less but the staging operators must still fit the I/O interval.
func ablationRatio(rp *Report) error {
	m := model.Jaguar()
	rp.header("Ablation — staging-area sizing (16,384 compute cores)")
	rp.printf("%8s %14s %14s %14s %10s\n",
		"ratio", "extra cores %", "sort wall (s)", "hist wall (s)", "fits 120s")
	for _, ratio := range []int{32, 64, 128, 256} {
		sort, hist := m.StagingRatioSweep(16384, ratio)
		fits := "yes"
		if sort > 120 || hist > 120 {
			fits = "NO"
		}
		rp.printf("%7d:1 %14.2f %14.1f %14.1f %10s\n",
			ratio, 100.0/float64(ratio), sort, hist, fits)
	}
	rp.printf("\nthe paper's 64:1 ratio (1.5%% extra resources) keeps every operator inside the I/O interval\n")
	return nil
}

// ablationFunctionalScaling checks the operator-cost assumption the
// performance model scales up: the real histogram operator's map time
// must grow roughly linearly with per-staging-rank data volume (weak
// scaling of the staging area holds volume per rank constant, so linear
// per-volume cost is what keeps staging time flat across job sizes).
func ablationFunctionalScaling(rp *Report) error {
	rp.header("Ablation — functional weak-scaling check (histogram map time vs volume)")
	sizes := []int{5000, 10000, 20000, 40000}
	times := make([]time.Duration, len(sizes))
	for i, perRank := range sizes {
		res, _, err := leg{
			name: "weak-scaling", cfg: gtcShape(8, 2, 1), perRank: perRank,
			ops: func(int) ([]staging.Operator, error) {
				return one(ops.NewHistogramOperator(ops.HistogramConfig{
					Var: "p", Columns: []int{gtc.AttrZeta, gtc.AttrRadial, gtc.AttrWeight, gtc.AttrVPar},
					Bins: 64, AggRanges: true,
				}))
			},
		}.run()
		if err != nil {
			return err
		}
		var mapT time.Duration
		for _, r := range res.StagingResults {
			mapT += r[0].OperatorBreakdown["histogram"].Get("map")
		}
		times[i] = mapT
		rp.printf("%7d particles/rank: map %v\n", perRank, mapT.Round(time.Microsecond))
	}
	// Report the growth factor over the 8x volume range.
	if times[0] > 0 {
		rp.printf("8x volume -> %.1fx map time (linear cost keeps staging time flat under weak scaling)\n",
			float64(times[len(times)-1])/float64(times[0]))
	}
	return nil
}

// ablationBitmap compares indexed range queries against full scans with
// the real WAH implementation — the design choice behind GTC's range
// query task.
func ablationBitmap(rp *Report) error {
	rp.header("Ablation — WAH bitmap index vs full scan (range query, 1M particles)")
	const n = 1 << 20
	rng := rand.New(rand.NewSource(1))
	values := make([]float64, n)
	for i := range values {
		values[i] = rng.Float64()
	}
	ix, err := bitmap.BuildIndex(values, 128, [2]float64{0, 1})
	if err != nil {
		return err
	}
	query := bitmap.RangeQuery{Lo: 0.42, Hi: 0.44}

	const reps = 20
	start := time.Now()
	var hits int
	for r := 0; r < reps; r++ {
		got, err := ix.Query(values, query)
		if err != nil {
			return err
		}
		hits = len(got)
	}
	indexed := time.Since(start) / reps

	start = time.Now()
	var scanHits int
	for r := 0; r < reps; r++ {
		scanHits = 0
		for _, v := range values {
			if v >= query.Lo && v < query.Hi {
				scanHits++
			}
		}
	}
	scanned := time.Since(start) / reps
	if hits != scanHits {
		return fmt.Errorf("bench: index returned %d hits, scan %d", hits, scanHits)
	}
	rp.printf("selectivity %.1f%%: indexed %v, full scan %v (%.1fx), index size %d words\n",
		100*float64(hits)/n, indexed, scanned,
		float64(scanned)/float64(indexed), ix.CompressedWords())
	return nil
}
