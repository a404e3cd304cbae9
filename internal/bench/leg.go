package bench

import (
	"fmt"
	"sync"
	"time"

	"predata/internal/apps/gtc"
	"predata/internal/faults"
	"predata/internal/ffs"
	"predata/internal/mpi"
	"predata/internal/ops"
	"predata/internal/predata"
	"predata/internal/staging"
)

// leg is one run of the GTC mini-workload: every compute rank writes
// perRank generated particles per dump, MinMaxPartial rides along, and
// the staging ranks run the operators. Legs differ only in the
// PipelineConfig fields they set (staging shape, budget, fabric, journal,
// tracer), the fault plan, and a modeled Map cost.
type leg struct {
	name    string
	cfg     predata.PipelineConfig
	perRank int
	plan    string        // fault-plan spec parsed with the run's seed; "" for none
	mapCost time.Duration // modeled per-chunk Map cost; 0 for none
	// ops builds one dump's operators. Nil selects the 64-bin histogram
	// on (zeta, radial), whose bin totals are the conservation census.
	ops func(dump int) ([]staging.Operator, error)
}

// gtcShape is the mini-workload's usual staging shape: two Map workers
// and two pulls in flight per staging rank.
func gtcShape(compute, stagingRanks, dumps int) predata.PipelineConfig {
	return predata.PipelineConfig{
		NumCompute: compute, NumStaging: stagingRanks, Dumps: dumps,
		Engine: staging.Config{Workers: 2}, PullConcurrency: 2,
	}
}

// outcome is what a leg produced: the runtime's own result, the wall
// time of the RunPipeline call, and the conservation census.
type outcome struct {
	name string
	// res.Fault and res.Overload are never nil: a run with nothing to
	// report carries the zero report, so gates and columns read fields
	// without guarding.
	res    *predata.PipelineResult
	wall   time.Duration
	census []int64 // histogram bin total per dump
	want   int64   // the census a lossless run sums to: every value once per histogrammed column
}

// reduced is the run's census over all dumps.
func (o outcome) reduced() int64 {
	var got int64
	for _, n := range o.census {
		got += n
	}
	return got
}

// loss is the exact conservation figure: values that should have been
// binned and were not.
func (o outcome) loss() int64 { return o.want - o.reduced() }

// goodput is values verifiably reduced per wall second, in millions —
// the figure re-pulls, fence windows, journaling and recovery stalls tax.
func (o outcome) goodput() float64 { return float64(o.reduced()) / o.wall.Seconds() / 1e6 }

// run executes the leg and returns its outcome; a bad plan, a failed
// operator constructor and a failed pipeline all come back as errors
// naming the leg.
func (l leg) run(seed int64) (outcome, error) {
	fail := func(err error) (outcome, error) {
		return outcome{}, fmt.Errorf("bench: %s leg: %w", l.name, err)
	}
	cfg := l.cfg
	cfg.PartialCalculate = ops.MinMaxPartial("p", []int{gtc.AttrZeta, gtc.AttrRadial, gtc.AttrRank})
	cfg.Aggregate = ops.MinMaxAggregate()
	cfg.Timeout = 2 * time.Minute
	if l.plan != "" {
		plan, err := faults.ParsePlan(l.plan, seed)
		if err != nil {
			return fail(err)
		}
		cfg.FaultPlan = &plan
	}
	build := l.ops
	if build == nil {
		build = func(int) ([]staging.Operator, error) {
			return one(ops.NewHistogramOperator(ops.HistogramConfig{
				Var: "p", Columns: []int{gtc.AttrZeta, gtc.AttrRadial}, Bins: 64, AggRanges: true,
			}))
		}
	}
	operators := &checkedOps{build: build, mapCost: l.mapCost}

	start := time.Now()
	res, err := predata.RunPipeline(cfg,
		func(comm *mpi.Comm, client *predata.Client) error {
			for step := 0; step < cfg.Dumps; step++ {
				arr := gtc.GenParticles(comm.Rank(), l.perRank, int64(step))
				if _, err := client.Write(gtc.ParticleSchema, ffs.Record{"p": arr}, int64(step)); err != nil {
					return err
				}
			}
			return nil
		},
		operators.factory)
	wall := time.Since(start)
	if err = operators.after(err); err != nil {
		return fail(err)
	}
	if res.Fault == nil {
		res.Fault = &predata.FaultReport{}
	}
	if res.Overload == nil {
		res.Overload = &predata.OverloadReport{}
	}
	return outcome{
		name: l.name, res: res, wall: wall,
		census: census(res, cfg.Dumps),
		want:   int64(cfg.NumCompute*l.perRank) * 2 * int64(cfg.Dumps),
	}, nil
}

// runLegs runs the legs in order and stops at the first failure.
func runLegs(seed int64, legs []leg) ([]outcome, error) {
	outs := make([]outcome, 0, len(legs))
	for _, l := range legs {
		o, err := l.run(seed)
		if err != nil {
			return nil, err
		}
		outs = append(outs, o)
	}
	return outs, nil
}

// one lifts a single-operator constructor's result into an operator list.
func one(op staging.Operator, err error) ([]staging.Operator, error) {
	if err != nil {
		return nil, err
	}
	return []staging.Operator{op}, nil
}

// checkedOps adapts an error-returning operator constructor to the
// runtime's OperatorFactory, which cannot fail: the first constructor
// error is kept for the caller to return once the run is over, instead
// of silently running the dump with no operators.
type checkedOps struct {
	build   func(dump int) ([]staging.Operator, error)
	mapCost time.Duration // when positive, every operator is wrapped in a slowOp

	mu  sync.Mutex
	err error
}

func (c *checkedOps) factory(dump int) []staging.Operator {
	list, err := c.build(dump)
	if err != nil {
		c.mu.Lock()
		if c.err == nil {
			c.err = err
		}
		c.mu.Unlock()
		return nil
	}
	if c.mapCost > 0 {
		for i, op := range list {
			list[i] = &slowOp{Operator: op, delay: c.mapCost}
		}
	}
	return list
}

// after folds the run's own error with the first constructor failure,
// which wins: a run that lost its operators says nothing else of use.
func (c *checkedOps) after(err error) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return c.err
	}
	return err
}

// slowOp wraps an operator with a fixed per-chunk Map cost, modelling an
// expensive analytics kernel so the consumer drains slower than the
// fabric delivers — the byte-rate imbalance that forces the flow ladder
// to act. Optional-ness passes through so shedding still applies.
type slowOp struct {
	staging.Operator
	delay time.Duration
}

func (s *slowOp) Map(ctx *staging.Context, chunk *staging.Chunk) error {
	time.Sleep(s.delay)
	return s.Operator.Map(ctx, chunk)
}

func (s *slowOp) Optional() bool {
	o, ok := s.Operator.(staging.Optional)
	return ok && o.Optional()
}

// census sums every histogram bin a run produced, per dump — the
// data-conservation invariant: each value lands in exactly one bin per
// histogrammed column. A dump a rank did not serve (crashed, parked,
// fenced) is a missing or empty row and counts nothing.
func census(res *predata.PipelineResult, dumps int) []int64 {
	totals := make([]int64, dumps)
	for _, perDump := range res.StagingResults {
		for d, r := range perDump {
			if r == nil || d >= dumps {
				continue
			}
			hists, _ := r.PerOperator["histogram"]["histograms"].(map[int][]int64)
			for _, bins := range hists {
				for _, n := range bins {
					totals[d] += n
				}
			}
		}
	}
	return totals
}

// MiniPipeline runs one dump of numCompute writers (perRank particles
// each) through numStaging staging ranks with the given operators, and
// returns the staging results plus the wall time of the whole dump.
func MiniPipeline(numCompute, numStaging, perRank int, opsFor predata.OperatorFactory) (*predata.PipelineResult, time.Duration, error) {
	o, err := leg{
		name: "mini-pipeline", cfg: gtcShape(numCompute, numStaging, 1), perRank: perRank,
		ops: func(dump int) ([]staging.Operator, error) { return opsFor(dump), nil },
	}.run(0)
	return o.res, o.wall, err
}
