package bench

import (
	"fmt"
	"sync"
	"time"

	"predata/internal/apps/gtc"
	"predata/internal/ffs"
	"predata/internal/mpi"
	"predata/internal/ops"
	"predata/internal/predata"
	"predata/internal/staging"
)

// leg is one run of the GTC mini-workload: every compute rank writes
// perRank generated particles per dump, MinMaxPartial rides along, and
// the staging ranks run the operators ops builds for each dump.
type leg struct {
	name    string
	cfg     predata.PipelineConfig
	perRank int
	ops     func(dump int) ([]staging.Operator, error)
}

// gtcShape is the mini-workload's usual staging shape: two Map workers
// and two pulls in flight per staging rank.
func gtcShape(compute, stagingRanks, dumps int) predata.PipelineConfig {
	return predata.PipelineConfig{
		NumCompute: compute, NumStaging: stagingRanks, Dumps: dumps,
		Engine: staging.Config{Workers: 2}, PullConcurrency: 2,
	}
}

// run executes the leg and returns the runtime's result and the wall
// time of the RunPipeline call; a failed operator constructor and a
// failed pipeline both come back as errors naming the leg.
func (l leg) run() (*predata.PipelineResult, time.Duration, error) {
	cfg := l.cfg
	cfg.PartialCalculate = ops.MinMaxPartial("p", []int{gtc.AttrZeta, gtc.AttrRadial, gtc.AttrRank})
	cfg.Aggregate = ops.MinMaxAggregate()
	cfg.Timeout = 2 * time.Minute
	operators := &checkedOps{build: l.ops}

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
		return nil, wall, fmt.Errorf("bench: %s leg: %w", l.name, err)
	}
	return res, wall, nil
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
	build func(dump int) ([]staging.Operator, error)

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

// MiniPipeline runs one dump of numCompute writers (perRank particles
// each) through numStaging staging ranks with the given operators, and
// returns the staging results plus the wall time of the whole dump.
func MiniPipeline(numCompute, numStaging, perRank int, opsFor predata.OperatorFactory) (*predata.PipelineResult, time.Duration, error) {
	return leg{
		name: "mini-pipeline", cfg: gtcShape(numCompute, numStaging, 1), perRank: perRank,
		ops: func(dump int) ([]staging.Operator, error) { return opsFor(dump), nil },
	}.run()
}
