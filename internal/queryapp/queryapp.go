// Package queryapp implements the paper's Fig. 9 "querying application":
// a separate job on its own cores that partitions the staged particle
// domain and issues consecutive sub-region queries against the DataSpaces
// service while the simulation keeps running. The service is whatever
// answers a Query: a shared space directly, or a serve tenant session.
package queryapp

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"predata/internal/mpi"
)

// Query reads the region [lb, ub) of one version of a named object:
// (*dataspaces.Space).Get, or (*serve.Session).Query, which namespaces
// every read to the session's tenant.
type Query func(name string, version int, lb, ub []uint64) ([]float64, error)

// Config describes one querying run.
type Config struct {
	// Query answers every region request.
	Query Query
	// Object and Version name the dataset to query.
	Object  string
	Version int
	// Domain is the object's full extent (rows x writers for GTC).
	Domain []uint64
	// Cores is the number of querying application cores; each owns a
	// disjoint slab of the domain's first dimension.
	Cores int
	// Queries is the number of consecutive queries per core per round
	// (the paper issues 11); each covers a disjoint slice of the core's
	// slab.
	Queries int
	// Rounds repeats the whole sweep; rounds past the first re-query
	// identical regions (the workload a result cache accelerates). Zero
	// means 1.
	Rounds int
}

// Result aggregates the run's timing.
type Result struct {
	// SetupSeconds is the cores' average first-query duration — the
	// one-time cost including discovery and routing.
	SetupSeconds float64
	// QuerySeconds is the mean duration of every later query.
	QuerySeconds float64
	// P50Seconds and P99Seconds are latency percentiles over every query
	// issued, first queries included.
	P50Seconds float64
	P99Seconds float64
	// TotalSeconds is the wall time of the whole querying phase.
	TotalSeconds float64
	// Cells counts the values retrieved across all cores and rounds;
	// Queries counts the queries issued.
	Cells   int64
	Queries int64
}

// Run executes the querying application and validates coverage: every
// round retrieves each cell of the domain exactly once across cores and
// queries.
func Run(cfg Config) (Result, error) {
	if cfg.Query == nil {
		return Result{}, fmt.Errorf("queryapp: nil query")
	}
	if len(cfg.Domain) != 2 {
		return Result{}, fmt.Errorf("queryapp: domain rank %d, want 2", len(cfg.Domain))
	}
	if cfg.Cores < 1 || cfg.Queries < 1 {
		return Result{}, fmt.Errorf("queryapp: cores %d / queries %d must be >= 1", cfg.Cores, cfg.Queries)
	}
	rounds := max(cfg.Rounds, 1)
	rows := cfg.Domain[0]
	// Every core's slab then holds at least one row per query.
	if uint64(cfg.Cores*cfg.Queries) > rows {
		return Result{}, fmt.Errorf("queryapp: %d cores x %d queries exceed %d rows",
			cfg.Cores, cfg.Queries, rows)
	}

	var (
		mu        sync.Mutex
		setupSum  time.Duration
		latencies []time.Duration
		cells     int64
	)
	start := time.Now()
	err := mpi.Run(cfg.Cores, func(c *mpi.Comm) error {
		slabLo := uint64(c.Rank()) * rows / uint64(cfg.Cores)
		slabHi := uint64(c.Rank()+1) * rows / uint64(cfg.Cores)
		local := make([]time.Duration, 0, rounds*cfg.Queries)
		var localCells int64
		for round := 0; round < rounds; round++ {
			for q := 0; q < cfg.Queries; q++ {
				lo := slabLo + uint64(q)*(slabHi-slabLo)/uint64(cfg.Queries)
				hi := slabLo + uint64(q+1)*(slabHi-slabLo)/uint64(cfg.Queries)
				qStart := time.Now()
				region, err := cfg.Query(cfg.Object, cfg.Version,
					[]uint64{lo, 0}, []uint64{hi, cfg.Domain[1]})
				if err != nil {
					return fmt.Errorf("queryapp: core %d round %d query %d: %w", c.Rank(), round, q, err)
				}
				local = append(local, time.Since(qStart))
				localCells += int64(len(region))
			}
		}
		mu.Lock()
		setupSum += local[0]
		latencies = append(latencies, local...)
		cells += localCells
		mu.Unlock()
		return nil
	})
	if err != nil {
		return Result{}, err
	}
	res := Result{
		SetupSeconds: setupSum.Seconds() / float64(cfg.Cores),
		TotalSeconds: time.Since(start).Seconds(),
		Cells:        cells,
		Queries:      int64(len(latencies)),
	}
	if later := len(latencies) - cfg.Cores; later > 0 {
		var sum time.Duration
		for _, d := range latencies {
			sum += d
		}
		res.QuerySeconds = (sum - setupSum).Seconds() / float64(later)
	}
	slices.Sort(latencies)
	res.P50Seconds = percentile(latencies, 0.50).Seconds()
	res.P99Seconds = percentile(latencies, 0.99).Seconds()
	if want := int64(cfg.Domain[0]*cfg.Domain[1]) * int64(rounds); cells != want {
		return res, fmt.Errorf("queryapp: retrieved %d cells of %d", cells, want)
	}
	return res, nil
}

// percentile reads the q-th quantile from sorted latencies using the
// nearest-rank method.
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(q*float64(len(sorted))+0.5) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}
