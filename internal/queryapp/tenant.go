package queryapp

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"predata/internal/mpi"
)

// TenantSession is the slice of a serve tenant session the querying
// application drives — satisfied by *serve.Session. Every operation is
// namespaced to the tenant behind the session, so a querying app can
// only ever see its own tenant's data.
type TenantSession interface {
	Query(name string, version int, lb, ub []uint64) ([]float64, error)
}

// TenantConfig describes one serve-mode querying run: concurrent cores
// sweeping a tenant's object with range queries, optionally re-sweeping
// the same regions (the repeated-region workload the serve result cache
// accelerates).
type TenantConfig struct {
	Session TenantSession
	// Object and Version name the dataset inside the tenant namespace.
	Object  string
	Version int
	// Domain is the object's full extent (2-D).
	Domain []uint64
	// Cores is the number of concurrent querying cores; each owns a
	// disjoint slab of the first dimension.
	Cores int
	// Queries is the number of consecutive queries per core per round,
	// each covering a disjoint slice of the core's slab.
	Queries int
	// Rounds repeats the whole sweep; rounds past the first re-query
	// identical regions. Zero means 1.
	Rounds int
}

// TenantResult aggregates a serve-mode querying run.
type TenantResult struct {
	// P50Seconds and P99Seconds are per-query latency percentiles over
	// every query issued.
	P50Seconds float64
	P99Seconds float64
	// QuerySeconds is the mean per-query latency.
	QuerySeconds float64
	// TotalSeconds is the wall time of the whole run.
	TotalSeconds float64
	// Cells counts values retrieved by range queries; Queries counts the
	// queries issued.
	Cells   int64
	Queries int64
}

// RunTenant executes the serve-mode querying application and validates
// coverage: each round's range queries retrieve every cell of the
// domain exactly once across cores.
func RunTenant(cfg TenantConfig) (TenantResult, error) {
	if cfg.Session == nil {
		return TenantResult{}, fmt.Errorf("queryapp: nil session")
	}
	if len(cfg.Domain) != 2 {
		return TenantResult{}, fmt.Errorf("queryapp: domain rank %d, want 2", len(cfg.Domain))
	}
	if cfg.Cores < 1 || cfg.Queries < 1 {
		return TenantResult{}, fmt.Errorf("queryapp: cores %d / queries %d must be >= 1", cfg.Cores, cfg.Queries)
	}
	if cfg.Rounds < 1 {
		cfg.Rounds = 1
	}
	rows := cfg.Domain[0]
	if uint64(cfg.Cores*cfg.Queries) > rows {
		return TenantResult{}, fmt.Errorf("queryapp: %d cores x %d queries exceed %d rows",
			cfg.Cores, cfg.Queries, rows)
	}

	var (
		mu        sync.Mutex
		latencies []time.Duration
		cells     int64
		gets      int64
	)
	start := time.Now()
	err := mpi.Run(cfg.Cores, func(c *mpi.Comm) error {
		slabLo := uint64(c.Rank()) * rows / uint64(cfg.Cores)
		slabHi := uint64(c.Rank()+1) * rows / uint64(cfg.Cores)
		local := make([]time.Duration, 0, cfg.Rounds*cfg.Queries)
		var localCells, localGets int64
		for round := 0; round < cfg.Rounds; round++ {
			for q := 0; q < cfg.Queries; q++ {
				lo := slabLo + uint64(q)*(slabHi-slabLo)/uint64(cfg.Queries)
				hi := slabLo + uint64(q+1)*(slabHi-slabLo)/uint64(cfg.Queries)
				if hi <= lo {
					continue
				}
				lb, ub := []uint64{lo, 0}, []uint64{hi, cfg.Domain[1]}
				qStart := time.Now()
				region, err := cfg.Session.Query(cfg.Object, cfg.Version, lb, ub)
				if err != nil {
					return fmt.Errorf("queryapp: core %d round %d query %d: %w", c.Rank(), round, q, err)
				}
				localCells += int64(len(region))
				localGets++
				local = append(local, time.Since(qStart))
			}
		}
		mu.Lock()
		latencies = append(latencies, local...)
		cells += localCells
		gets += localGets
		mu.Unlock()
		return nil
	})
	if err != nil {
		return TenantResult{}, err
	}
	res := TenantResult{
		TotalSeconds: time.Since(start).Seconds(),
		Cells:        cells,
		Queries:      gets,
	}
	if len(latencies) > 0 {
		sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
		var sum time.Duration
		for _, d := range latencies {
			sum += d
		}
		res.QuerySeconds = sum.Seconds() / float64(len(latencies))
		res.P50Seconds = percentile(latencies, 0.50).Seconds()
		res.P99Seconds = percentile(latencies, 0.99).Seconds()
	}
	// Coverage: range queries sweep the full domain once per round.
	if want := int64(cfg.Domain[0]*cfg.Domain[1]) * int64(cfg.Rounds); cells != want {
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
