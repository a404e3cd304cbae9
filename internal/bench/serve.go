package bench

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"predata/internal/dataspaces"
	"predata/internal/queryapp"
	"predata/internal/serve"
	"predata/internal/trace"
)

// The serve experiment's shape: every tenant streams serveVersions
// dumps of serveRows x serveCols cells into its own namespace with a
// sliding window of serveWindow resident versions, then a concurrent
// repeated-region query workload sweeps the freshest version — the
// multi-tenant service scenario of DESIGN.md §15.
const (
	serveRows     = 32
	serveCols     = 256
	serveVersions = 6
	serveWindow   = 2
	serveCacheCap = 1024
	// Query workload per tenant: cores x queries disjoint slices of the
	// last version, re-swept serveRounds times (rounds past the first
	// re-query identical regions — the cache's target workload).
	serveQueryCores  = 2
	serveQueryCount  = 4
	serveQueryRounds = 4
	// serveCachePairs is how many cache-on/cache-off pairs the cache
	// comparison takes its medians over.
	serveCachePairs = 15
)

// serveVersionBytes is one ingested version's payload.
const serveVersionBytes = serveRows * serveCols * 8

// perTenant runs fn once per session, all at once, and returns their
// errors joined once every tenant has finished.
func perTenant(sessions []*serve.Session, fn func(i int, s *serve.Session) error) error {
	errs := make([]error, len(sessions))
	var wg sync.WaitGroup
	for i, s := range sessions {
		wg.Add(1)
		go func(i int, s *serve.Session) {
			defer wg.Done()
			errs[i] = fn(i, s)
		}(i, s)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// serveLeg runs one daemon with the given tenant count: concurrent
// ingest streams (sliding resident window), then a concurrent query
// sweep per tenant, with exact conservation and a verified trace.
func serveLeg(name string, tenants, cacheEntries int, seed int64) (row, error) {
	rec := trace.New(trace.Config{Shards: 8, ShardCapacity: 1 << 14})
	d, err := serve.Open(serve.Config{
		Servers:       2,
		Domain:        dataspaces.Domain{Dims: []uint64{serveRows, serveCols}, BlockSize: []uint64{16, 16}},
		CapacityBytes: int64(tenants*serveWindow+2) * serveVersionBytes,
		CacheEntries:  cacheEntries,
		Tracer:        rec,
	})
	if err != nil {
		return nil, fmt.Errorf("bench: %s: %w", name, err)
	}
	defer d.Close()

	sessions := make([]*serve.Session, tenants)
	for i := range sessions {
		s, err := d.Join(fmt.Sprintf("sim%02d", i), 1+i%3)
		if err != nil {
			return nil, fmt.Errorf("bench: %s: %w", name, err)
		}
		sessions[i] = s
	}

	// Ingest phase: every tenant streams its versions concurrently,
	// evicting past the resident window so the pot stays live. The
	// context bounds the phase: a wedged admission queue fails the leg
	// instead of hanging the bench.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	start := time.Now()
	err = perTenant(sessions, func(i int, s *serve.Session) error {
		data := make([]float64, serveRows*serveCols)
		for v := 0; v < serveVersions; v++ {
			stamp := float64(seed%1000)*1e6 + float64(i)*1e3 + float64(v)
			for j := range data {
				data[j] = stamp
			}
			if err := s.Ingest(ctx, "field", v, []uint64{0, 0}, []uint64{serveRows, serveCols}, data); err != nil {
				return fmt.Errorf("bench: %s tenant %d version %d: %w", name, i, v, err)
			}
			if v >= serveWindow {
				if err := s.EvictVersion("field", v-serveWindow); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	ingestWall := time.Since(start)
	ingestedMB := float64(tenants) * serveVersions * serveVersionBytes / (1 << 20)

	// Query phase: every tenant sweeps its freshest version in parallel.
	results := make([]queryapp.TenantResult, tenants)
	err = perTenant(sessions, func(i int, s *serve.Session) error {
		res, err := queryapp.RunTenant(queryapp.TenantConfig{
			Session: s,
			Object:  "field",
			Version: serveVersions - 1,
			Domain:  []uint64{serveRows, serveCols},
			Cores:   serveQueryCores,
			Queries: serveQueryCount,
			Rounds:  serveQueryRounds,
		})
		if err != nil {
			return fmt.Errorf("bench: %s tenant %d queries: %w", name, i, err)
		}
		results[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Per-query latency under concurrent tenant traffic: the median of
	// per-tenant p50s and the worst per-tenant p99.
	p50s := make([]float64, 0, tenants)
	var p99 float64
	var queries int64
	for _, r := range results {
		p50s = append(p50s, r.P50Seconds*1e6)
		p99 = max(p99, r.P99Seconds*1e6)
		queries += r.Queries + r.Reduces
	}
	sort.Float64s(p50s)

	// Exact per-tenant frame conservation — zero loss, zero invention.
	var waits int64
	for i, s := range sessions {
		st, err := s.Stats()
		if err != nil {
			return nil, err
		}
		if st.Ingests != serveVersions || st.IngestedCells != int64(serveVersions)*serveRows*serveCols {
			return nil, fmt.Errorf("bench: %s tenant %d: %d ingests / %d cells, want %d / %d — frames lost",
				name, i, st.Ingests, st.IngestedCells, serveVersions, int64(serveVersions)*serveRows*serveCols)
		}
		waits += st.Admission.Waits
	}
	cs := d.CacheStats()
	var hitRate float64
	if total := cs.Hits + cs.Misses; total > 0 {
		hitRate = float64(cs.Hits) / float64(total)
	}

	// Zero cross-tenant leakage: the recording must verify, and must
	// actually have covered every tenant's object.
	rep, err := trace.Verify(rec.Snapshot())
	if err != nil {
		return nil, fmt.Errorf("bench: %s trace: %w", name, err)
	}
	tenantChecks, cacheChecks := rep.Checks[trace.RuleTenantIsolation], rep.Checks[trace.RuleCacheCoherence]
	if tenantChecks < tenants {
		return nil, fmt.Errorf("bench: %s: verify covered %d objects, want >= %d", name, tenantChecks, tenants)
	}
	// tenant_checks and cache_checks are the verification coverage:
	// objects checked for tenant isolation and hits checked for cache
	// coherence. Zero leakage is implied by the leg completing — Verify
	// fails the run otherwise.
	return row{
		{"name", name, "run", "%s"},
		{"tenants", tenants, "tenants", "%d"},
		{"ingested_mb", ingestedMB, "ingestMB", "%.2f"},
		{"ingest_wall_ms", ingestWall.Milliseconds(), "", ""},
		{"ingest_mbps", ingestedMB / ingestWall.Seconds(), "ingMB/s", "%.1f"},
		{"queries", queries, "queries", "%d"},
		{"query_p50_us", p50s[len(p50s)/2], "qP50us", "%.2f"},
		{"query_p99_us", p99, "qP99us", "%.2f"},
		{"cache_hits", cs.Hits, "", ""},
		{"cache_hit_rate", hitRate, "hitRate", "%.2f"},
		{"admission_waits", waits, "waits", "%d"},
		{"tenant_checks", tenantChecks, "", ""},
		{"cache_checks", cacheChecks, "", ""},
		{"", tenantChecks + cacheChecks, "checks", "%d"},
	}, nil
}

// serving runs the multi-tenant streaming-service experiment: sustained
// ingest with concurrent query sweeps under 1, 4, and 16 tenants, every
// leg trace-verified for tenant isolation and cache coherence with
// exact frame conservation, plus a cache on/off latency reading on the
// repeated-region workload.
func serving(rp *Report) error {
	rp.seeded("Serve — multi-tenant streaming staging with query traffic")

	var rows []row
	for _, l := range []struct {
		name    string
		tenants int
	}{
		{"single-tenant", 1},
		{"fair-share-4", 4},
		{"query-storm-16", 16},
	} {
		leg, err := serveLeg(l.name, l.tenants, serveCacheCap, rp.seed)
		if err != nil {
			return err
		}
		rows = append(rows, leg)
	}

	// The cache comparison re-runs the single-tenant repeated-region
	// workload with the cache on and off in alternating pairs and reports
	// each side's median p50 and, as speedup, the median of the per-pair
	// uncached/cached ratios. One pair says nothing: a leg's p50 is over
	// 32 queries of a few microseconds, and whichever leg runs first in a
	// cold process reads two to three times slower than it does warm.
	// The speedup is a reading, not a target — now that a Get copies rows
	// a hit saves microseconds, not hundreds of them (DESIGN.md §15) —
	// and the timing gate is only that the cache must not make queries
	// slower than the ledger lets a timed row move.
	var cachedP50s, uncachedP50s, ratios []float64
	for i := 0; i < serveCachePairs; i++ {
		capacity := [2]int{serveCacheCap, 0} // cache on, cache off
		var p50 [2]float64
		for j := range p50 {
			// Alternate which side of the pair runs first.
			side := (i + j) % 2
			leg, err := serveLeg("cache-comparison", 1, capacity[side], rp.seed)
			if err != nil {
				return err
			}
			p50[side] = leg.get("query_p50_us").(float64)
		}
		cachedP50s, uncachedP50s = append(cachedP50s, p50[0]), append(uncachedP50s, p50[1])
		ratios = append(ratios, p50[1]/p50[0])
	}
	cached, uncached, speedup := median(cachedP50s), median(uncachedP50s), median(ratios)
	rp.section("serve", row{
		{"versions", serveVersions, "", ""},
		{"rows_per_version", serveRows, "", ""},
		{"cache_comparison", row{
			{"pairs", serveCachePairs, "", ""},
			{"cached_p50_us", cached, "", ""},
			{"uncached_p50_us", uncached, "", ""},
			{"speedup", speedup, "", ""},
		}, "", ""},
	}, rows)
	rp.printf("\ncache on repeated regions: p50 %.2fus cached vs %.2fus uncached (%.2fx, medians of %d pairs; bound: cached within %.0f%% of uncached)\n",
		cached, uncached, speedup, serveCachePairs, timedRowBound)

	// The invariants the experiment exists to demonstrate. Conservation
	// and trace verification already gated inside each leg; here the
	// cache must answer every repeated round and be seen doing it
	// coherently.
	if speedup < 1/(1+timedRowBound/100) {
		return fmt.Errorf("bench: cached p50 %.2fus exceeds uncached p50 %.2fus (median pair %.2fx) by more than the %.0f%% timed-row bound",
			cached, uncached, speedup, timedRowBound)
	}
	const wantHitRate = float64(serveQueryRounds-1) / serveQueryRounds
	for _, leg := range rows {
		if rate := leg.get("cache_hit_rate").(float64); rate < wantHitRate {
			return fmt.Errorf("bench: %s: cache hit rate %.2f, want every round past the first to hit (%.2f)",
				leg.get("name"), rate, wantHitRate)
		}
		if leg.get("cache_checks").(int) == 0 {
			return fmt.Errorf("bench: %s: no cache-coherence checks in the verified trace", leg.get("name"))
		}
	}
	rp.printf("\nall legs conserve every tenant's frames with verified isolation; every repeated region is answered from the result cache\n")
	return nil
}
