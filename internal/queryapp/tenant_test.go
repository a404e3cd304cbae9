package queryapp_test

import (
	"context"
	"testing"

	"predata/internal/dataspaces"
	"predata/internal/queryapp"
	"predata/internal/serve"
)

func seedTenant(t *testing.T, cacheEntries int) (*serve.Daemon, *serve.Session, []uint64) {
	t.Helper()
	domain := []uint64{64, 32}
	d, err := serve.Open(serve.Config{
		Servers:      2,
		Domain:       dataspaces.Domain{Dims: domain, BlockSize: []uint64{8, 8}},
		CacheEntries: cacheEntries,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	s, err := d.Join("gtc", 1)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]float64, domain[0]*domain[1])
	for i := range data {
		data[i] = float64(i)
	}
	if err := s.Ingest(context.Background(), "field", 0, []uint64{0, 0}, domain, data); err != nil {
		t.Fatal(err)
	}
	return d, s, domain
}

func TestRunTenantCoverageAndPercentiles(t *testing.T) {
	d, s, domain := seedTenant(t, 256)
	res, err := queryapp.Run(queryapp.Config{
		Query:   s.Query,
		Object:  "field",
		Version: 0,
		Domain:  domain,
		Cores:   4,
		Queries: 8,
		Rounds:  3,
	})
	if err != nil {
		t.Fatal(err)
	}
	wantCells := int64(domain[0]*domain[1]) * 3
	if res.Cells != wantCells {
		t.Fatalf("cells %d, want %d", res.Cells, wantCells)
	}
	if res.Queries != 4*8*3 {
		t.Fatalf("queries %d, want %d", res.Queries, 4*8*3)
	}
	if res.P50Seconds <= 0 || res.P99Seconds < res.P50Seconds {
		t.Fatalf("percentiles p50=%v p99=%v", res.P50Seconds, res.P99Seconds)
	}
	// Rounds 2 and 3 re-query identical regions: the cache must have
	// served hits.
	if st := d.CacheStats(); st.Hits < 4*8 {
		t.Fatalf("cache hits %d after repeated rounds, want >= %d", st.Hits, 4*8)
	}
}
