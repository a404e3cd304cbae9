package serve

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"predata/internal/dataspaces"
	"predata/internal/trace"
)

// FuzzQueryCacheKey checks that the cache key encoding is injective: no
// two distinct (name, version, region, op) tuples may collide, or one
// tenant's cached result could answer another's query. The qualified
// name embeds the tenant (Join rejects separator-bearing tenant names,
// so qualification itself is injective), which reduces tenant collisions
// to name collisions.
func FuzzQueryCacheKey(f *testing.F) {
	f.Add("gtc", "field", 0, uint8(2), uint64(0), uint64(0), uint64(8), uint64(8), uint8(0),
		"pixie3d", "field", 0, uint8(2), uint64(0), uint64(0), uint64(8), uint64(8), uint8(0))
	f.Add("gtc", "fieldx", 1, uint8(1), uint64(3), uint64(0), uint64(9), uint64(0), uint8(3),
		"gtc", "field", 1, uint8(2), uint64(3), uint64(0), uint64(9), uint64(0), uint8(3))
	f.Add("a", "b", 7, uint8(2), uint64(1), uint64(2), uint64(3), uint64(4), uint8(1),
		"a", "b", 7, uint8(2), uint64(1), uint64(2), uint64(3), uint64(4), uint8(2))
	f.Fuzz(func(t *testing.T,
		tenant1, obj1 string, ver1 int, dims1 uint8, a1, b1, c1, d1 uint64, op1 uint8,
		tenant2, obj2 string, ver2 int, dims2 uint8, a2, b2, c2, d2 uint64, op2 uint8) {
		region := func(dims uint8, a, b, c, d uint64) (lb, ub []uint64) {
			switch dims % 3 {
			case 0:
				return []uint64{a}, []uint64{c}
			case 1:
				return []uint64{a, b}, []uint64{c, d}
			default:
				return []uint64{a, b, a}, []uint64{c, d, c}
			}
		}
		lb1, ub1 := region(dims1, a1, b1, c1, d1)
		lb2, ub2 := region(dims2, a2, b2, c2, d2)
		o1, o2 := queryOp(op1%5), queryOp(op2%5)
		name1 := qualify(tenant1, obj1)
		name2 := qualify(tenant2, obj2)
		k1 := cacheKey(name1, ver1, lb1, ub1, o1)
		k2 := cacheKey(name2, ver2, lb2, ub2, o2)

		same := name1 == name2 && ver1 == ver2 && o1 == o2 && len(lb1) == len(lb2)
		if same {
			for i := range lb1 {
				if lb1[i] != lb2[i] || ub1[i] != ub2[i] {
					same = false
					break
				}
			}
		}
		if same != (k1 == k2) {
			t.Fatalf("cache key collision mismatch: tuples same=%v keys equal=%v\n(%q v%d %v-%v op%d)\n(%q v%d %v-%v op%d)",
				same, k1 == k2, name1, ver1, lb1, ub1, o1, name2, ver2, lb2, ub2, o2)
		}
	})
}

// TestCachePropertyNeverStale interleaves Put, EvictVersion, and cached
// queries at random and asserts the cache never serves stale bytes.
// Writers serialize through the space's object lock service and stamp
// every ingest with a globally increasing value, so under a read lock
// the space state is exactly lastCommitted[version] — any cached answer
// MUST equal it bit for bit, and an evicted version MUST error.
func TestCachePropertyNeverStale(t *testing.T) {
	const (
		rows, cols  = 16, 16
		versions    = 3
		writerIters = 120
		readerIters = 400
		evictIters  = 60
	)
	rec := trace.New(trace.Config{Shards: 8, ShardCapacity: 1 << 14})
	d, err := Open(Config{
		Servers:      2,
		Domain:       dataspaces.Domain{Dims: []uint64{rows, cols}, BlockSize: []uint64{8, 8}},
		CacheEntries: 64,
		Tracer:       rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	s, err := d.Join("gtc", 1)
	if err != nil {
		t.Fatal(err)
	}
	lockName := qualify("gtc", "obj")

	var counter atomic.Int64
	lastCommitted := make([]atomic.Int64, versions)
	for v := range lastCommitted {
		lastCommitted[v].Store(-1) // -1: version not resident
	}
	ctx := context.Background()
	var wg sync.WaitGroup
	errc := make(chan error, versions+5)

	// Readers start only after the first commit lands — otherwise the
	// scheduler can run a reader's whole budget of fast-failing queries
	// before any writer is scheduled.
	var firstCommit sync.Once
	committed := make(chan struct{})

	for v := 0; v < versions; v++ {
		wg.Add(1)
		go func(v int) {
			defer wg.Done()
			data := make([]float64, rows*cols)
			for i := 0; i < writerIters; i++ {
				d.Space().AcquireWrite(lockName)
				k := counter.Add(1)
				for j := range data {
					data[j] = float64(k)
				}
				err := s.Ingest(ctx, "obj", v, []uint64{0, 0}, []uint64{rows, cols}, data)
				if err == nil {
					lastCommitted[v].Store(k)
					firstCommit.Do(func() { close(committed) })
				}
				if rerr := d.Space().ReleaseWrite(lockName); rerr != nil {
					errc <- rerr
					return
				}
				if err != nil {
					errc <- fmt.Errorf("writer v%d iter %d: %w", v, i, err)
					return
				}
			}
		}(v)
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(99))
		for i := 0; i < evictIters; i++ {
			v := rng.Intn(versions)
			d.Space().AcquireWrite(lockName)
			if lastCommitted[v].Load() != -1 {
				if err := s.EvictVersion("obj", v); err != nil {
					errc <- err
				}
				lastCommitted[v].Store(-1)
			}
			if err := d.Space().ReleaseWrite(lockName); err != nil {
				errc <- err
				return
			}
		}
	}()

	// Four regions per version: distinct cache keys over the same
	// underlying bytes, including reductions.
	regions := [][4][]uint64{
		{{0, 0}, {rows, cols}},
		{{0, 0}, {rows / 2, cols}},
		{{rows / 2, 0}, {rows, cols}},
		{{0, cols / 2}, {rows, cols}},
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			<-committed
			rng := rand.New(rand.NewSource(int64(1000 + r)))
			for i := 0; i < readerIters; i++ {
				v := rng.Intn(versions)
				reg := regions[rng.Intn(len(regions))]
				lb, ub := reg[0], reg[1]
				d.Space().AcquireRead(lockName)
				lo := lastCommitted[v].Load()
				var got float64
				var cells []float64
				var err error
				// Issue the query TWICE inside the read-lock hold: the
				// epoch cannot move while the lock is held, so the first
				// read fills the cache and the second is a guaranteed
				// hit — both must agree with the committed value.
				if rng.Intn(3) == 0 {
					if got, err = s.Reduce("obj", v, lb, ub, dataspaces.ReduceMax); err == nil {
						var again float64
						if again, err = s.Reduce("obj", v, lb, ub, dataspaces.ReduceMax); err == nil && again != got {
							err = fmt.Errorf("cached reduce %v != uncached %v", again, got)
						}
					}
				} else {
					if cells, err = s.Query("obj", v, lb, ub); err == nil {
						if len(cells) > 0 {
							got = cells[0]
						}
						var again []float64
						if again, err = s.Query("obj", v, lb, ub); err == nil && len(again) != len(cells) {
							err = fmt.Errorf("cached query %d cells != uncached %d", len(again), len(cells))
						}
						for j := 0; err == nil && j < len(cells); j++ {
							if again[j] != cells[j] {
								err = fmt.Errorf("cached cell %d = %v != uncached %v", j, again[j], cells[j])
							}
						}
					}
				}
				if rerr := d.Space().ReleaseRead(lockName); rerr != nil {
					errc <- rerr
					return
				}
				if lo == -1 {
					if err == nil {
						errc <- fmt.Errorf("reader %d: query on evicted v%d served value %v — stale bytes", r, v, got)
						return
					}
					runtime.Gosched() // let a writer land before burning more budget
					continue
				}
				if err != nil {
					errc <- fmt.Errorf("reader %d: v%d committed at %d but query failed: %w", r, v, lo, err)
					return
				}
				if got != float64(lo) {
					errc <- fmt.Errorf("reader %d: v%d served %v, committed value is %d — stale cache entry", r, v, got, lo)
					return
				}
				for j, c := range cells {
					if c != float64(lo) {
						errc <- fmt.Errorf("reader %d: v%d cell %d = %v, want %d — torn or stale result", r, v, j, c, lo)
						return
					}
				}
			}
		}(r)
	}

	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	// Deterministic epilogue: with the race over, re-ingest every
	// version and double-read each region — the second read MUST be a
	// coherent cache hit, independent of how the concurrent phase was
	// scheduled.
	data := make([]float64, rows*cols)
	for v := 0; v < versions; v++ {
		k := counter.Add(1)
		for j := range data {
			data[j] = float64(k)
		}
		if err := s.Ingest(ctx, "obj", v, []uint64{0, 0}, []uint64{rows, cols}, data); err != nil {
			t.Fatal(err)
		}
		for _, reg := range regions {
			first, err := s.Query("obj", v, reg[0], reg[1])
			if err != nil {
				t.Fatal(err)
			}
			second, err := s.Query("obj", v, reg[0], reg[1])
			if err != nil {
				t.Fatal(err)
			}
			for j := range first {
				if first[j] != float64(k) || second[j] != first[j] {
					t.Fatalf("epilogue v%d cell %d: first %v second %v, want %d", v, j, first[j], second[j], k)
				}
			}
		}
	}

	st := d.CacheStats()
	if st.Hits == 0 {
		t.Error("property run produced zero cache hits — interleaving never exercised the cache")
	}
	if st.Invalidations == 0 {
		t.Error("property run produced zero invalidations")
	}
	rep, err := trace.Verify(rec.Snapshot())
	if err != nil {
		t.Fatalf("trace verify: %v", err)
	}
	if rep.Checks[trace.RuleCacheCoherence] == 0 {
		t.Fatal("verify checked no cache coherence events")
	}
}

// TestCacheKeyGolden pins a few encodings so an accidental format change
// (which would silently orphan every cached entry) shows up in review.
func TestCacheKeyGolden(t *testing.T) {
	k := cacheKey("gtc/field", 3, []uint64{1, 2}, []uint64{5, 6}, opReduceSum)
	want := []byte{
		byte(opReduceSum),
		0, 0, 0, 9, 'g', 't', 'c', '/', 'f', 'i', 'e', 'l', 'd',
		0, 0, 0, 0, 0, 0, 0, 3,
		2,
		0, 0, 0, 0, 0, 0, 0, 1,
		0, 0, 0, 0, 0, 0, 0, 2,
		0, 0, 0, 0, 0, 0, 0, 5,
		0, 0, 0, 0, 0, 0, 0, 6,
	}
	if !bytes.Equal([]byte(k), want) {
		t.Fatalf("cache key encoding changed:\n got %x\nwant %x", k, want)
	}
}
