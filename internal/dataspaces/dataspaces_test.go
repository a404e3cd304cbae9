package dataspaces

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func newSpace(t testing.TB, servers int, dims ...uint64) *Space {
	t.Helper()
	s, err := New(Config{Servers: servers, Domain: Domain{Dims: dims}})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewValidation(t *testing.T) {
	cases := []Config{
		{Servers: 0, Domain: Domain{Dims: []uint64{4}}},
		{Servers: 1, Domain: Domain{Dims: nil}},
		{Servers: 1, Domain: Domain{Dims: []uint64{1, 1, 1, 1}}},
		{Servers: 1, Domain: Domain{Dims: []uint64{0}}},
		{Servers: 1, Domain: Domain{Dims: []uint64{4, 4}, BlockSize: []uint64{2}}},
		{Servers: 1, Domain: Domain{Dims: []uint64{4, 4}, BlockSize: []uint64{0, 2}}},
	}
	for i, cfg := range cases {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
}

func TestPutGetRoundTrip1D(t *testing.T) {
	s := newSpace(t, 3, 100)
	data := make([]float64, 40)
	for i := range data {
		data[i] = float64(i) * 1.5
	}
	if err := s.Put("field", 1, []uint64{10}, []uint64{50}, data); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get("field", 1, []uint64{10}, []uint64{50})
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if got[i] != data[i] {
			t.Fatalf("elem %d = %g want %g", i, got[i], data[i])
		}
	}
	// Sub-region get.
	sub, err := s.Get("field", 1, []uint64{20}, []uint64{25})
	if err != nil {
		t.Fatal(err)
	}
	for i := range sub {
		if sub[i] != data[10+i] {
			t.Fatalf("sub elem %d = %g", i, sub[i])
		}
	}
}

func TestPutGetRoundTrip2D(t *testing.T) {
	s := newSpace(t, 4, 64, 64)
	// Put four quadrants from different "writers"; get arbitrary regions.
	ref := make([]float64, 64*64)
	for i := range ref {
		ref[i] = rand.Float64()
	}
	for qx := uint64(0); qx < 2; qx++ {
		for qy := uint64(0); qy < 2; qy++ {
			lb := []uint64{qx * 32, qy * 32}
			ub := []uint64{qx*32 + 32, qy*32 + 32}
			block := make([]float64, 32*32)
			for x := uint64(0); x < 32; x++ {
				for y := uint64(0); y < 32; y++ {
					block[x*32+y] = ref[(lb[0]+x)*64+lb[1]+y]
				}
			}
			if err := s.Put("grid", 0, lb, ub, block); err != nil {
				t.Fatal(err)
			}
		}
	}
	// A region spanning all four quadrants.
	got, err := s.Get("grid", 0, []uint64{16, 16}, []uint64{48, 48})
	if err != nil {
		t.Fatal(err)
	}
	for x := uint64(0); x < 32; x++ {
		for y := uint64(0); y < 32; y++ {
			want := ref[(16+x)*64+16+y]
			if got[x*32+y] != want {
				t.Fatalf("(%d,%d) = %g want %g", x, y, got[x*32+y], want)
			}
		}
	}
}

func TestPutGetRoundTrip3D(t *testing.T) {
	s := newSpace(t, 2, 8, 8, 8)
	data := make([]float64, 8*8*8)
	for i := range data {
		data[i] = float64(i)
	}
	if err := s.Put("cube", 2, []uint64{0, 0, 0}, []uint64{8, 8, 8}, data); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get("cube", 2, []uint64{2, 3, 4}, []uint64{5, 6, 7})
	if err != nil {
		t.Fatal(err)
	}
	pos := 0
	for x := uint64(2); x < 5; x++ {
		for y := uint64(3); y < 6; y++ {
			for z := uint64(4); z < 7; z++ {
				if got[pos] != data[(x*8+y)*8+z] {
					t.Fatalf("(%d,%d,%d) = %g", x, y, z, got[pos])
				}
				pos++
			}
		}
	}
}

func TestPutValidation(t *testing.T) {
	s := newSpace(t, 2, 16, 16)
	if err := s.Put("", 0, []uint64{0, 0}, []uint64{1, 1}, []float64{1}); err == nil {
		t.Error("empty name accepted")
	}
	if err := s.Put("x", 0, []uint64{0}, []uint64{1}, []float64{1}); err == nil {
		t.Error("rank mismatch accepted")
	}
	if err := s.Put("x", 0, []uint64{1, 1}, []uint64{1, 2}, nil); err == nil {
		t.Error("empty region accepted")
	}
	if err := s.Put("x", 0, []uint64{0, 0}, []uint64{17, 1}, make([]float64, 17)); err == nil {
		t.Error("out-of-domain region accepted")
	}
	if err := s.Put("x", 0, []uint64{0, 0}, []uint64{2, 2}, []float64{1}); err == nil {
		t.Error("data length mismatch accepted")
	}
}

func TestGetMissingData(t *testing.T) {
	s := newSpace(t, 2, 32)
	if _, err := s.Get("ghost", 0, []uint64{0}, []uint64{4}); err == nil {
		t.Error("get of absent object accepted")
	}
	// Partial block coverage: cells inside a stored block but never put.
	if err := s.Put("partial", 0, []uint64{0}, []uint64{3}, []float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("partial", 0, []uint64{0}, []uint64{5}); err == nil {
		t.Error("get of unset cells accepted")
	}
	// Wrong version.
	if _, err := s.Get("partial", 9, []uint64{0}, []uint64{3}); err == nil {
		t.Error("get of absent version accepted")
	}
}

func TestVersionsAreIndependent(t *testing.T) {
	s := newSpace(t, 2, 10)
	for v := 0; v < 3; v++ {
		data := []float64{float64(v), float64(v) + 0.5}
		if err := s.Put("ts", v, []uint64{0}, []uint64{2}, data); err != nil {
			t.Fatal(err)
		}
	}
	for v := 0; v < 3; v++ {
		got, err := s.Get("ts", v, []uint64{0}, []uint64{2})
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != float64(v) {
			t.Fatalf("version %d returned %v", v, got)
		}
	}
	if vs := s.Versions("ts"); len(vs) != 3 || vs[0] != 0 || vs[2] != 2 {
		t.Fatalf("versions %v", vs)
	}
	if vs := s.Versions("none"); len(vs) != 0 {
		t.Fatalf("versions of absent object %v", vs)
	}
}

func TestReduceQueries(t *testing.T) {
	s := newSpace(t, 3, 16)
	data := []float64{4, -2, 10, 8}
	if err := s.Put("r", 0, []uint64{0}, []uint64{4}, data); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		op   ReduceOp
		want float64
	}{
		{ReduceMin, -2}, {ReduceMax, 10}, {ReduceSum, 20}, {ReduceAvg, 5},
	}
	for _, c := range cases {
		got, err := s.Reduce("r", 0, []uint64{0}, []uint64{4}, c.op)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("op %d = %g want %g", c.op, got, c.want)
		}
	}
	if _, err := s.Reduce("r", 0, []uint64{0}, []uint64{4}, ReduceOp(99)); err == nil {
		t.Error("unknown op accepted")
	}
}

func TestSubscribeNotifies(t *testing.T) {
	s := newSpace(t, 2, 100)
	ch, cancel, err := s.Subscribe("live", []uint64{10}, []uint64{20})
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	// Non-intersecting put: no notification.
	if err := s.Put("live", 0, []uint64{30}, []uint64{40}, make([]float64, 10)); err != nil {
		t.Fatal(err)
	}
	select {
	case n := <-ch:
		t.Fatalf("unexpected notification %+v", n)
	case <-time.After(10 * time.Millisecond):
	}
	// Intersecting put notifies.
	if err := s.Put("live", 1, []uint64{15}, []uint64{25}, make([]float64, 10)); err != nil {
		t.Fatal(err)
	}
	select {
	case n := <-ch:
		if n.Version != 1 || n.Name != "live" || n.Lb[0] != 15 {
			t.Fatalf("notification %+v", n)
		}
	case <-time.After(time.Second):
		t.Fatal("no notification for intersecting put")
	}
	// Different object name: no notification.
	if err := s.Put("other", 2, []uint64{15}, []uint64{25}, make([]float64, 10)); err != nil {
		t.Fatal(err)
	}
	select {
	case n := <-ch:
		t.Fatalf("cross-object notification %+v", n)
	case <-time.After(10 * time.Millisecond):
	}
	cancel()
	cancel() // double-cancel is safe
	if _, ok := <-ch; ok {
		t.Error("channel not closed after cancel")
	}
	// Subscribe validation.
	if _, _, err := s.Subscribe("x", []uint64{5}, []uint64{5}); err == nil {
		t.Error("empty region subscription accepted")
	}
}

func TestLoadBalanceAcrossServers(t *testing.T) {
	s := newSpace(t, 8, 1024, 1024)
	data := make([]float64, 1024)
	// Insert 64 scattered row strips.
	for i := uint64(0); i < 64; i++ {
		lb := []uint64{i * 16, 0}
		ub := []uint64{i*16 + 1, 1024}
		if err := s.Put("big", 0, lb, ub, data); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if len(st.BlocksPerServer) != 8 {
		t.Fatalf("stats %+v", st)
	}
	var total, min, max int
	min = 1 << 30
	for _, n := range st.BlocksPerServer {
		total += n
		if n < min {
			min = n
		}
		if n > max {
			max = n
		}
	}
	if total == 0 {
		t.Fatal("no blocks stored")
	}
	// SFC round-robin placement must not leave any server starved.
	if min == 0 {
		t.Errorf("server with zero blocks: %v", st.BlocksPerServer)
	}
	if max > 4*min {
		t.Errorf("imbalanced placement: %v", st.BlocksPerServer)
	}
	if s.Servers() != 8 {
		t.Errorf("servers %d", s.Servers())
	}
}

// TestQueriesSpreadAcrossServers: region gets spanning the domain touch
// every server, so query load is distributed (the paper's second-level
// load balancing).
func TestQueriesSpreadAcrossServers(t *testing.T) {
	s := newSpace(t, 4, 256, 256)
	data := make([]float64, 256*256)
	if err := s.Put("q", 0, []uint64{0, 0}, []uint64{256, 256}, data); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		lo := uint64(i * 16)
		if _, err := s.Get("q", 0, []uint64{lo, 0}, []uint64{lo + 16, 256}); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	for i, q := range st.QueriesPerServer {
		if q == 0 {
			t.Errorf("server %d served no queries: %v", i, st.QueriesPerServer)
		}
	}
}

func TestOverwriteSameVersion(t *testing.T) {
	s := newSpace(t, 2, 10)
	if err := s.Put("w", 0, []uint64{0}, []uint64{4}, []float64{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("w", 0, []uint64{2}, []uint64{4}, []float64{30, 40}); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get("w", 0, []uint64{0}, []uint64{4})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 2, 30, 40}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v", got)
		}
	}
}

func TestEvictVersion(t *testing.T) {
	s := newSpace(t, 3, 64)
	for v := 0; v < 3; v++ {
		if err := s.Put("e", v, []uint64{0}, []uint64{64}, make([]float64, 64)); err != nil {
			t.Fatal(err)
		}
	}
	before := s.MemoryCells()
	if before == 0 {
		t.Fatal("no memory accounted")
	}
	released := s.EvictVersion("e", 1)
	if released == 0 {
		t.Fatal("eviction released nothing")
	}
	if got := s.MemoryCells(); got != before-released {
		t.Errorf("memory %d, want %d", got, before-released)
	}
	if _, err := s.Get("e", 1, []uint64{0}, []uint64{4}); err == nil {
		t.Error("evicted version still readable")
	}
	if _, err := s.Get("e", 0, []uint64{0}, []uint64{4}); err != nil {
		t.Errorf("surviving version unreadable: %v", err)
	}
	if vs := s.Versions("e"); len(vs) != 2 {
		t.Errorf("versions after eviction %v", vs)
	}
	if released := s.EvictVersion("e", 99); released != 0 {
		t.Errorf("evicting absent version released %d", released)
	}
}

// TestPutGetProperty: random tilings of a 2D domain reassemble exactly
// from random query regions.
func TestPutGetProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nx := uint64(8 + rng.Intn(56))
		ny := uint64(8 + rng.Intn(56))
		s, err := New(Config{Servers: 1 + rng.Intn(6), Domain: Domain{Dims: []uint64{nx, ny}}})
		if err != nil {
			t.Log(err)
			return false
		}
		ref := make([]float64, nx*ny)
		for i := range ref {
			ref[i] = rng.Float64()
		}
		// Tile into vertical bands.
		for x := uint64(0); x < nx; {
			w := 1 + uint64(rng.Intn(int(nx-x)))
			band := make([]float64, w*ny)
			for dx := uint64(0); dx < w; dx++ {
				copy(band[dx*ny:(dx+1)*ny], ref[(x+dx)*ny:(x+dx+1)*ny])
			}
			if err := s.Put("p", 0, []uint64{x, 0}, []uint64{x + w, ny}, band); err != nil {
				t.Log(err)
				return false
			}
			x += w
		}
		// Random query regions.
		for q := 0; q < 5; q++ {
			lx := uint64(rng.Intn(int(nx)))
			ly := uint64(rng.Intn(int(ny)))
			hx := lx + 1 + uint64(rng.Intn(int(nx-lx)))
			hy := ly + 1 + uint64(rng.Intn(int(ny-ly)))
			got, err := s.Get("p", 0, []uint64{lx, ly}, []uint64{hx, hy})
			if err != nil {
				t.Log(err)
				return false
			}
			pos := 0
			for x := lx; x < hx; x++ {
				for y := ly; y < hy; y++ {
					if got[pos] != ref[x*ny+y] {
						return false
					}
					pos++
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentPutsAndGets(t *testing.T) {
	s := newSpace(t, 4, 256, 64)
	const writers = 8
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lb := []uint64{uint64(w) * 32, 0}
			ub := []uint64{uint64(w)*32 + 32, 64}
			data := make([]float64, 32*64)
			for i := range data {
				data[i] = float64(w)
			}
			if err := s.Put("conc", 0, lb, ub, data); err != nil {
				t.Error(err)
			}
		}(w)
	}
	wg.Wait()
	got, err := s.Get("conc", 0, []uint64{0, 0}, []uint64{256, 64})
	if err != nil {
		t.Fatal(err)
	}
	for w := 0; w < writers; w++ {
		if got[w*32*64] != float64(w) {
			t.Errorf("writer %d region = %g", w, got[w*32*64])
		}
	}
}

func TestLockServiceExcludesWriters(t *testing.T) {
	s := newSpace(t, 1, 8)
	s.AcquireRead("obj")
	s.AcquireRead("obj") // multiple readers fine
	writeDone := make(chan struct{})
	go func() {
		s.AcquireWrite("obj")
		close(writeDone)
	}()
	select {
	case <-writeDone:
		t.Fatal("writer acquired lock while readers held it")
	case <-time.After(20 * time.Millisecond):
	}
	if err := s.ReleaseRead("obj"); err != nil {
		t.Fatal(err)
	}
	if err := s.ReleaseRead("obj"); err != nil {
		t.Fatal(err)
	}
	select {
	case <-writeDone:
	case <-time.After(time.Second):
		t.Fatal("writer never acquired after readers released")
	}
	// Reader blocks while writer holds.
	readDone := make(chan struct{})
	go func() {
		s.AcquireRead("obj")
		close(readDone)
	}()
	select {
	case <-readDone:
		t.Fatal("reader acquired lock while writer held it")
	case <-time.After(20 * time.Millisecond):
	}
	if err := s.ReleaseWrite("obj"); err != nil {
		t.Fatal(err)
	}
	select {
	case <-readDone:
	case <-time.After(time.Second):
		t.Fatal("reader never acquired after writer released")
	}
	s.ReleaseRead("obj")
	// Misuse errors.
	if err := s.ReleaseRead("obj"); err == nil {
		t.Error("extra ReleaseRead accepted")
	}
	if err := s.ReleaseWrite("obj"); err == nil {
		t.Error("ReleaseWrite without writer accepted")
	}
}

func TestReduceOnSubRegion(t *testing.T) {
	s := newSpace(t, 2, 8, 8)
	data := make([]float64, 64)
	for i := range data {
		data[i] = float64(i % 10)
	}
	if err := s.Put("m", 0, []uint64{0, 0}, []uint64{8, 8}, data); err != nil {
		t.Fatal(err)
	}
	got, err := s.Reduce("m", 0, []uint64{0, 0}, []uint64{1, 8}, ReduceMax)
	if err != nil {
		t.Fatal(err)
	}
	want := math.Inf(-1)
	for i := 0; i < 8; i++ {
		want = math.Max(want, data[i])
	}
	if got != want {
		t.Errorf("max %g want %g", got, want)
	}
}

func BenchmarkPutGet2D(b *testing.B) {
	s, err := New(Config{Servers: 4, Domain: Domain{Dims: []uint64{1024, 256}}})
	if err != nil {
		b.Fatal(err)
	}
	data := make([]float64, 1024*256/16)
	b.ReportAllocs()
	b.SetBytes(2 * int64(len(data)) * 8) // put, then got
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := i
		if err := s.Put("bench", v, []uint64{0, 0}, []uint64{64, 256}, data); err != nil {
			b.Fatal(err)
		}
		if _, err := s.Get("bench", v, []uint64{0, 0}, []uint64{64, 256}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestPutGet3DProperty: random 3D brick tilings reassemble exactly from
// random query cubes.
func TestPutGet3DProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := uint64(4 + rng.Intn(12))
		s, err := New(Config{Servers: 1 + rng.Intn(4), Domain: Domain{Dims: []uint64{n, n, n}}})
		if err != nil {
			t.Log(err)
			return false
		}
		ref := make([]float64, n*n*n)
		for i := range ref {
			ref[i] = rng.Float64()
		}
		// Tile into x-slabs of random thickness.
		for x := uint64(0); x < n; {
			d := 1 + uint64(rng.Intn(int(n-x)))
			slab := make([]float64, d*n*n)
			copy(slab, ref[x*n*n:(x+d)*n*n])
			if err := s.Put("c", 0, []uint64{x, 0, 0}, []uint64{x + d, n, n}, slab); err != nil {
				t.Log(err)
				return false
			}
			x += d
		}
		for q := 0; q < 4; q++ {
			var lo, hi [3]uint64
			for d := 0; d < 3; d++ {
				lo[d] = uint64(rng.Intn(int(n)))
				hi[d] = lo[d] + 1 + uint64(rng.Intn(int(n-lo[d])))
			}
			got, err := s.Get("c", 0, lo[:], hi[:])
			if err != nil {
				t.Log(err)
				return false
			}
			pos := 0
			for x := lo[0]; x < hi[0]; x++ {
				for y := lo[1]; y < hi[1]; y++ {
					for z := lo[2]; z < hi[2]; z++ {
						if got[pos] != ref[(x*n+y)*n+z] {
							return false
						}
						pos++
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
