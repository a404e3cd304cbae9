package dataspaces

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
)

// flatSpace is the reference the differential test compares a Space
// with: per version, one flat array over the whole domain plus a put
// flag per cell, read and written one cell at a time by multi-index —
// none of the block, tile or run arithmetic of the real thing.
type flatSpace struct {
	dims, block []uint64
	versions    map[int]*flatVersion
}

type flatVersion struct {
	data []float64
	set  []bool
	// touched has a block's coordinate, and its cell count, once any put
	// reached the block.
	touched map[[3]uint64]int64
}

// eachCell visits every multi-index of [lb, ub) in row-major order.
func eachCell(lb, ub []uint64, visit func(idx []uint64)) {
	idx := append([]uint64(nil), lb...)
	for {
		visit(idx)
		d := len(idx) - 1
		for ; d >= 0; d-- {
			if idx[d]++; idx[d] < ub[d] {
				break
			}
			idx[d] = lb[d]
		}
		if d < 0 {
			return
		}
	}
}

// offset is idx's row-major position in the domain.
func (f *flatSpace) offset(idx []uint64) (pos uint64) {
	for d, i := range idx {
		pos = pos*f.dims[d] + i
	}
	return pos
}

// blockOf returns the coordinate of the block idx falls in (in its
// leading elements) and counts the block's cells.
func (f *flatSpace) blockOf(idx []uint64) (coord [3]uint64, cells int64) {
	cells = 1
	for d, i := range idx {
		coord[d] = i / f.block[d]
		cells *= int64(min((coord[d]+1)*f.block[d], f.dims[d]) - coord[d]*f.block[d])
	}
	return coord, cells
}

// before orders block coordinates row-major.
func before(a, b [3]uint64) bool {
	for d := range a {
		if a[d] != b[d] {
			return a[d] < b[d]
		}
	}
	return false
}

func (f *flatSpace) put(version int, lb, ub []uint64, data []float64) {
	v := f.versions[version]
	if v == nil {
		n := uint64(1)
		for _, d := range f.dims {
			n *= d
		}
		v = &flatVersion{data: make([]float64, n), set: make([]bool, n), touched: map[[3]uint64]int64{}}
		f.versions[version] = v
	}
	i := 0
	eachCell(lb, ub, func(idx []uint64) {
		pos := f.offset(idx)
		v.data[pos], v.set[pos] = data[i], true
		blk, cells := f.blockOf(idx)
		v.touched[blk] = cells
		i++
	})
}

// get returns the region's cells, or which of Get's two errors the first
// failing block in row-major block order earns: a block no put reached
// is "not in space", one with a requested cell unset has "unset cells".
func (f *flatSpace) get(version int, lb, ub []uint64) ([]float64, string) {
	v := f.versions[version]
	if v == nil {
		return nil, "not in space"
	}
	var out []float64
	var firstBad [3]uint64
	class := ""
	eachCell(lb, ub, func(idx []uint64) {
		pos := f.offset(idx)
		out = append(out, v.data[pos])
		if v.set[pos] {
			return
		}
		if blk, _ := f.blockOf(idx); class == "" || before(blk, firstBad) {
			firstBad, class = blk, "unset cells"
			if v.touched[blk] == 0 {
				class = "not in space"
			}
		}
	})
	return out, class
}

// foldRowMajor is Reduce as it was first written: a fold over Get's
// result from the first cell to the last.
func foldRowMajor(cells []float64, op ReduceOp) float64 {
	switch op {
	case ReduceMin:
		out := math.Inf(1)
		for _, v := range cells {
			out = math.Min(out, v)
		}
		return out
	case ReduceMax:
		out := math.Inf(-1)
		for _, v := range cells {
			out = math.Max(out, v)
		}
		return out
	}
	var sum float64
	for _, v := range cells {
		sum += v
	}
	if op == ReduceAvg {
		return sum / float64(len(cells))
	}
	return sum
}

// awkward returns non-integer cells with every special value in them.
func awkward(rng *rand.Rand, n int) []float64 {
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, math.MaxFloat64, math.SmallestNonzeroFloat64}
	out := make([]float64, n)
	for i := range out {
		if rng.Intn(200) == 0 {
			out[i] = special[rng.Intn(len(special))]
		} else {
			out[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(12)-4))
		}
	}
	return out
}

func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

// TestDifferentialAgainstFlatReference drives a Space and the flat
// reference through the same random interleaving of overlapping partial
// puts, gets, reductions, evictions and resizes, on domains of every
// rank whose block sizes do not divide their dims — and, for each rank,
// with regions larger than the scratch Reduce sums through. Every Get
// must return the reference's cells or its class of error; every Reduce
// must equal, bit for bit, the row-major fold of the reference's cells.
func TestDifferentialAgainstFlatReference(t *testing.T) {
	shapes := []struct{ dims, block []uint64 }{
		{[]uint64{10007}, []uint64{300}},
		{[]uint64{53}, []uint64{7}},
		{[]uint64{100, 150}, []uint64{7, 11}},
		{[]uint64{3, 5000}, []uint64{2, 129}},
		{[]uint64{9, 10, 11}, []uint64{4, 3, 5}},
		{[]uint64{20, 30, 40}, []uint64{6, 7, 9}},
		{[]uint64{4, 70, 70}, []uint64{3, 16, 33}},
	}
	steps := 120
	if testing.Short() {
		steps = 40
	}
	for si, sh := range shapes {
		sh := sh
		t.Run(fmt.Sprint(sh.dims), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(si) + 1))
			s, err := New(Config{Servers: 1 + rng.Intn(4), Domain: Domain{Dims: sh.dims, BlockSize: sh.block}})
			if err != nil {
				t.Fatal(err)
			}
			ref := &flatSpace{dims: sh.dims, block: sh.block, versions: map[int]*flatVersion{}}
			region := func() (lb, ub []uint64, cells int) {
				lb, ub, cells = make([]uint64, len(sh.dims)), make([]uint64, len(sh.dims)), 1
				if rng.Intn(4) == 0 {
					copy(ub, sh.dims)
				} else {
					for d, n := range sh.dims {
						lb[d] = uint64(rng.Intn(int(n)))
						ub[d] = lb[d] + 1 + uint64(rng.Intn(int(n-lb[d])))
					}
				}
				for d := range lb {
					cells *= int(ub[d] - lb[d])
				}
				return lb, ub, cells
			}
			var lastLb, lastUb []uint64 // the last put: a region that can be read
			for step := 0; step < steps; step++ {
				version := rng.Intn(3)
				switch k := rng.Intn(10); {
				case k < 4:
					lb, ub, n := region()
					data := awkward(rng, n)
					if err := s.Put("x", version, lb, ub, data); err != nil {
						t.Fatalf("step %d: Put %v-%v: %v", step, lb, ub, err)
					}
					ref.put(version, lb, ub, data)
					lastLb, lastUb = lb, ub
				case k < 8:
					lb, ub, _ := region()
					if lastLb != nil && rng.Intn(2) == 0 {
						lb, ub = lastLb, lastUb
					}
					want, class := ref.get(version, lb, ub)
					got, err := s.Get("x", version, lb, ub)
					if class != "" {
						if err == nil || !strings.Contains(err.Error(), class) {
							t.Fatalf("step %d: Get %d %v-%v: error %v, want one with %q", step, version, lb, ub, err, class)
						}
						// Reduce sums a large region a slab of rows at a
						// time, so it may meet another bad block first.
						for _, op := range []ReduceOp{ReduceMin, ReduceSum} {
							_, err := s.Reduce("x", version, lb, ub, op)
							if err == nil || !(strings.Contains(err.Error(), "unset cells") || strings.Contains(err.Error(), "not in space")) {
								t.Fatalf("step %d: Reduce %d %v-%v: error %v, want one of Get's", step, version, lb, ub, err)
							}
						}
						continue
					}
					if err != nil {
						t.Fatalf("step %d: Get %d %v-%v: %v", step, version, lb, ub, err)
					}
					if len(got) != len(want) {
						t.Fatalf("step %d: Get %v-%v: %d cells, want %d", step, lb, ub, len(got), len(want))
					}
					for i := range want {
						if !sameBits(got[i], want[i]) {
							t.Fatalf("step %d: Get %d %v-%v cell %d: %v, want %v", step, version, lb, ub, i, got[i], want[i])
						}
					}
					for _, op := range []ReduceOp{ReduceMin, ReduceMax, ReduceSum, ReduceAvg} {
						got, err := s.Reduce("x", version, lb, ub, op)
						if err != nil {
							t.Fatalf("step %d: Reduce op %d: %v", step, op, err)
						}
						if want := foldRowMajor(want, op); !sameBits(got, want) {
							t.Fatalf("step %d: Reduce op %d over %v-%v: %v (%#x), want %v (%#x)", step, op, lb, ub,
								got, math.Float64bits(got), want, math.Float64bits(want))
						}
					}
				case k == 8:
					var want int64
					if v := ref.versions[version]; v != nil {
						for _, cells := range v.touched {
							want += cells
						}
					}
					if got := s.EvictVersion("x", version); got != want {
						t.Fatalf("step %d: EvictVersion %d released %d cells, want %d", step, version, got, want)
					}
					delete(ref.versions, version)
				default:
					if _, err := s.Resize(1 + rng.Intn(5)); err != nil {
						t.Fatal(err)
					}
				}
				if vs := s.Versions("x"); len(vs) != len(ref.versions) {
					t.Fatalf("step %d: versions %v, reference has %d", step, vs, len(ref.versions))
				}
			}
		})
	}
}

// TestRecycledSlabForgetsValidity: a slab that comes back off the free
// list must come back with no cell valid, whether it was last a partly
// put block (its bitmap has bits set) or a full one (which is full by
// its count alone). Without the two resets in server.slab the Gets of
// never-put cells below succeed and return the evicted version's values.
func TestRecycledSlabForgetsValidity(t *testing.T) {
	s, err := New(Config{Servers: 1, Domain: Domain{Dims: []uint64{16, 16}, BlockSize: []uint64{8, 8}}})
	if err != nil {
		t.Fatal(err)
	}
	srv := s.servers[0]
	slabs := func() map[*blockData]bool {
		m := map[*blockData]bool{}
		for _, bd := range srv.objects {
			m[bd] = true
		}
		return m
	}
	sevens := make([]float64, 16*16)
	for i := range sevens {
		sevens[i] = 7
	}
	if err := s.Put("x", 1, []uint64{0, 0}, []uint64{16, 16}, sevens); err != nil {
		t.Fatal(err)
	}
	full := slabs()
	if err := s.Put("x", 2, []uint64{0, 0}, []uint64{2, 8}, sevens[:16]); err != nil {
		t.Fatal(err)
	}
	partial := slabs()
	for bd := range full {
		delete(partial, bd)
	}

	// recycled puts three cells of a new version at lb, checks that their
	// block's slab is one of from, and reads around them.
	recycled := func(version int, lb []uint64, from map[*blockData]bool, unset ...[]uint64) {
		t.Helper()
		ub := []uint64{lb[0] + 1, lb[1] + 3}
		if err := s.Put("x", version, lb, ub, []float64{1, 2, 3}); err != nil {
			t.Fatal(err)
		}
		bd := srv.versions[objVer{"x", version}]
		if bd == nil || bd.next != nil || !from[bd] {
			t.Fatal("the new block's slab did not come off the free list; the test checks nothing")
		}
		if got, err := s.Get("x", version, lb, ub); err != nil || got[2] != 3 {
			t.Fatalf("the cells just put: %v, %v", got, err)
		}
		for _, cell := range unset {
			got, err := s.Get("x", version, cell, []uint64{cell[0] + 1, cell[1] + 1})
			if err == nil || !strings.Contains(err.Error(), "unset cells") {
				t.Errorf("cell %v of a recycled slab, never put in version %d: got %v, %v; want an \"unset cells\" error", cell, version, got, err)
			}
		}
	}
	s.EvictVersion("x", 2)
	recycled(3, []uint64{0, 0}, partial, []uint64{0, 3}, []uint64{1, 0}, []uint64{7, 7})
	s.EvictVersion("x", 1)
	recycled(4, []uint64{8, 8}, full, []uint64{8, 11}, []uint64{9, 8}, []uint64{15, 15})
}

// TestFreeListBounds: the free list never holds more cells than the shard
// stored when the eviction began, and a Resize drops it.
func TestFreeListBounds(t *testing.T) {
	s, err := New(Config{Servers: 1, Domain: Domain{Dims: []uint64{64}, BlockSize: []uint64{8}}})
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 4; v++ {
		if err := s.Put("x", v, []uint64{0}, []uint64{64}, make([]float64, 64)); err != nil {
			t.Fatal(err)
		}
	}
	srv := s.servers[0]
	for v, want := range []int64{64, 128, 128, 128} {
		// 256, 192, 128, then 64 cells stored as each eviction begins: the
		// third would make 192 free cells, the bound is 128.
		s.EvictVersion("x", v)
		if srv.freeCells != want {
			t.Fatalf("after evicting %d versions: %d free cells, want %d", v+1, srv.freeCells, want)
		}
	}
	if got := s.MemoryCells(); got != 0 {
		t.Fatalf("free slabs counted as stored: MemoryCells %d", got)
	}
	if _, err := s.Resize(2); err != nil {
		t.Fatal(err)
	}
	for i, srv := range s.servers {
		if srv.freeCells != 0 || len(srv.free) != 0 {
			t.Fatalf("shard %d kept %d free cells across a Resize", i, srv.freeCells)
		}
	}
}

// serveMixed is the shape of the repository benchmark's serve-mixed
// workload: 2 MiB versions in 32 x 32 blocks, 32 x 128 queries.
func serveMixed(tb testing.TB) (s *Space, lb, ub, qlb, qub []uint64, version []float64) {
	s, err := New(Config{Servers: 2, Domain: Domain{Dims: []uint64{512, 512}, BlockSize: []uint64{32, 32}}})
	if err != nil {
		tb.Fatal(err)
	}
	version = make([]float64, 512*512)
	for i := range version {
		version[i] = float64(i%1021) + 0.25
	}
	return s, []uint64{0, 0}, []uint64{512, 512}, []uint64{100, 200}, []uint64{132, 328}, version
}

// TestPutEvictAllocationBudget: in steady state a 2 MiB version is put
// into recycled slabs and evicted without allocating per block, let
// alone per cell.
func TestPutEvictAllocationBudget(t *testing.T) {
	s, lb, ub, _, _, data := serveMixed(t)
	version := 0
	cycle := func() {
		version++
		if err := s.Put("x", version, lb, ub, data); err != nil {
			t.Fatal(err)
		}
		s.EvictVersion("x", version)
	}
	cycle()
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	objects := testing.AllocsPerRun(runs, cycle)
	runtime.ReadMemStats(&after)
	// AllocsPerRun makes one warm-up call of its own.
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / (runs + 1)
	t.Logf("Put+EvictVersion of %d bytes: %.0f objects, %.0f bytes allocated", len(data)*8, objects, bytes)
	if objects > 16 || bytes > 4<<10 {
		t.Errorf("Put+EvictVersion allocated %.0f objects and %.0f bytes, budget 16 and 4096", objects, bytes)
	}
}

func BenchmarkPut(b *testing.B) {
	s, lb, ub, _, _, data := serveMixed(b)
	if err := s.Put("x", 0, lb, ub, data); err != nil { // the blocks exist: time the copy
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(int64(len(data)) * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Put("x", 0, lb, ub, data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPutEvict(b *testing.B) {
	s, lb, ub, _, _, data := serveMixed(b)
	if err := s.Put("x", -1, lb, ub, data); err != nil { // steady state: slabs on the free list
		b.Fatal(err)
	}
	s.EvictVersion("x", -1)
	b.ReportAllocs()
	b.SetBytes(int64(len(data)) * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Put("x", i, lb, ub, data); err != nil {
			b.Fatal(err)
		}
		s.EvictVersion("x", i)
	}
}

var benchSink float64

func BenchmarkGet(b *testing.B) {
	s, lb, ub, qlb, qub, data := serveMixed(b)
	if err := s.Put("x", 0, lb, ub, data); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(32 * 128 * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cells, err := s.Get("x", 0, qlb, qub)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = cells[0]
	}
}

func BenchmarkReduce(b *testing.B) {
	s, lb, ub, qlb, qub, data := serveMixed(b)
	if err := s.Put("x", 0, lb, ub, data); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(32 * 128 * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sum, err := s.Reduce("x", 0, qlb, qub, ReduceSum)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = sum
	}
}
