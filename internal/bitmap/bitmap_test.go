package bitmap

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func mustBitmap(t testing.TB, n uint64, idx []uint64) *Bitmap {
	t.Helper()
	bm, err := FromIndices(n, idx)
	if err != nil {
		t.Fatal(err)
	}
	return bm
}

func TestEmptyBitmap(t *testing.T) {
	bm := mustBitmap(t, 1000, nil)
	if bm.Count() != 0 || bm.Bits() != 1000 {
		t.Errorf("count %d bits %d", bm.Count(), bm.Bits())
	}
	if got := bm.Indices(); len(got) != 0 {
		t.Errorf("indices %v", got)
	}
	// 1000 zero bits compress into very few words.
	if bm.Words() > 2 {
		t.Errorf("empty bitmap uses %d words", bm.Words())
	}
}

func TestDenseBitmap(t *testing.T) {
	n := uint64(500)
	idx := make([]uint64, n)
	for i := range idx {
		idx[i] = uint64(i)
	}
	bm := mustBitmap(t, n, idx)
	if bm.Count() != n {
		t.Errorf("count %d", bm.Count())
	}
	// All-ones compresses to fills plus a final literal.
	if bm.Words() > 3 {
		t.Errorf("all-ones bitmap uses %d words", bm.Words())
	}
}

func TestSetGetRoundTrip(t *testing.T) {
	idx := []uint64{0, 1, 62, 63, 64, 126, 127, 500, 999}
	bm := mustBitmap(t, 1000, idx)
	want := map[uint64]bool{}
	for _, i := range idx {
		want[i] = true
	}
	for pos := uint64(0); pos < 1000; pos++ {
		got, err := bm.Get(pos)
		if err != nil {
			t.Fatal(err)
		}
		if got != want[pos] {
			t.Errorf("bit %d = %v", pos, got)
		}
	}
	if _, err := bm.Get(1000); err == nil {
		t.Error("out-of-range Get accepted")
	}
}

func TestIndicesRoundTrip(t *testing.T) {
	idx := []uint64{3, 77, 78, 200, 201, 202, 941}
	bm := mustBitmap(t, 1000, idx)
	got := bm.Indices()
	if len(got) != len(idx) {
		t.Fatalf("got %v", got)
	}
	for i := range idx {
		if got[i] != idx[i] {
			t.Errorf("index %d = %d want %d", i, got[i], idx[i])
		}
	}
}

func TestBuilderValidation(t *testing.T) {
	b := NewBuilder()
	if err := b.Set(5); err != nil {
		t.Fatal(err)
	}
	if err := b.Set(5); err == nil {
		t.Error("repeated position accepted")
	}
	if err := b.Set(3); err == nil {
		t.Error("decreasing position accepted")
	}
	if _, err := b.Finish(5); err == nil {
		t.Error("Finish below last set bit accepted")
	}
	if _, err := FromIndices(10, []uint64{10}); err == nil {
		t.Error("out-of-range index accepted")
	}
}

func TestOr(t *testing.T) {
	a := mustBitmap(t, 300, []uint64{1, 5, 100, 200, 299})
	b := mustBitmap(t, 300, []uint64{5, 100, 150, 299})
	or, err := a.Or(b)
	if err != nil {
		t.Fatal(err)
	}
	if or.Count() != 6 {
		t.Errorf("or count %d", or.Count())
	}
	short := mustBitmap(t, 100, nil)
	if _, err := a.Or(short); err == nil {
		t.Error("length mismatch accepted")
	}
}

// TestOpsMatchReference: random bitmaps and their union, compared
// against a map-based reference implementation.
func TestOpsMatchReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := uint64(1 + rng.Intn(2000))
		genSet := func() map[uint64]bool {
			m := make(map[uint64]bool)
			k := rng.Intn(int(n))
			for i := 0; i < k; i++ {
				m[uint64(rng.Intn(int(n)))] = true
			}
			return m
		}
		toBitmap := func(m map[uint64]bool) *Bitmap {
			idx := make([]uint64, 0, len(m))
			for i := range m {
				idx = append(idx, i)
			}
			sort.Slice(idx, func(a, b int) bool { return idx[a] < idx[b] })
			bm, err := FromIndices(n, idx)
			if err != nil {
				t.Log(err)
				return nil
			}
			return bm
		}
		sa, sb := genSet(), genSet()
		a, b := toBitmap(sa), toBitmap(sb)
		if a == nil || b == nil {
			return false
		}
		check := func(bm *Bitmap, pred func(pos uint64) bool) bool {
			if bm == nil {
				return false
			}
			got := bm.Indices()
			var want []uint64
			for pos := uint64(0); pos < n; pos++ {
				if pred(pos) {
					want = append(want, pos)
				}
			}
			if len(got) != len(want) {
				return false
			}
			for i := range got {
				if got[i] != want[i] {
					return false
				}
			}
			return uint64(len(want)) == bm.Count()
		}
		or, err := a.Or(b)
		if err != nil {
			return false
		}
		return check(or, func(p uint64) bool { return sa[p] || sb[p] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestCompressionOnRuns(t *testing.T) {
	// A bitmap with one million bits and a handful of set positions must
	// stay tiny.
	idx := []uint64{0, 500_000, 999_999}
	bm := mustBitmap(t, 1_000_000, idx)
	if bm.Words() > 8 {
		t.Errorf("sparse million-bit bitmap uses %d words", bm.Words())
	}
	if got := bm.Indices(); len(got) != 3 || got[1] != 500_000 {
		t.Errorf("indices %v", got)
	}
}

func TestBuildIndexValidation(t *testing.T) {
	if _, err := BuildIndex([]float64{1}, 0, [2]float64{0, 1}); err == nil {
		t.Error("zero bins accepted")
	}
	if _, err := BuildIndex([]float64{1}, 4, [2]float64{1, 1}); err == nil {
		t.Error("empty range accepted")
	}
	if _, err := BuildIndex([]float64{1}, 4, [2]float64{2, 1}); err == nil {
		t.Error("inverted range accepted")
	}
}

func TestIndexQueryExact(t *testing.T) {
	values := []float64{0.05, 0.15, 0.25, 0.35, 0.45, 0.55, 0.65, 0.75, 0.85, 0.95}
	ix, err := BuildIndex(values, 4, [2]float64{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	got, err := ix.Query(values, RangeQuery{Lo: 0.2, Hi: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	want := []uint64{2, 3, 4, 5}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("row %d = %d want %d", i, got[i], want[i])
		}
	}
	// Empty range.
	got, err = ix.Query(values, RangeQuery{Lo: 0.6, Hi: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("empty range returned %v", got)
	}
	// Length mismatch.
	if _, err := ix.Query(values[:5], RangeQuery{Lo: 0, Hi: 1}); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestIndexBinAccess(t *testing.T) {
	ix, _ := BuildIndex([]float64{0.1, 0.9}, 2, [2]float64{0, 1})
	if _, err := ix.Bin(-1); err == nil {
		t.Error("negative bin accepted")
	}
	if _, err := ix.Bin(2); err == nil {
		t.Error("out-of-range bin accepted")
	}
	b0, err := ix.Bin(0)
	if err != nil {
		t.Fatal(err)
	}
	if b0.Count() != 1 {
		t.Errorf("bin 0 count %d", b0.Count())
	}
	if ix.CompressedWords() <= 0 {
		t.Error("compressed words not positive")
	}
}

// TestIndexQueryMatchesScanProperty: index query equals a linear scan for
// random data and ranges.
func TestIndexQueryMatchesScanProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(3000)
		values := make([]float64, n)
		for i := range values {
			values[i] = rng.Float64()*20 - 10
		}
		bins := 1 + rng.Intn(64)
		ix, err := BuildIndex(values, bins, [2]float64{-10, 10})
		if err != nil {
			t.Log(err)
			return false
		}
		lo := rng.Float64()*20 - 10
		hi := lo + rng.Float64()*5
		got, err := ix.Query(values, RangeQuery{Lo: lo, Hi: hi})
		if err != nil {
			t.Log(err)
			return false
		}
		var want []uint64
		for i, v := range values {
			if v >= lo && v < hi {
				want = append(want, uint64(i))
			}
		}
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkIndexQuery100k(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	values := make([]float64, 100_000)
	for i := range values {
		values[i] = rng.Float64()
	}
	ix, err := BuildIndex(values, 64, [2]float64{0, 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(int64(len(values) * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ix.Query(values, RangeQuery{Lo: 0.4, Hi: 0.41}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFullScan100k(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	values := make([]float64, 100_000)
	for i := range values {
		values[i] = rng.Float64()
	}
	b.ReportAllocs()
	b.SetBytes(int64(len(values) * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var out []uint64
		for r, v := range values {
			if v >= 0.4 && v < 0.41 {
				out = append(out, uint64(r))
			}
		}
		_ = out
	}
}

// TestBinClampsOutOfRange: values past either end of the range, infinities
// and NaN land in the edge bins. Converting before clamping sends +Inf and
// anything at 1e18 or above to bin 0 on amd64, where an out-of-range
// float-to-int conversion gives math.MinInt64.
func TestBinClampsOutOfRange(t *testing.T) {
	r := [2]float64{0, 1}
	for _, c := range []struct {
		x    float64
		want int
	}{
		{math.Inf(1), 63}, {1e18, 63}, {1e300, 63}, {1, 63}, {0.99999, 63},
		{math.Inf(-1), 0}, {-1e18, 0}, {-0.5, 0}, {math.NaN(), 0}, {0, 0},
		{0.5, 32}, {1.0 / 64, 1},
	} {
		if got := Bin(c.x, r, 64); got != c.want {
			t.Errorf("Bin(%g, [0, 1], 64) = %d, want %d", c.x, got, c.want)
		}
	}
}

// TestIndexQueryUnboundedAbove: a query whose upper bound is +Inf (or any
// bound past the range) returns every row at or above its lower bound.
func TestIndexQueryUnboundedAbove(t *testing.T) {
	values := make([]float64, 500)
	rng := rand.New(rand.NewSource(5))
	for i := range values {
		values[i] = rng.Float64()
	}
	ix, err := BuildIndex(values, 64, [2]float64{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, hi := range []float64{math.Inf(1), 1e18} {
		for _, lo := range []float64{0, 0.5} {
			rows, err := ix.Query(values, RangeQuery{Lo: lo, Hi: hi})
			if err != nil {
				t.Fatal(err)
			}
			want := 0
			for _, v := range values {
				if v >= lo {
					want++
				}
			}
			if len(rows) != want {
				t.Errorf("Query [%g, %g) returned %d rows, want %d", lo, hi, len(rows), want)
			}
		}
	}
}
