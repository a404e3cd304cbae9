package ops

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"predata/internal/ffs"
	"predata/internal/predata"
)

// minMaxPerColumn is the reference form of MinMaxPartial's scan: one full
// pass over the rows for each requested column, in request order.
func minMaxPerColumn(data []float64, rows, k int, cols []int) (lo, hi []float64) {
	lo, hi = make([]float64, len(cols)), make([]float64, len(cols))
	for ci, c := range cols {
		lo[ci], hi[ci] = math.Inf(1), math.Inf(-1)
		for r := 0; r < rows; r++ {
			x := data[r*k+c]
			if x < lo[ci] {
				lo[ci] = x
			}
			if x > hi[ci] {
				hi[ci] = x
			}
		}
	}
	return lo, hi
}

// foldSplits runs the hook on consecutive row blocks of a [rows, k] array,
// cut at random points (a repeated point is an empty block), and folds the
// results in order through Combine, as Client.Write does along its walk.
func foldSplits(t *testing.T, rng *rand.Rand, data []float64, rows, k int, cols []int) ColumnMinMax {
	t.Helper()
	cuts := []int{0, rows}
	for n := rng.Intn(6); n > 0; n-- {
		cuts = append(cuts, rng.Intn(rows+1))
	}
	sort.Ints(cuts)
	var acc any
	for i := 1; i < len(cuts); i++ {
		lo, hi := cuts[i-1], cuts[i]
		view := &ffs.Array{Dims: []uint64{uint64(hi - lo), uint64(k)}, Float64: data[lo*k : hi*k]}
		p, err := MinMaxPartial("p", cols)(particleSchema, ffs.Record{"p": view})
		if err != nil {
			t.Fatal(err)
		}
		if acc == nil {
			acc = p
		} else {
			acc = acc.(predata.Combiner).Combine(p)
		}
	}
	return acc.(ColumnMinMax)
}

// TestMinMaxPartialMatchesPerColumnScan: the single row-major pass gives,
// bit for bit, what a scan per column gives — on random data salted with
// ±Inf, NaN and signed zeros (alone, too), for column lists that repeat a column, name
// them out of order, or are empty, and for an array with no rows — and so
// does folding the partials of random row blocks through Combine.
func TestMinMaxPartialMatchesPerColumnScan(t *testing.T) {
	oddities := []float64{math.Inf(1), math.Inf(-1), math.NaN(), math.Copysign(0, -1), 0, math.MaxFloat64, -math.SmallestNonzeroFloat64}
	cases := []struct {
		rows, k int
		cols    []int
		salt    float64   // share of cells replaced by an oddity
		pool    []float64 // when set, every cell is drawn from it
	}{
		{rows: 1000, k: 8, cols: []int{0, 1, 6}, salt: 0},
		{rows: 257, k: 8, cols: []int{0, 1, 6}, salt: 0.05},
		{rows: 64, k: 5, cols: []int{3, 3, 0, 3}, salt: 0.3},
		{rows: 31, k: 3, cols: []int{2, 1, 0}, salt: 1},
		{rows: 9, k: 1, cols: []int{0}, salt: 0.5},
		{rows: 12, k: 4, cols: nil, salt: 0.1},
		{rows: 0, k: 4, cols: []int{1, 2}, salt: 0},
		// Only ties and NaN: which zero wins is decided by order alone.
		{rows: 40, k: 2, cols: []int{0, 1}, pool: []float64{0, math.Copysign(0, -1), math.NaN()}},
	}
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for ci, tc := range cases {
			data := make([]float64, tc.rows*tc.k)
			for i := range data {
				data[i] = rng.NormFloat64() * 1e3
				if rng.Float64() < tc.salt {
					data[i] = oddities[rng.Intn(len(oddities))]
				}
				if tc.pool != nil {
					data[i] = tc.pool[rng.Intn(len(tc.pool))]
				}
			}
			arr := &ffs.Array{Dims: []uint64{uint64(tc.rows), uint64(tc.k)}, Float64: data}
			p, err := MinMaxPartial("p", tc.cols)(particleSchema, ffs.Record{"p": arr})
			if err != nil {
				t.Fatal(err)
			}
			lo, hi := minMaxPerColumn(data, tc.rows, tc.k, tc.cols)
			for _, got := range []struct {
				how string
				mm  ColumnMinMax
			}{{"one pass", p.(ColumnMinMax)}, {"folded blocks", foldSplits(t, rng, data, tc.rows, tc.k, tc.cols)}} {
				mm := got.mm
				if mm.Rows != tc.rows || len(mm.Min) != len(tc.cols) || len(mm.Max) != len(tc.cols) {
					t.Fatalf("seed %d case %d: %s partial %+v", seed, ci, got.how, mm)
				}
				for i := range tc.cols {
					if math.Float64bits(mm.Min[i]) != math.Float64bits(lo[i]) || math.Float64bits(mm.Max[i]) != math.Float64bits(hi[i]) {
						t.Errorf("seed %d case %d column %d: %s [%v, %v], per-column scan [%v, %v]",
							seed, ci, tc.cols[i], got.how, mm.Min[i], mm.Max[i], lo[i], hi[i])
					}
				}
			}
		}
	}
	// A bad column is refused before any row is read.
	arr := &ffs.Array{Dims: []uint64{2, 2}, Float64: []float64{1, 2, 3, 4}}
	for _, cols := range [][]int{{0, 2}, {-1}} {
		if _, err := MinMaxPartial("p", cols)(particleSchema, ffs.Record{"p": arr}); err == nil {
			t.Errorf("columns %v accepted for a 2-column array", cols)
		}
	}
}

// TestMinMaxPartialRejectsMalformedArray: an array whose dims disagree with
// its payload is an error from the hook, not a panic inside the
// application's Write.
func TestMinMaxPartialRejectsMalformedArray(t *testing.T) {
	arr := &ffs.Array{Dims: []uint64{10, 8}, Float64: make([]float64, 16)}
	if _, err := MinMaxPartial("p", []int{0, 7})(particleSchema, ffs.Record{"p": arr}); err == nil {
		t.Fatal("a [10 8] array with 16 values accepted")
	}
}
