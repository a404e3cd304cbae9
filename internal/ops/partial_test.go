package ops

import (
	"math"
	"math/rand"
	"testing"

	"predata/internal/ffs"
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

// TestMinMaxPartialMatchesPerColumnScan: the single row-major pass gives,
// bit for bit, what a scan per column gives — on random data salted with
// ±Inf, NaN and signed zeros, for column lists that repeat a column, name
// them out of order, or are empty, and for an array with no rows.
func TestMinMaxPartialMatchesPerColumnScan(t *testing.T) {
	oddities := []float64{math.Inf(1), math.Inf(-1), math.NaN(), math.Copysign(0, -1), 0, math.MaxFloat64, -math.SmallestNonzeroFloat64}
	cases := []struct {
		rows, k int
		cols    []int
		salt    float64 // share of cells replaced by an oddity
	}{
		{rows: 1000, k: 8, cols: []int{0, 1, 6}, salt: 0},
		{rows: 257, k: 8, cols: []int{0, 1, 6}, salt: 0.05},
		{rows: 64, k: 5, cols: []int{3, 3, 0, 3}, salt: 0.3},
		{rows: 31, k: 3, cols: []int{2, 1, 0}, salt: 1},
		{rows: 9, k: 1, cols: []int{0}, salt: 0.5},
		{rows: 12, k: 4, cols: nil, salt: 0.1},
		{rows: 0, k: 4, cols: []int{1, 2}, salt: 0},
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
			}
			arr := &ffs.Array{Dims: []uint64{uint64(tc.rows), uint64(tc.k)}, Float64: data}
			p, err := MinMaxPartial("p", tc.cols)(particleSchema, ffs.Record{"p": arr})
			if err != nil {
				t.Fatal(err)
			}
			got := p.(ColumnMinMax)
			lo, hi := minMaxPerColumn(data, tc.rows, tc.k, tc.cols)
			if got.Rows != tc.rows || len(got.Min) != len(tc.cols) || len(got.Max) != len(tc.cols) {
				t.Fatalf("seed %d case %d: partial %+v", seed, ci, got)
			}
			for i := range tc.cols {
				if math.Float64bits(got.Min[i]) != math.Float64bits(lo[i]) || math.Float64bits(got.Max[i]) != math.Float64bits(hi[i]) {
					t.Errorf("seed %d case %d column %d: one pass [%v, %v], per-column scan [%v, %v]",
						seed, ci, tc.cols[i], got.Min[i], got.Max[i], lo[i], hi[i])
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
