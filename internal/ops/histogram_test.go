package ops

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"predata/internal/ffs"
	"predata/internal/mpi"
	"predata/internal/predata"
	"predata/internal/staging"
)

// mapChunks runs one staging rank's dump over chunks (the same chunk n
// times) and returns the operator's results.
func mapChunks(tb testing.TB, op staging.Operator, chunk *staging.Chunk, n int) map[string]any {
	tb.Helper()
	return mapChunksAgg(tb, op, chunk, n, nil)
}

// mapChunksAgg is mapChunks with the dump's aggregate.
func mapChunksAgg(tb testing.TB, op staging.Operator, chunk *staging.Chunk, n int, agg map[string]any) map[string]any {
	tb.Helper()
	var res *staging.Result
	err := mpi.Run(1, func(c *mpi.Comm) error {
		ch := make(chan *staging.Chunk, 1)
		go func() {
			for range n {
				ch <- chunk
			}
			close(ch)
		}()
		var err error
		res, err = staging.NewEngine(staging.Config{Workers: 1}).ProcessDump(c, ch, []staging.Operator{op}, agg)
		return err
	})
	if err != nil {
		tb.Fatal(err)
	}
	return res.PerOperator[op.Name()]
}

// dumpColumn runs one dump of a single chunk holding the column xs through
// op, with the aggregate MinMaxPartial and MinMaxAggregate make of it.
func dumpColumn(t *testing.T, op staging.Operator, xs []float64) map[string]any {
	t.Helper()
	arr := &ffs.Array{Dims: []uint64{uint64(len(xs)), 1}, Float64: xs}
	p, err := MinMaxPartial("p", []int{0})(particleSchema, ffs.Record{"p": arr})
	if err != nil {
		t.Fatal(err)
	}
	agg := MinMaxAggregate()([]predata.RankPartial{{Partial: p}})
	return mapChunksAgg(t, op, &staging.Chunk{Record: ffs.Record{"p": arr}}, 1, agg)
}

// uniformChunk is a chunk of rows x cols values uniform in [0, 1).
func uniformChunk(rows, cols int) *staging.Chunk {
	rng := rand.New(rand.NewSource(1))
	data := make([]float64, rows*cols)
	for i := range data {
		data[i] = rng.Float64()
	}
	return &staging.Chunk{Record: ffs.Record{"p": &ffs.Array{Dims: []uint64{uint64(rows), uint64(cols)}, Float64: data}}}
}

// TestHistogramOutOfRangeLandsInEdgeBins: values past either end of the
// range, the infinities and NaN count in the edge bins, in both histograms.
// Converting to int before clamping put +Inf and 1e18 in bin 0 on amd64.
func TestHistogramOutOfRangeLandsInEdgeBins(t *testing.T) {
	xs := []float64{math.Inf(1), 1e18, 0.5, -1e18, math.NaN(), math.Inf(-1)}
	data := make([]float64, 0, 2*len(xs))
	for _, x := range xs {
		data = append(data, x, 0.25)
	}
	chunk := &staging.Chunk{Record: ffs.Record{"p": &ffs.Array{Dims: []uint64{uint64(len(xs)), 2}, Float64: data}}}
	unit := map[int][2]float64{0: {0, 1}, 1: {0, 1}}

	h, err := NewHistogramOperator(HistogramConfig{Var: "p", Columns: []int{0}, Bins: 64, Ranges: unit})
	if err != nil {
		t.Fatal(err)
	}
	counts := mapChunks(t, h, chunk, 1)["histograms"].(map[int][]int64)[0]
	if counts[63] != 2 || counts[32] != 1 || counts[0] != 3 {
		t.Errorf("1-D bins 0/32/63 hold %d/%d/%d, want 3/1/2", counts[0], counts[32], counts[63])
	}

	h2, err := NewHistogram2DOperator(Histogram2DConfig{Var: "p", Pairs: [][2]int{{0, 1}}, Bins: 64, Ranges: unit})
	if err != nil {
		t.Fatal(err)
	}
	cells := mapChunks(t, h2, chunk, 1)["histograms2d"].(map[[2]int][]int64)[[2]int{0, 1}]
	if cells[63*64+16] != 2 || cells[32*64+16] != 1 || cells[0*64+16] != 3 {
		t.Errorf("2-D cells (0|32|63, 16) hold %d/%d/%d, want 3/1/2", cells[16], cells[32*64+16], cells[63*64+16])
	}
}

// TestHistogramAggRangeIgnoresInfiniteBound: one -Inf in a column leaves
// the static lower bound in place. Adopting it as the range's low end put
// every value in bin 0.
func TestHistogramAggRangeIgnoresInfiniteBound(t *testing.T) {
	h, err := NewHistogramOperator(HistogramConfig{Var: "p", Columns: []int{0}, Bins: 4, AggRanges: true})
	if err != nil {
		t.Fatal(err)
	}
	res := dumpColumn(t, h, []float64{math.Inf(-1), 0.1, 0.4, 0.6, 0.9})
	if got := res["histograms"].(map[int][]int64)[0]; !slices.Equal(got, []int64{2, 1, 1, 1}) {
		t.Errorf("counts %v, want [2 1 1 1] over [0, 0.9]", got)
	}
}

// TestBitmapIndexZeroRowDump: a dump whose writers wrote no rows (a
// Transform that filters out every row) aggregates to [+Inf, -Inf]. The
// index keeps its static range; adopting the aggregate failed the dump with
// an empty range.
func TestBitmapIndexZeroRowDump(t *testing.T) {
	b, err := NewBitmapIndexOperator(BitmapIndexConfig{Var: "p", Columns: []int{0}, Bins: 4, AggRanges: true})
	if err != nil {
		t.Fatal(err)
	}
	if rows := dumpColumn(t, b, []float64{})["rows"].(int64); rows != 0 {
		t.Errorf("indexed %d rows of an empty dump", rows)
	}
}

// TestHistogramMapAllocationBudget: with two tags, a mapped chunk costs six
// allocations in 1-D and 2-D alike — the row mapper, its count and range
// tables, one counter block, and the two emitted vectors — plus the
// amortised growth of the engine's emit lists.
func TestHistogramMapAllocationBudget(t *testing.T) {
	const extra = 256
	chunk := uniformChunk(4096, attrCount)
	h1, err := NewHistogramOperator(HistogramConfig{Var: "p", Columns: []int{colX, colWeight}, Bins: 64})
	if err != nil {
		t.Fatal(err)
	}
	h2, err := NewHistogram2DOperator(Histogram2DConfig{Var: "p", Pairs: [][2]int{{colX, colY}, {colZ, colWeight}}, Bins: 16})
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range []staging.Operator{h1, h2} {
		mallocs := func(n int) float64 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			mapChunks(t, op, chunk, n)
			runtime.ReadMemStats(&after)
			return float64(after.Mallocs - before.Mallocs)
		}
		if per := (mallocs(1+extra) - mallocs(1)) / extra; per > 6.5 {
			t.Errorf("%s: %.2f allocations per mapped chunk, budget 6.5", op.Name(), per)
		}
	}
}

// BenchmarkHistogramMap is the histogram's Map on one GTC-sized chunk —
// 65,536 rows of 8 attributes, two columns, 64 bins — through a one-rank
// engine, so the per-dump phases amortise over b.N chunks.
func BenchmarkHistogramMap(b *testing.B) {
	const rows, cols = 65536, 8
	chunk := uniformChunk(rows, cols)
	op, err := NewHistogramOperator(HistogramConfig{Var: "p", Columns: []int{0, 1}, Bins: 64})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(rows * cols * 8)
	b.ResetTimer()
	mapChunks(b, op, chunk, b.N)
}
