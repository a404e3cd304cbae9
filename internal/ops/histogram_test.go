package ops

import (
	"math"
	"math/rand"
	"testing"

	"predata/internal/ffs"
	"predata/internal/mpi"
	"predata/internal/staging"
)

// mapChunks runs one staging rank's dump over chunks (the same chunk n
// times) and returns the operator's results.
func mapChunks(tb testing.TB, op staging.Operator, chunk *staging.Chunk, n int) map[string]any {
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
		res, err = staging.NewEngine(staging.Config{Workers: 1}).ProcessDump(c, ch, []staging.Operator{op}, nil)
		return err
	})
	if err != nil {
		tb.Fatal(err)
	}
	return res.PerOperator[op.Name()]
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

// BenchmarkHistogramMap is the histogram's Map on one GTC-sized chunk —
// 65,536 rows of 8 attributes, two columns, 64 bins — through a one-rank
// engine, so the per-dump phases amortise over b.N chunks.
func BenchmarkHistogramMap(b *testing.B) {
	const rows, cols = 65536, 8
	rng := rand.New(rand.NewSource(1))
	data := make([]float64, rows*cols)
	for i := range data {
		data[i] = rng.Float64()
	}
	chunk := &staging.Chunk{Record: ffs.Record{"p": &ffs.Array{Dims: []uint64{rows, cols}, Float64: data}}}
	op, err := NewHistogramOperator(HistogramConfig{Var: "p", Columns: []int{0, 1}, Bins: 64})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(rows * cols * 8)
	b.ResetTimer()
	mapChunks(b, op, chunk, b.N)
}
