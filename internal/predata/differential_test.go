package predata_test

// The whole-pipeline differential net: GTC particles through
// predata.RunPipeline — the real pull, the engine's verify-on-use paths and
// the shuffle — against naive in-test references computed from the same
// records, bit for bit.

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	"predata/internal/apps/gtc"
	"predata/internal/ffs"
	"predata/internal/mpi"
	"predata/internal/ops"
	"predata/internal/predata"
	"predata/internal/staging"
)

const (
	dfCompute = 4
	dfStaging = 3
	dfDumps   = 3
	dfRows    = 1500
	dfBins    = 32
)

// dfRecord is writer w's particles at dump.
func dfRecord(w, dump int) *ffs.Array { return gtc.GenParticles(w, dfRows, int64(100*dump+1)) }

// dfSortReference is every writer's rows at dump, stable-sorted by label
// (birth rank, local id), writers taken in rank order.
func dfSortReference(dump int) []float64 {
	var rows [][]float64
	for w := range dfCompute {
		a := dfRecord(w, dump).Float64
		for r := 0; r < dfRows; r++ {
			rows = append(rows, a[r*gtc.AttrCount:(r+1)*gtc.AttrCount])
		}
	}
	slices.SortStableFunc(rows, func(a, b []float64) int {
		return cmp.Or(cmp.Compare(a[gtc.AttrRank], b[gtc.AttrRank]), cmp.Compare(a[gtc.AttrLocalID], b[gtc.AttrLocalID]))
	})
	return slices.Concat(rows...)
}

// dfHistReference bins column c of every writer's rows at dump directly,
// over the column's global [min, max].
func dfHistReference(dump, c int) []int64 {
	lo, hi := math.Inf(1), math.Inf(-1)
	for w := range dfCompute {
		a := dfRecord(w, dump).Float64
		for i := c; i < len(a); i += gtc.AttrCount {
			lo, hi = math.Min(lo, a[i]), math.Max(hi, a[i])
		}
	}
	counts := make([]int64, dfBins)
	for w := range dfCompute {
		a := dfRecord(w, dump).Float64
		for i := c; i < len(a); i += gtc.AttrCount {
			b := float64(dfBins) * (a[i] - lo) / (hi - lo)
			switch {
			case !(b > 0):
				counts[0]++
			case b >= dfBins:
				counts[dfBins-1]++
			default:
				counts[int(b)]++
			}
		}
	}
	return counts
}

// TestPipelineDifferential runs GTC particles through the staged pipeline,
// fault-free, with the journal off and on, under the histogram (a
// block-mapped dump: the walk checks each chunk) and under the sort (a
// verifying reducer: the key pass folds each chunk's check and the verify
// step settles it). Each dump's output must equal the naive reference
// exactly.
func TestPipelineDifferential(t *testing.T) {
	histCols := []int{gtc.AttrZeta, gtc.AttrVPar, gtc.AttrWeight}
	for _, op := range []string{"histogram", "sort"} {
		for _, wal := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/wal=%v", op, wal), func(t *testing.T) {
				cfg := predata.PipelineConfig{
					NumCompute: dfCompute, NumStaging: dfStaging, Dumps: dfDumps,
					Engine:           staging.Config{Workers: 2},
					PartialCalculate: ops.MinMaxPartial("p", histCols),
					Aggregate:        ops.MinMaxAggregate(),
					Timeout:          2 * time.Minute,
				}
				if wal {
					cfg.WALDir, cfg.CheckpointEvery = t.TempDir(), 2
				}
				opsFor := func(int) []staging.Operator {
					var (
						o   staging.Operator
						err error
					)
					if op == "histogram" {
						o, err = ops.NewHistogramOperator(ops.HistogramConfig{Var: "p", Columns: histCols, Bins: dfBins, AggRanges: true})
					} else {
						o, err = ops.NewSortOperator(ops.SortConfig{Var: "p", KeyMajor: gtc.AttrRank, KeyMinor: gtc.AttrLocalID,
							MajorRange: [2]float64{0, dfCompute - 1}, KeepResult: true})
					}
					if err != nil {
						t.Error(err)
						return nil
					}
					return []staging.Operator{o}
				}
				res, err := predata.RunPipeline(cfg, func(comm *mpi.Comm, client *predata.Client) error {
					for d := 0; d < dfDumps; d++ {
						if _, err := client.Write(gtc.ParticleSchema, ffs.Record{"p": dfRecord(comm.Rank(), d)}, int64(d)); err != nil {
							return err
						}
					}
					return nil
				}, opsFor)
				if err != nil {
					t.Fatal(err)
				}
				for dump := range dfDumps {
					if op == "histogram" {
						dfCheckHistograms(t, res, dump, histCols)
					} else {
						dfCheckSorted(t, res, dump)
					}
				}
			})
		}
	}
}

// dfCheckSorted compares dump's sorted rows, the staging ranks' outputs in
// rank order, with the reference bit for bit.
func dfCheckSorted(t *testing.T, res *predata.PipelineResult, dump int) {
	t.Helper()
	var got []float64
	for rank := range res.StagingResults {
		r := res.StagingResults[rank][dump]
		if r.Degraded {
			t.Errorf("dump %d: rank %d Degraded in a fault-free run", dump, rank)
		}
		if a, ok := r.PerOperator["sort"]["sorted"].(*ffs.Array); ok {
			got = append(got, a.Float64...)
		}
	}
	want := dfSortReference(dump)
	if !slices.EqualFunc(got, want, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }) {
		t.Fatalf("dump %d: %d sorted values differ from the %d of the reference", dump, len(got), len(want))
	}
}

// dfCheckHistograms compares dump's histograms, each from the staging rank
// that owns it, with the reference.
func dfCheckHistograms(t *testing.T, res *predata.PipelineResult, dump int, cols []int) {
	t.Helper()
	got := map[int][]int64{}
	for rank := range res.StagingResults {
		hs, _ := res.StagingResults[rank][dump].PerOperator["histogram"]["histograms"].(map[int][]int64)
		for c, counts := range hs {
			if _, dup := got[c]; dup {
				t.Errorf("dump %d: column %d histogrammed on two ranks", dump, c)
			}
			got[c] = counts
		}
	}
	for _, c := range cols {
		if want := dfHistReference(dump, c); !slices.Equal(got[c], want) {
			t.Errorf("dump %d column %d: counts %v, want %v", dump, c, got[c], want)
		}
	}
}
