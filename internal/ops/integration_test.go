package ops

import (
	"math"
	"slices"
	"sync"
	"testing"

	"predata/internal/bitmap"
	"predata/internal/bp"
	"predata/internal/dataspaces"
	"predata/internal/ffs"
	"predata/internal/mpi"
	"predata/internal/pfs"
	"predata/internal/predata"
	"predata/internal/staging"
)

// TestKitchenSinkPipeline drives every operator simultaneously over one
// chunk stream across several dumps — the paper's full GTC workflow in
// one job: sort + 1D histograms + 2D histograms + bitmap indexing +
// DataSpaces insertion, with min/max partials aggregated from the
// compute side, all while each chunk is read exactly once.
func TestKitchenSinkPipeline(t *testing.T) {
	const (
		numCompute = 8
		numStaging = 2
		perRank    = 150
		dumps      = 2
	)
	fs, err := pfs.New(pfs.Config{NumOSTs: 8, OSTBandwidth: 1e9, StripeSize: 1 << 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sortedOut, err := bp.CreateWriter(fs, "sink_sorted.bp", 4)
	if err != nil {
		t.Fatal(err)
	}
	space, err := dataspaces.New(dataspaces.Config{
		Servers: numStaging,
		Domain:  dataspaces.Domain{Dims: []uint64{perRank, numCompute}},
	})
	if err != nil {
		t.Fatal(err)
	}

	var chunkReads sync.Map // writerRank*10+dump -> count
	cfg := predata.PipelineConfig{
		NumCompute:       numCompute,
		NumStaging:       numStaging,
		Dumps:            dumps,
		PartialCalculate: MinMaxPartial("p", []int{colX, colY, colRank}),
		Aggregate:        MinMaxAggregate(),
		Engine:           staging.Config{Workers: 3},
		PullConcurrency:  2,
	}
	res, err := predata.RunPipeline(cfg,
		func(comm *mpi.Comm, client *predata.Client) error {
			for step := 0; step < dumps; step++ {
				arr := makeParticles(comm.Rank(), perRank, newRNG(comm.Rank()+step*100))
				if _, err := client.Write(particleSchema, ffs.Record{"p": arr}, int64(step)); err != nil {
					return err
				}
			}
			return nil
		},
		func(dump int) []staging.Operator {
			sort, err := NewSortOperator(SortConfig{
				Var: "p", KeyMajor: colRank, KeyMinor: colID,
				AggFromColumn: true, Output: sortedOut, KeepResult: true,
			})
			if err != nil {
				t.Error(err)
				return nil
			}
			hist, err := NewHistogramOperator(HistogramConfig{
				Var: "p", Columns: []int{colX, colWeight}, Bins: 16, AggRanges: true,
			})
			if err != nil {
				t.Error(err)
				return nil
			}
			hist2d, err := NewHistogram2DOperator(Histogram2DConfig{
				Var: "p", Pairs: [][2]int{{colX, colY}}, Bins: 8, AggRanges: true,
			})
			if err != nil {
				t.Error(err)
				return nil
			}
			index, err := NewBitmapIndexOperator(BitmapIndexConfig{
				Var: "p", Columns: []int{colX}, Bins: 16, AggRanges: true,
			})
			if err != nil {
				t.Error(err)
				return nil
			}
			var ds staging.Operator
			if dump == 0 {
				op, err := NewDataSpacesOperator(DataSpacesConfig{
					Var: "p", Space: space, Object: "weight",
					ValueCol: colWeight, IDCol: colID, RankCol: colRank,
				})
				if err != nil {
					t.Error(err)
					return nil
				}
				ds = op
			}
			list := []staging.Operator{sort, hist, hist2d, index,
				&readOnceAudit{counts: &chunkReads, dump: dump}}
			if ds != nil {
				list = append(list, ds)
			}
			return list
		})
	if err != nil {
		t.Fatal(err)
	}

	for dump := 0; dump < dumps; dump++ {
		// Sort: global completeness and ordering per dump.
		var totalRows int64
		for rank := 0; rank < numStaging; rank++ {
			r := res.StagingResults[rank][dump].PerOperator["sort"]
			totalRows += r["rows"].(int64)
			arr := r["sorted"].(*ffs.Array)
			rows := int(arr.Dims[0])
			for i := 1; i < rows; i++ {
				p, c := arr.Float64[(i-1)*attrCount:], arr.Float64[i*attrCount:]
				if p[colRank] > c[colRank] ||
					(p[colRank] == c[colRank] && p[colID] > c[colID]) {
					t.Fatalf("dump %d rank %d: rows %d,%d out of order", dump, rank, i-1, i)
				}
			}
		}
		if totalRows != numCompute*perRank {
			t.Errorf("dump %d sorted %d rows want %d", dump, totalRows, numCompute*perRank)
		}
		// Histograms: totals conserve particles.
		var histTotal int64
		for rank := 0; rank < numStaging; rank++ {
			hists := res.StagingResults[rank][dump].PerOperator["histogram"]["histograms"].(map[int][]int64)
			if counts, ok := hists[colX]; ok {
				for _, v := range counts {
					histTotal += v
				}
			}
		}
		if histTotal != numCompute*perRank {
			t.Errorf("dump %d histogram total %d", dump, histTotal)
		}
		// 2D histogram conserves too.
		var h2dTotal int64
		for rank := 0; rank < numStaging; rank++ {
			hists := res.StagingResults[rank][dump].PerOperator["histogram2d"]["histograms2d"].(map[[2]int][]int64)
			for _, counts := range hists {
				for _, v := range counts {
					h2dTotal += v
				}
			}
		}
		if h2dTotal != numCompute*perRank {
			t.Errorf("dump %d 2D histogram total %d", dump, h2dTotal)
		}
		// Bitmap index: per-rank queries match scans.
		for rank := 0; rank < numStaging; rank++ {
			r := res.StagingResults[rank][dump].PerOperator["bitmapindex"]
			ix := r["indexes"].(map[int]*bitmap.Index)[colX]
			col := r["columns"].(map[int][]float64)[colX]
			hits, err := ix.Query(col, bitmap.RangeQuery{Lo: 0.3, Hi: 0.6})
			if err != nil {
				t.Fatal(err)
			}
			want := 0
			for _, v := range col {
				if v >= 0.3 && v < 0.6 {
					want++
				}
			}
			if len(hits) != want {
				t.Errorf("dump %d rank %d index hits %d want %d", dump, rank, len(hits), want)
			}
		}
	}

	// DataSpaces (dump 0 only): the full domain is resident and queryable.
	all, err := space.Get("weight", 0, []uint64{0, 0}, []uint64{perRank, numCompute})
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != numCompute*perRank {
		t.Errorf("space holds %d cells", len(all))
	}
	mean, err := space.Reduce("weight", 0, []uint64{0, 0}, []uint64{perRank, numCompute}, dataspaces.ReduceAvg)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(mean) || mean <= 0 || mean >= 1 {
		t.Errorf("mean weight %g", mean)
	}

	// Read-once: every (writer, dump) chunk was delivered exactly once.
	reads := 0
	chunkReads.Range(func(k, v any) bool {
		reads++
		if v.(int) != 1 {
			t.Errorf("chunk %v read %d times", k, v)
		}
		return true
	})
	if reads != numCompute*dumps {
		t.Errorf("%d chunk deliveries want %d", reads, numCompute*dumps)
	}

	// The sorted output file carries provenance and parses.
	if _, err := sortedOut.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := bp.OpenReader(fs, "sink_sorted.bp")
	if err != nil {
		t.Fatal(err)
	}
	if a, ok := r.Attribute("sorted_by"); !ok || !a.IsString {
		t.Errorf("sorted_by attribute %+v", a)
	}
}

// readOnceAudit counts chunk deliveries per (writer, dump).
type readOnceAudit struct {
	counts *sync.Map
	dump   int
	mu     sync.Mutex
}

func (a *readOnceAudit) Name() string                                              { return "audit-once" }
func (a *readOnceAudit) Initialize(ctx *staging.Context, agg map[string]any) error { return nil }
func (a *readOnceAudit) Map(ctx *staging.Context, chunk *staging.Chunk) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	key := chunk.WriterRank*10 + a.dump
	v, _ := a.counts.LoadOrStore(key, 0)
	a.counts.Store(key, v.(int)+1)
	return nil
}
func (a *readOnceAudit) Finalize(ctx *staging.Context) error { return nil }

// TestOutputTimestepFromEngine: with more staging ranks than writers, some
// ranks map no chunk yet own a histogram column, a 2-D pair or a merged
// array; every rank writes each dump's output under that dump's timestep.
func TestOutputTimestepFromEngine(t *testing.T) {
	const (
		numCompute = 2
		numStaging = 4
		dumps      = 3
		n          = 32
	)
	fs := newTestFS(t)
	out, err := bp.CreateWriter(fs, "out.bp", 4)
	if err != nil {
		t.Fatal(err)
	}
	vars := []string{"rho", "temp", "px", "py"}
	fields := []ffs.Field{{Name: "p", Kind: ffs.KindArray}}
	for _, v := range vars {
		fields = append(fields, ffs.Field{Name: v, Kind: ffs.KindArray})
	}
	schema := &ffs.Schema{Name: "mixed", Fields: fields}
	unit := map[int][2]float64{colX: {0, 1}, colY: {0, 1}, colZ: {0, 1}, colWeight: {0, 1}}
	cfg := predata.PipelineConfig{NumCompute: numCompute, NumStaging: numStaging, Dumps: dumps}
	_, err = predata.RunPipeline(cfg,
		func(comm *mpi.Comm, client *predata.Client) error {
			for step := 0; step < dumps; step++ {
				rec := ffs.Record{"p": makeParticles(comm.Rank(), n, newRNG(comm.Rank()+step*100))}
				for _, v := range vars {
					rec[v] = &ffs.Array{Dims: []uint64{n}, Global: []uint64{numCompute * n},
						Offsets: []uint64{uint64(comm.Rank() * n)}, Float64: make([]float64, n)}
				}
				if _, err := client.Write(schema, rec, int64(step)); err != nil {
					return err
				}
			}
			return nil
		},
		func(dump int) []staging.Operator {
			hist, err := NewHistogramOperator(HistogramConfig{Var: "p", Columns: []int{colX, colY, colZ, colWeight},
				Bins: 4, Ranges: unit, Output: out})
			if err != nil {
				t.Error(err)
				return nil
			}
			hist2d, err := NewHistogram2DOperator(Histogram2DConfig{Var: "p",
				Pairs: [][2]int{{colX, colY}, {colX, colZ}, {colY, colZ}, {colX, colWeight}}, Bins: 4, Ranges: unit, Output: out})
			if err != nil {
				t.Error(err)
				return nil
			}
			reorg, err := NewReorgOperator(ReorgConfig{Vars: vars, Output: out})
			if err != nil {
				t.Error(err)
				return nil
			}
			return []staging.Operator{hist, hist2d, reorg}
		})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := out.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := bp.OpenReader(fs, "out.bp")
	if err != nil {
		t.Fatal(err)
	}
	steps := map[string][]int64{}
	for _, vi := range r.Vars() {
		for i := 0; i < vi.Chunks; i++ {
			steps[vi.Name] = append(steps[vi.Name], vi.Timestep)
		}
	}
	if len(steps) != 12 {
		t.Errorf("file holds %d variables, want 12", len(steps))
	}
	for name, got := range steps {
		slices.Sort(got)
		if !slices.Equal(got, []int64{0, 1, 2}) {
			t.Errorf("%s written at timesteps %v, want [0 1 2]", name, got)
		}
	}
}
