package ops

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"predata/internal/bitmap"
	"predata/internal/bp"
	"predata/internal/ffs"
	"predata/internal/mpi"
	"predata/internal/pfs"
	"predata/internal/predata"
	"predata/internal/staging"
)

// Particle attribute columns used throughout the tests (the GTC layout:
// coordinates, velocities, weight, and the two label attributes).
const (
	colX = iota
	colY
	colZ
	colV1
	colV2
	colWeight
	colRank
	colID
	attrCount
)

var particleSchema = &ffs.Schema{
	Name:   "particles",
	Fields: []ffs.Field{{Name: "p", Kind: ffs.KindArray}},
}

// makeParticles builds n particles for the given writer rank with
// deterministic pseudo-random attributes and shuffled order.
func makeParticles(rank, n int, rng *rand.Rand) *ffs.Array {
	data := make([]float64, n*attrCount)
	for i := 0; i < n; i++ {
		row := data[i*attrCount:]
		row[colX] = rng.Float64()
		row[colY] = rng.Float64()
		row[colZ] = rng.Float64()
		row[colV1] = rng.NormFloat64()
		row[colV2] = rng.NormFloat64()
		row[colWeight] = rng.Float64()
		row[colRank] = float64(rank)
		row[colID] = float64(i)
	}
	// Shuffle rows to mimic out-of-order particle arrays.
	rng.Shuffle(n, func(a, b int) {
		for c := 0; c < attrCount; c++ {
			data[a*attrCount+c], data[b*attrCount+c] = data[b*attrCount+c], data[a*attrCount+c]
		}
	})
	return &ffs.Array{Dims: []uint64{uint64(n), attrCount}, Float64: data}
}

// runParticlePipeline drives numCompute writers (perRank particles each)
// through one dump with the given operator factory and returns the staging
// results.
func runParticlePipeline(t *testing.T, numCompute, numStaging, perRank int,
	opsFor predata.OperatorFactory) *predata.PipelineResult {
	t.Helper()
	cfg := predata.PipelineConfig{
		NumCompute:       numCompute,
		NumStaging:       numStaging,
		Dumps:            1,
		PartialCalculate: MinMaxPartial("p", []int{colX, colY, colRank}),
		Aggregate:        MinMaxAggregate(),
		Engine:           staging.Config{Workers: 2},
	}
	res, err := predata.RunPipeline(cfg,
		func(comm *mpi.Comm, client *predata.Client) error {
			rng := rand.New(rand.NewSource(int64(comm.Rank()) + 1))
			arr := makeParticles(comm.Rank(), perRank, rng)
			_, err := client.Write(particleSchema, ffs.Record{"p": arr}, 0)
			return err
		},
		opsFor)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestSortOperatorValidation(t *testing.T) {
	if _, err := NewSortOperator(SortConfig{}); err == nil {
		t.Error("empty config accepted")
	}
	if _, err := NewSortOperator(SortConfig{Var: "p", KeyMajor: -1}); err == nil {
		t.Error("negative key accepted")
	}
	if _, err := NewSortOperator(SortConfig{Var: "p", MajorRange: [2]float64{2, 1}}); err == nil {
		t.Error("inverted range accepted")
	}
}

func TestSortOperatorGlobalOrder(t *testing.T) {
	const (
		numCompute = 6
		numStaging = 3
		perRank    = 200
	)
	res := runParticlePipeline(t, numCompute, numStaging, perRank,
		func(dump int) []staging.Operator {
			op, err := NewSortOperator(SortConfig{
				Var: "p", KeyMajor: colRank, KeyMinor: colID,
				AggFromColumn: true, KeepResult: true,
			})
			if err != nil {
				t.Error(err)
				return nil
			}
			return []staging.Operator{op}
		})

	// Concatenate the per-rank sorted outputs and verify the global order
	// and completeness of labels.
	var all []float64
	var totalRows int64
	prevMax := math.Inf(-1)
	for rank := 0; rank < numStaging; rank++ {
		r := res.StagingResults[rank][0].PerOperator["sort"]
		rows := r["rows"].(int64)
		totalRows += rows
		arr := r["sorted"].(*ffs.Array)
		if rows == 0 {
			continue
		}
		// Range partitioning: this rank's smallest major key must not be
		// below the previous rank's largest.
		first := arr.Float64[colRank]
		last := arr.Float64[(rows-1)*attrCount+colRank]
		if first < prevMax {
			t.Errorf("staging rank %d starts at %g below previous max %g", rank, first, prevMax)
		}
		prevMax = last
		all = append(all, arr.Float64...)
	}
	if totalRows != numCompute*perRank {
		t.Fatalf("total rows %d want %d", totalRows, numCompute*perRank)
	}
	seen := make(map[[2]int]bool)
	n := len(all) / attrCount
	for i := 0; i < n; i++ {
		row := all[i*attrCount:]
		if i > 0 {
			prev := all[(i-1)*attrCount:]
			if prev[colRank] > row[colRank] ||
				(prev[colRank] == row[colRank] && prev[colID] > row[colID]) {
				t.Fatalf("rows %d,%d out of order: (%g,%g) > (%g,%g)",
					i-1, i, prev[colRank], prev[colID], row[colRank], row[colID])
			}
		}
		key := [2]int{int(row[colRank]), int(row[colID])}
		if seen[key] {
			t.Fatalf("duplicate label %v", key)
		}
		seen[key] = true
	}
	if len(seen) != numCompute*perRank {
		t.Fatalf("%d distinct labels, want %d", len(seen), numCompute*perRank)
	}
}

func TestSortOperatorWritesOutput(t *testing.T) {
	fs, err := pfs.New(pfs.Config{NumOSTs: 4, OSTBandwidth: 1e9, StripeSize: 1 << 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	bw, err := bp.CreateWriter(fs, "sorted.bp", 4)
	if err != nil {
		t.Fatal(err)
	}
	runParticlePipeline(t, 4, 2, 50,
		func(dump int) []staging.Operator {
			op, _ := NewSortOperator(SortConfig{
				Var: "p", KeyMajor: colRank, KeyMinor: colID,
				AggFromColumn: true, Output: bw,
			})
			return []staging.Operator{op}
		})
	if _, err := bw.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := bp.OpenReader(fs, "sorted.bp")
	if err != nil {
		t.Fatal(err)
	}
	vars := r.Vars()
	if len(vars) != 1 || vars[0].Name != "p_sorted" {
		t.Fatalf("vars %+v", vars)
	}
}

func TestHistogramOperatorValidation(t *testing.T) {
	if _, err := NewHistogramOperator(HistogramConfig{}); err == nil {
		t.Error("empty config accepted")
	}
	if _, err := NewHistogramOperator(HistogramConfig{Var: "p", Bins: 0, Columns: []int{0}}); err == nil {
		t.Error("zero bins accepted")
	}
	if _, err := NewHistogramOperator(HistogramConfig{Var: "p", Bins: 4}); err == nil {
		t.Error("no columns accepted")
	}
	if _, err := NewHistogramOperator(HistogramConfig{Var: "p", Bins: 4, Columns: []int{1, 1}}); err == nil {
		t.Error("repeated column accepted")
	}
	if _, err := NewHistogramOperator(HistogramConfig{Var: "p", Bins: 4, Columns: []int{-1}}); err == nil {
		t.Error("negative column accepted")
	}
}

func TestHistogramOperatorMatchesReference(t *testing.T) {
	const (
		numCompute = 4
		numStaging = 2
		perRank    = 300
		bins       = 10
	)
	res := runParticlePipeline(t, numCompute, numStaging, perRank,
		func(dump int) []staging.Operator {
			op, err := NewHistogramOperator(HistogramConfig{
				Var: "p", Columns: []int{colX, colWeight}, Bins: bins,
				Ranges: map[int][2]float64{colX: {0, 1}, colWeight: {0, 1}},
			})
			if err != nil {
				t.Error(err)
				return nil
			}
			return []staging.Operator{op}
		})
	// Rebuild the reference from the same deterministic generator.
	ref := map[int][]int64{colX: make([]int64, bins), colWeight: make([]int64, bins)}
	for rank := 0; rank < numCompute; rank++ {
		rng := rand.New(rand.NewSource(int64(rank) + 1))
		arr := makeParticles(rank, perRank, rng)
		for i := 0; i < perRank; i++ {
			for _, c := range []int{colX, colWeight} {
				ref[c][bitmap.Bin(arr.Float64[i*attrCount+c], [2]float64{0, 1}, bins)]++
			}
		}
	}
	got := map[int][]int64{}
	for rank := 0; rank < numStaging; rank++ {
		hists := res.StagingResults[rank][0].PerOperator["histogram"]["histograms"].(map[int][]int64)
		for c, counts := range hists {
			if got[c] != nil {
				t.Fatalf("column %d histogram owned by two ranks", c)
			}
			got[c] = counts
		}
	}
	for _, c := range []int{colX, colWeight} {
		if got[c] == nil {
			t.Fatalf("no histogram for column %d", c)
		}
		for b := 0; b < bins; b++ {
			if got[c][b] != ref[c][b] {
				t.Errorf("col %d bin %d = %d want %d", c, b, got[c][b], ref[c][b])
			}
		}
	}
}

func TestHistogram2DOperatorValidation(t *testing.T) {
	if _, err := NewHistogram2DOperator(Histogram2DConfig{}); err == nil {
		t.Error("empty config accepted")
	}
	if _, err := NewHistogram2DOperator(Histogram2DConfig{Var: "p", Bins: 0, Pairs: [][2]int{{0, 1}}}); err == nil {
		t.Error("zero bins accepted")
	}
	if _, err := NewHistogram2DOperator(Histogram2DConfig{Var: "p", Bins: 2}); err == nil {
		t.Error("no pairs accepted")
	}
	if _, err := NewHistogram2DOperator(Histogram2DConfig{Var: "p", Bins: 2, Pairs: [][2]int{{-1, 0}}}); err == nil {
		t.Error("negative column accepted")
	}
}

// TestHistogram2DRejectsRepeatedPair: a repeated pair would be reduced on
// two ranks and written twice under one name, so ReadVar would stack the
// two matrices. The transposed pair is a different histogram.
func TestHistogram2DRejectsRepeatedPair(t *testing.T) {
	if _, err := NewHistogram2DOperator(Histogram2DConfig{Var: "p", Bins: 4, Pairs: [][2]int{{0, 1}, {0, 1}}}); err == nil {
		t.Error("repeated pair accepted")
	}
	if _, err := NewHistogram2DOperator(Histogram2DConfig{Var: "p", Bins: 4, Pairs: [][2]int{{0, 1}, {1, 0}}}); err != nil {
		t.Errorf("transposed pair rejected: %v", err)
	}
}

func TestHistogram2DOperatorMatchesReference(t *testing.T) {
	const (
		numCompute = 3
		numStaging = 2
		perRank    = 250
		bins       = 6
	)
	pair := [2]int{colX, colY}
	res := runParticlePipeline(t, numCompute, numStaging, perRank,
		func(dump int) []staging.Operator {
			op, err := NewHistogram2DOperator(Histogram2DConfig{
				Var: "p", Pairs: [][2]int{pair}, Bins: bins,
				Ranges: map[int][2]float64{colX: {0, 1}, colY: {0, 1}},
			})
			if err != nil {
				t.Error(err)
				return nil
			}
			return []staging.Operator{op}
		})
	ref := make([]int64, bins*bins)
	for rank := 0; rank < numCompute; rank++ {
		rng := rand.New(rand.NewSource(int64(rank) + 1))
		arr := makeParticles(rank, perRank, rng)
		for i := 0; i < perRank; i++ {
			bx := bitmap.Bin(arr.Float64[i*attrCount+colX], [2]float64{0, 1}, bins)
			by := bitmap.Bin(arr.Float64[i*attrCount+colY], [2]float64{0, 1}, bins)
			ref[bx*bins+by]++
		}
	}
	var got []int64
	for rank := 0; rank < numStaging; rank++ {
		hists := res.StagingResults[rank][0].PerOperator["histogram2d"]["histograms2d"].(map[[2]int][]int64)
		if counts, ok := hists[pair]; ok {
			if got != nil {
				t.Fatal("pair owned by two ranks")
			}
			got = counts
		}
	}
	if got == nil {
		t.Fatal("no 2D histogram produced")
	}
	for i := range ref {
		if got[i] != ref[i] {
			t.Errorf("cell %d = %d want %d", i, got[i], ref[i])
		}
	}
}

func TestReorgOperatorValidation(t *testing.T) {
	if _, err := NewReorgOperator(ReorgConfig{}); err == nil {
		t.Error("empty config accepted")
	}
	if _, err := NewReorgOperator(ReorgConfig{Vars: []string{""}}); err == nil {
		t.Error("empty var name accepted")
	}
	if _, err := NewReorgOperator(ReorgConfig{Vars: []string{"a", "a"}}); err == nil {
		t.Error("duplicate var accepted")
	}
}

// pixieSchema has two 3D global arrays, standing in for Pixie3D's eight.
var pixieSchema = &ffs.Schema{
	Name: "pixie3d",
	Fields: []ffs.Field{
		{Name: "rho", Kind: ffs.KindArray},
		{Name: "temp", Kind: ffs.KindArray},
	},
}

func TestReorgOperatorMergesGlobalArrays(t *testing.T) {
	// 8 writers in a 2x2x2 decomposition of a 8x8x8 global array.
	const g = 8
	const local = 4
	numCompute := 8
	refRho := make([]float64, g*g*g)
	refTemp := make([]float64, g*g*g)
	for i := range refRho {
		refRho[i] = float64(i)
		refTemp[i] = float64(i) * 0.5
	}
	blockOf := func(ref []float64, ox, oy, oz uint64) []float64 {
		out := make([]float64, local*local*local)
		pos := 0
		for x := ox; x < ox+local; x++ {
			for y := oy; y < oy+local; y++ {
				for z := oz; z < oz+local; z++ {
					out[pos] = ref[x*g*g+y*g+z]
					pos++
				}
			}
		}
		return out
	}
	fs, _ := pfs.New(pfs.Config{NumOSTs: 4, OSTBandwidth: 1e9, StripeSize: 1 << 20, Seed: 1})
	bw, _ := bp.CreateWriter(fs, "merged.bp", 4)
	cfg := predata.PipelineConfig{NumCompute: numCompute, NumStaging: 2, Dumps: 1}
	res, err := predata.RunPipeline(cfg,
		func(comm *mpi.Comm, client *predata.Client) error {
			r := comm.Rank()
			ox := uint64(r/4) * local
			oy := uint64(r/2%2) * local
			oz := uint64(r%2) * local
			rec := ffs.Record{
				"rho": &ffs.Array{
					Dims: []uint64{local, local, local}, Global: []uint64{g, g, g},
					Offsets: []uint64{ox, oy, oz}, Float64: blockOf(refRho, ox, oy, oz),
				},
				"temp": &ffs.Array{
					Dims: []uint64{local, local, local}, Global: []uint64{g, g, g},
					Offsets: []uint64{ox, oy, oz}, Float64: blockOf(refTemp, ox, oy, oz),
				},
			}
			_, err := client.Write(pixieSchema, rec, 0)
			return err
		},
		func(dump int) []staging.Operator {
			op, err := NewReorgOperator(ReorgConfig{
				Vars: []string{"rho", "temp"}, Output: bw, KeepResult: true,
			})
			if err != nil {
				t.Error(err)
				return nil
			}
			return []staging.Operator{op}
		})
	if err != nil {
		t.Fatal(err)
	}
	// Each variable merged on exactly one staging rank; contents exact.
	check := func(name string, ref []float64) {
		var found *ffs.Array
		for rank := 0; rank < 2; rank++ {
			if v, ok := res.StagingResults[rank][0].PerOperator["reorg"][name]; ok {
				if found != nil {
					t.Fatalf("%s merged on two ranks", name)
				}
				found = v.(*ffs.Array)
			}
		}
		if found == nil {
			t.Fatalf("%s not merged", name)
		}
		for i := range ref {
			if found.Float64[i] != ref[i] {
				t.Fatalf("%s elem %d = %g want %g", name, i, found.Float64[i], ref[i])
			}
		}
	}
	check("rho", refRho)
	check("temp", refTemp)

	// The merged BP file holds each variable as a single chunk.
	if _, err := bw.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := bp.OpenReader(fs, "merged.bp")
	if err != nil {
		t.Fatal(err)
	}
	for _, vi := range r.Vars() {
		if vi.Chunks != 1 {
			t.Errorf("%s has %d chunks after merge", vi.Name, vi.Chunks)
		}
	}
	got, _, _, err := r.ReadVar("rho", 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range refRho {
		if got[i] != refRho[i] {
			t.Fatalf("file rho elem %d mismatch", i)
		}
	}
}

func TestReorgOperatorIncompleteCoverage(t *testing.T) {
	// One writer sends half a global array: Reduce must reject.
	cfg := predata.PipelineConfig{NumCompute: 1, NumStaging: 1, Dumps: 1}
	_, err := predata.RunPipeline(cfg,
		func(comm *mpi.Comm, client *predata.Client) error {
			rec := ffs.Record{
				"rho": &ffs.Array{
					Dims: []uint64{2}, Global: []uint64{4}, Offsets: []uint64{0},
					Float64: []float64{1, 2},
				},
				"temp": &ffs.Array{
					Dims: []uint64{2}, Global: []uint64{4}, Offsets: []uint64{0},
					Float64: []float64{1, 2},
				},
			}
			_, err := client.Write(pixieSchema, rec, 0)
			return err
		},
		func(dump int) []staging.Operator {
			op, _ := NewReorgOperator(ReorgConfig{Vars: []string{"rho", "temp"}})
			return []staging.Operator{op}
		})
	if err == nil {
		t.Fatal("incomplete coverage accepted")
	}
}

func TestReorgOperatorRejectsOverlap(t *testing.T) {
	// Two writers send the same half: the element count matches the global
	// array, but the halves overlap and the other half is a gap. Reduce
	// must reject rather than write it zero-filled.
	cfg := predata.PipelineConfig{NumCompute: 2, NumStaging: 1, Dumps: 1}
	_, err := predata.RunPipeline(cfg,
		func(comm *mpi.Comm, client *predata.Client) error {
			half := func() *ffs.Array {
				return &ffs.Array{Dims: []uint64{2}, Global: []uint64{4}, Offsets: []uint64{0}, Float64: []float64{2, 2}}
			}
			_, err := client.Write(pixieSchema, ffs.Record{"rho": half(), "temp": half()}, 0)
			return err
		},
		func(dump int) []staging.Operator {
			op, _ := NewReorgOperator(ReorgConfig{Vars: []string{"rho", "temp"}})
			return []staging.Operator{op}
		})
	if err == nil || !strings.Contains(err.Error(), "overlap") {
		t.Fatalf("overlapping chunks: err = %v, want an overlap error", err)
	}
}

func TestBitmapIndexOperatorValidation(t *testing.T) {
	if _, err := NewBitmapIndexOperator(BitmapIndexConfig{}); err == nil {
		t.Error("empty config accepted")
	}
	if _, err := NewBitmapIndexOperator(BitmapIndexConfig{Var: "p", Bins: 0, Columns: []int{0}}); err == nil {
		t.Error("zero bins accepted")
	}
	if _, err := NewBitmapIndexOperator(BitmapIndexConfig{Var: "p", Bins: 2}); err == nil {
		t.Error("no columns accepted")
	}
	if _, err := NewBitmapIndexOperator(BitmapIndexConfig{Var: "p", Bins: 2, Columns: []int{-2}}); err == nil {
		t.Error("negative column accepted")
	}
	// A repeated column was appended twice per chunk: an index over 2N rows
	// whose queries named rows that do not exist.
	if _, err := NewBitmapIndexOperator(BitmapIndexConfig{Var: "p", Bins: 2, Columns: []int{0, 0}}); err == nil {
		t.Error("repeated column accepted")
	}
}

func TestBitmapIndexOperatorQueriesMatchScan(t *testing.T) {
	const (
		numCompute = 4
		numStaging = 2
		perRank    = 400
	)
	res := runParticlePipeline(t, numCompute, numStaging, perRank,
		func(dump int) []staging.Operator {
			op, err := NewBitmapIndexOperator(BitmapIndexConfig{
				Var: "p", Columns: []int{colX, colY}, Bins: 16,
				AggRanges: true,
			})
			if err != nil {
				t.Error(err)
				return nil
			}
			return []staging.Operator{op}
		})
	q := bitmap.RangeQuery{Lo: 0.25, Hi: 0.5}
	var totalHits, totalRows int
	for rank := 0; rank < numStaging; rank++ {
		r := res.StagingResults[rank][0].PerOperator["bitmapindex"]
		indexes := r["indexes"].(map[int]*bitmap.Index)
		cols := r["columns"].(map[int][]float64)
		totalRows += len(cols[colX])
		got, err := indexes[colX].Query(cols[colX], q)
		if err != nil {
			t.Fatal(err)
		}
		var want []uint64
		for i, v := range cols[colX] {
			if v >= q.Lo && v < q.Hi {
				want = append(want, uint64(i))
			}
		}
		if len(got) != len(want) {
			t.Fatalf("rank %d: %d hits want %d", rank, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("rank %d hit %d = %d want %d", rank, i, got[i], want[i])
			}
		}
		totalHits += len(got)
	}
	if totalRows != numCompute*perRank {
		t.Errorf("indexed %d rows want %d", totalRows, numCompute*perRank)
	}
	if totalHits == 0 {
		t.Error("query over uniform data returned nothing")
	}
}

func TestMinMaxPartialAndAggregate(t *testing.T) {
	arr := &ffs.Array{
		Dims:    []uint64{3, 2},
		Float64: []float64{1, 10, -2, 20, 3, 30},
	}
	pf := MinMaxPartial("p", []int{0, 1})
	p, err := pf(particleSchema, ffs.Record{"p": arr})
	if err != nil {
		t.Fatal(err)
	}
	mm := p.(ColumnMinMax)
	if mm.Min[0] != -2 || mm.Max[0] != 3 || mm.Min[1] != 10 || mm.Max[1] != 30 || mm.Rows != 3 {
		t.Errorf("partial %+v", mm)
	}
	// Errors.
	if _, err := pf(particleSchema, ffs.Record{}); err == nil {
		t.Error("missing variable accepted")
	}
	if _, err := MinMaxPartial("p", []int{5})(particleSchema, ffs.Record{"p": arr}); err == nil {
		t.Error("out-of-range column accepted")
	}
	// Aggregate two partials.
	agg := MinMaxAggregate()([]predata.RankPartial{
		{Rank: 0, Partial: ColumnMinMax{Cols: []int{0}, Min: []float64{-2}, Max: []float64{3}, Rows: 3}},
		{Rank: 1, Partial: ColumnMinMax{Cols: []int{0}, Min: []float64{-7}, Max: []float64{1}, Rows: 5}},
	})
	if agg["min:0"].(float64) != -7 || agg["max:0"].(float64) != 3 {
		t.Errorf("aggregate %v", agg)
	}
	if agg["rows"].(int64) != 8 {
		t.Errorf("rows %v", agg["rows"])
	}
	byRank := agg["rowsByRank"].(map[int]int)
	if byRank[0] != 3 || byRank[1] != 5 {
		t.Errorf("rowsByRank %v", byRank)
	}
}

func TestScatterRowsRandom(t *testing.T) {
	// Randomized 2D tiling reassembles exactly.
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		nx := 1 + rng.Intn(8)
		ny := 1 + rng.Intn(8)
		ref := make([]float64, nx*ny)
		for i := range ref {
			ref[i] = rng.Float64()
		}
		out := make([]float64, nx*ny)
		for x := 0; x < nx; {
			w := 1 + rng.Intn(nx-x)
			block := make([]float64, w*ny)
			for dx := 0; dx < w; dx++ {
				copy(block[dx*ny:(dx+1)*ny], ref[(x+dx)*ny:(x+dx+1)*ny])
			}
			scatterRows(out, []uint64{uint64(nx), uint64(ny)}, block,
				[]uint64{uint64(w), uint64(ny)}, []uint64{uint64(x), 0})
			x += w
		}
		for i := range ref {
			if out[i] != ref[i] {
				t.Fatalf("trial %d elem %d mismatch", trial, i)
			}
		}
	}
}

func TestMatrixVarErrors(t *testing.T) {
	chunk := &staging.Chunk{WriterRank: 0, Record: ffs.Record{
		"notarray": 5.0,
		"oneD":     &ffs.Array{Dims: []uint64{3}, Float64: []float64{1, 2, 3}},
		"ints":     &ffs.Array{Dims: []uint64{1, 1}, Int64: []int64{1}},
	}}
	if _, _, _, err := matrixVar(chunk, "absent"); err == nil {
		t.Error("absent variable accepted")
	}
	if _, _, _, err := matrixVar(chunk, "notarray"); err == nil {
		t.Error("non-array accepted")
	}
	if _, _, _, err := matrixVar(chunk, "oneD"); err == nil {
		t.Error("1D array accepted")
	}
	if _, _, _, err := matrixVar(chunk, "ints"); err == nil {
		t.Error("int array accepted")
	}
}

func TestRangeFromAgg(t *testing.T) {
	static := [2]float64{0, 1}
	if got := rangeFromAgg(nil, 0, static); got != static {
		t.Errorf("nil agg changed range: %v", got)
	}
	agg := map[string]any{"min:3": -5.0, "max:3": 5.0}
	if got := rangeFromAgg(agg, 3, static); got != [2]float64{-5, 5} {
		t.Errorf("agg range %v", got)
	}
	if got := rangeFromAgg(agg, 2, static); got != static {
		t.Errorf("missing column changed range: %v", got)
	}
}
