package ops

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"predata/internal/bp"
	"predata/internal/ffs"
	"predata/internal/mpi"
	"predata/internal/predata"
	"predata/internal/staging"
)

// Property tests: seed-randomized end-to-end checks of the operator
// algebra — sort permutes, histograms conserve counts (even on sampled
// input, after scaling), reorg round-trips — complementing the
// fixed-reference tests above.

var propSeeds = []int64{1, 7, 42}

// runSeededParticlePipeline is runParticlePipeline with a seed mixed
// into every writer's generator, so each property trial sees different
// data while staying reproducible.
func runSeededParticlePipeline(t *testing.T, numCompute, numStaging, perRank int,
	seed int64, opsFor predata.OperatorFactory) *predata.PipelineResult {
	t.Helper()
	res, err := predata.RunPipeline(predata.PipelineConfig{
		NumCompute:       numCompute,
		NumStaging:       numStaging,
		Dumps:            1,
		PartialCalculate: MinMaxPartial("p", []int{colX, colY, colRank}),
		Aggregate:        MinMaxAggregate(),
		Engine:           staging.Config{Workers: 2},
	}, func(comm *mpi.Comm, client *predata.Client) error {
		rng := rand.New(rand.NewSource(seed<<16 + int64(comm.Rank()) + 1))
		arr := makeParticles(comm.Rank(), perRank, rng)
		_, err := client.Write(particleSchema, ffs.Record{"p": arr}, 0)
		return err
	}, opsFor)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// seededInput regenerates exactly what runSeededParticlePipeline's
// writers produced.
func seededInput(numCompute, perRank int, seed int64) []*ffs.Array {
	out := make([]*ffs.Array, numCompute)
	for rank := range out {
		rng := rand.New(rand.NewSource(seed<<16 + int64(rank) + 1))
		out[rank] = makeParticles(rank, perRank, rng)
	}
	return out
}

// rowKey canonicalizes one particle row for multiset comparison.
func rowKey(row []float64) string {
	return fmt.Sprintf("%x %x %x %x %x %x %x %x",
		math.Float64bits(row[0]), math.Float64bits(row[1]),
		math.Float64bits(row[2]), math.Float64bits(row[3]),
		math.Float64bits(row[4]), math.Float64bits(row[5]),
		math.Float64bits(row[6]), math.Float64bits(row[7]))
}

// TestPropSortPermutation: the sorted output is a bit-exact multiset
// permutation of the input rows — nothing lost, duplicated, or mutated
// — and globally non-decreasing by the (major, minor) label.
func TestPropSortPermutation(t *testing.T) {
	const (
		numCompute = 6
		numStaging = 3
	)
	for _, seed := range propSeeds {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			perRank := 100 + int(seed%5)*31
			res := runSeededParticlePipeline(t, numCompute, numStaging, perRank, seed,
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

			want := map[string]int{}
			for _, arr := range seededInput(numCompute, perRank, seed) {
				for i := 0; i < perRank; i++ {
					want[rowKey(arr.Float64[i*attrCount:(i+1)*attrCount])]++
				}
			}
			got := map[string]int{}
			var all []float64
			for rank := 0; rank < numStaging; rank++ {
				r := res.StagingResults[rank][0].PerOperator["sort"]
				arr := r["sorted"].(*ffs.Array)
				all = append(all, arr.Float64...)
			}
			n := len(all) / attrCount
			if n != numCompute*perRank {
				t.Fatalf("output has %d rows, want %d", n, numCompute*perRank)
			}
			for i := 0; i < n; i++ {
				row := all[i*attrCount : (i+1)*attrCount]
				got[rowKey(row)]++
				if i == 0 {
					continue
				}
				prev := all[(i-1)*attrCount:]
				if prev[colRank] > row[colRank] ||
					(prev[colRank] == row[colRank] && prev[colID] > row[colID]) {
					t.Fatalf("rows %d,%d out of order: (%g,%g) > (%g,%g)",
						i-1, i, prev[colRank], prev[colID], row[colRank], row[colID])
				}
			}
			for k, c := range want {
				if got[k] != c {
					t.Fatalf("row %q: %d copies in, %d out — not a permutation", k, c, got[k])
				}
			}
			if len(got) != len(want) {
				t.Fatalf("%d distinct output rows, want %d", len(got), len(want))
			}
		})
	}
}

// TestPropHistogramConservation: every 1D histogram's bin counts sum to
// exactly the global particle count — bitmap.Bin clamps, so no value can
// escape the range.
func TestPropHistogramConservation(t *testing.T) {
	const (
		numCompute = 5
		numStaging = 2
		bins       = 13
	)
	cols := []int{colX, colV1, colWeight}
	for _, seed := range propSeeds {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			perRank := 150 + int(seed%7)*19
			res := runSeededParticlePipeline(t, numCompute, numStaging, perRank, seed,
				func(dump int) []staging.Operator {
					op, err := NewHistogramOperator(HistogramConfig{
						Var: "p", Columns: cols, Bins: bins, AggRanges: true,
					})
					if err != nil {
						t.Error(err)
						return nil
					}
					return []staging.Operator{op}
				})
			sums := map[int]int64{}
			for rank := 0; rank < numStaging; rank++ {
				hists := res.StagingResults[rank][0].PerOperator["histogram"]["histograms"].(map[int][]int64)
				for c, counts := range hists {
					if len(counts) != bins {
						t.Fatalf("column %d has %d bins, want %d", c, len(counts), bins)
					}
					for _, n := range counts {
						sums[c] += n
					}
				}
			}
			for _, c := range cols {
				if sums[c] != int64(numCompute*perRank) {
					t.Errorf("column %d bins sum to %d, want %d", c, sums[c], numCompute*perRank)
				}
			}
		})
	}
}

// TestPropHistogram2DConservation: the 2D histogram's cells likewise sum
// to the global particle count for every pair.
func TestPropHistogram2DConservation(t *testing.T) {
	const (
		numCompute = 4
		numStaging = 2
		bins       = 9
	)
	pairs := [][2]int{{colX, colY}, {colV1, colV2}}
	for _, seed := range propSeeds {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			perRank := 120 + int(seed%3)*41
			res := runSeededParticlePipeline(t, numCompute, numStaging, perRank, seed,
				func(dump int) []staging.Operator {
					op, err := NewHistogram2DOperator(Histogram2DConfig{
						Var: "p", Pairs: pairs, Bins: bins, AggRanges: true,
					})
					if err != nil {
						t.Error(err)
						return nil
					}
					return []staging.Operator{op}
				})
			sums := map[[2]int]int64{}
			for rank := 0; rank < numStaging; rank++ {
				hists := res.StagingResults[rank][0].PerOperator["histogram2d"]["histograms2d"].(map[[2]int][]int64)
				for p, counts := range hists {
					if len(counts) != bins*bins {
						t.Fatalf("pair %v has %d cells, want %d", p, len(counts), bins*bins)
					}
					for _, n := range counts {
						sums[p] += n
					}
				}
			}
			for _, p := range pairs {
				if sums[p] != int64(numCompute*perRank) {
					t.Errorf("pair %v cells sum to %d, want %d", p, sums[p], numCompute*perRank)
				}
			}
		})
	}
}

// TestPropHistogramShedSampledScaled: histograms are Optional, so under
// shed they see only the sampled chunks. With equal-sized chunks the
// bin sums must equal the sampled particle count exactly, and scaling
// by the sampling factor recovers the full count — the estimate the
// degraded dump reports.
func TestPropHistogramShedSampledScaled(t *testing.T) {
	const (
		nChunks  = 12
		rows     = 64
		sampled  = 3 // every 4th chunk survives the shed filter
		bins1d   = 8
		bins2d   = 5
		perChunk = rows
	)
	for _, seed := range propSeeds {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			err := mpi.Run(1, func(c *mpi.Comm) error {
				h1, err := NewHistogramOperator(HistogramConfig{
					Var: "p", Columns: []int{colX, colWeight}, Bins: bins1d,
					Ranges: map[int][2]float64{colX: {0, 1}, colWeight: {0, 1}},
				})
				if err != nil {
					return err
				}
				h2, err := NewHistogram2DOperator(Histogram2DConfig{
					Var: "p", Pairs: [][2]int{{colX, colY}}, Bins: bins2d,
					Ranges: map[int][2]float64{colX: {0, 1}, colY: {0, 1}},
				})
				if err != nil {
					return err
				}
				rng := rand.New(rand.NewSource(seed))
				chunks := make(chan *staging.Chunk, nChunks)
				for i := 0; i < nChunks; i++ {
					ch := &staging.Chunk{
						WriterRank: i,
						Timestep:   1,
						Schema:     particleSchema,
						Record:     ffs.Record{"p": makeParticles(i, perChunk, rng)},
						Shed:       staging.ShedSkipped,
					}
					if i%(nChunks/sampled) == 0 {
						ch.Shed = staging.ShedSampled
					}
					chunks <- ch
				}
				close(chunks)
				eng := staging.NewEngine(staging.Config{Workers: 2})
				res, err := eng.ProcessDump(c, chunks, []staging.Operator{h1, h2}, nil)
				if err != nil {
					return err
				}
				if !res.Degraded {
					return fmt.Errorf("shed dump not marked degraded")
				}
				wantSampled := int64(sampled * rows)
				hists := res.PerOperator["histogram"]["histograms"].(map[int][]int64)
				for _, col := range []int{colX, colWeight} {
					var sum int64
					for _, n := range hists[col] {
						sum += n
					}
					if sum != wantSampled {
						return fmt.Errorf("column %d sampled bins sum to %d, want %d", col, sum, wantSampled)
					}
					// Equal-sized chunks: scaling by the sampling factor
					// recovers the total population exactly.
					if scaled := sum * nChunks / sampled; scaled != int64(nChunks*rows) {
						return fmt.Errorf("column %d scaled count %d, want %d", col, scaled, nChunks*rows)
					}
				}
				h2d := res.PerOperator["histogram2d"]["histograms2d"].(map[[2]int][]int64)
				var sum2 int64
				for _, n := range h2d[[2]int{colX, colY}] {
					sum2 += n
				}
				if sum2 != wantSampled {
					return fmt.Errorf("2D sampled cells sum to %d, want %d", sum2, wantSampled)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestPropReorgRoundTrip: for randomized 3D decompositions, chunk-merge
// reconstructs the original global array bit-exactly — in the kept result,
// and, with Output set, in the file read back as well.
func TestPropReorgRoundTrip(t *testing.T) {
	decomps := [][3]int{{2, 2, 2}, {4, 2, 1}, {1, 2, 4}}
	for i, seed := range propSeeds {
		d := decomps[i%len(decomps)]
		t.Run(fmt.Sprintf("seed%d_%dx%dx%d", seed, d[0], d[1], d[2]), func(t *testing.T) {
			local := 2 + int(seed%2) // per-axis local edge
			px, py, pz := d[0], d[1], d[2]
			gx, gy, gz := px*local, py*local, pz*local
			numCompute := px * py * pz
			rng := rand.New(rand.NewSource(seed))
			ref := make([]float64, gx*gy*gz)
			for j := range ref {
				ref[j] = rng.NormFloat64()
			}
			blockOf := func(ox, oy, oz int) []float64 {
				out := make([]float64, local*local*local)
				pos := 0
				for x := ox; x < ox+local; x++ {
					for y := oy; y < oy+local; y++ {
						for z := oz; z < oz+local; z++ {
							out[pos] = ref[(x*gy+y)*gz+z]
							pos++
						}
					}
				}
				return out
			}
			for _, write := range []bool{false, true} {
				t.Run(fmt.Sprintf("write=%t", write), func(t *testing.T) {
					fs := newTestFS(t)
					var out *bp.Writer
					if write {
						w, err := bp.CreateWriter(fs, "merged.bp", 4)
						if err != nil {
							t.Fatal(err)
						}
						out = w
					}
					res, err := predata.RunPipeline(predata.PipelineConfig{
						NumCompute: numCompute, NumStaging: 2, Dumps: 1,
					}, func(comm *mpi.Comm, client *predata.Client) error {
						r := comm.Rank()
						ox := (r / (py * pz)) * local
						oy := (r / pz % py) * local
						oz := (r % pz) * local
						rec := ffs.Record{"rho": &ffs.Array{
							Dims:    []uint64{uint64(local), uint64(local), uint64(local)},
							Global:  []uint64{uint64(gx), uint64(gy), uint64(gz)},
							Offsets: []uint64{uint64(ox), uint64(oy), uint64(oz)},
							Float64: blockOf(ox, oy, oz),
						}}
						_, err := client.Write(reorgSchema, rec, 0)
						return err
					}, func(dump int) []staging.Operator {
						op, err := NewReorgOperator(ReorgConfig{Vars: []string{"rho"}, Output: out, KeepResult: true})
						if err != nil {
							t.Error(err)
							return nil
						}
						return []staging.Operator{op}
					})
					if err != nil {
						t.Fatal(err)
					}
					var merged *ffs.Array
					for rank := 0; rank < 2; rank++ {
						if v, ok := res.StagingResults[rank][0].PerOperator["reorg"]["rho"]; ok {
							if merged != nil {
								t.Fatal("rho merged on two ranks")
							}
							merged = v.(*ffs.Array)
						}
					}
					if merged == nil {
						t.Fatal("rho not merged")
					}
					if !slices.Equal(merged.Float64, ref) {
						t.Fatal("kept result differs from the reference — round trip broken")
					}
					if !write {
						return
					}
					if _, err := out.Close(); err != nil {
						t.Fatal(err)
					}
					r, err := bp.OpenReader(fs, "merged.bp")
					if err != nil {
						t.Fatal(err)
					}
					got, _, _, err := r.ReadVar("rho", 0)
					if err != nil {
						t.Fatal(err)
					}
					if !slices.Equal(got, merged.Float64) || !slices.Equal(got, ref) {
						t.Fatal("file read back differs from the kept result or the reference")
					}
				})
			}
		})
	}
}

// reorgSchema is a one-variable 3D schema for the round-trip property.
var reorgSchema = &ffs.Schema{
	Name:   "reorgprop",
	Fields: []ffs.Field{{Name: "rho", Kind: ffs.KindArray}},
}
