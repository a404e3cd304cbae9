package predata_test

// When the staging side releases a writer's region: a region is acked after
// the staging rank's last read of its bytes, because the writer packs a
// later dump into the frame behind a released region. A block-mapped
// chunk's last read is the engine's walk; every other chunk's bytes may be
// read until Finalize returns.

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"predata/internal/fabric"
	"predata/internal/ffs"
	"predata/internal/mpi"
	"predata/internal/ops"
	"predata/internal/predata"
	"predata/internal/staging"
)

const relWriters = 4

// serveOneDump has relWriters writers each Write one chunk of schema (rec
// gives writer w's record), then serves the dump through operators on
// numStaging staging ranks without a journal — one Map worker, one pull
// in flight, chunks in writer order — and returns the writers' endpoints.
// exposed lets the operators look at the endpoints mid-dump; operators is
// called once per staging rank.
func serveOneDump(t *testing.T, numStaging int, schema *ffs.Schema, rec func(w int) ffs.Record, operators func(exposed func(w int) bool) []staging.Operator) []*fabric.Endpoint {
	t.Helper()
	fab, err := fabric.New(fabric.DefaultConfig(relWriters + numStaging))
	if err != nil {
		t.Fatal(err)
	}
	defer fab.Shutdown()
	eps := make([]*fabric.Endpoint, relWriters)
	for w := range eps {
		eps[w], _ = fab.Endpoint(w)
		client, err := predata.NewClient(predata.ClientConfig{
			WriterRank: w, NumCompute: relWriters, NumStaging: numStaging, Endpoint: eps[w], StagingBase: relWriters,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := client.Write(schema, rec(w), 0); err != nil {
			t.Fatal(err)
		}
	}
	exposed := func(w int) bool { return eps[w].ExposedBytes() > 0 }
	opLists := make([][]staging.Operator, numStaging)
	for i := range opLists {
		opLists[i] = operators(exposed)
	}
	err = mpi.Run(numStaging, func(world *mpi.Comm) error {
		sep, err := fab.Endpoint(relWriters + world.Rank())
		if err != nil {
			return err
		}
		server, err := predata.NewServer(predata.ServerConfig{
			StagingIndex: world.Rank(), Comm: world, Endpoint: sep, NumCompute: relWriters,
		})
		if err != nil {
			return err
		}
		_, _, err = server.ServeDump(0, opLists[world.Rank()])
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return eps
}

// releaseCheckedHist is the 1-D histogram, checking as it starts to read
// each chunk — its walk, or its Map — which writers' regions are exposed.
type releaseCheckedHist struct {
	*ops.HistogramOperator
	check func(chunk *staging.Chunk)
}

func (h releaseCheckedHist) StartMap(ctx *staging.Context, chunk *staging.Chunk) (staging.RowMapper, error) {
	h.check(chunk)
	return h.HistogramOperator.StartMap(ctx, chunk)
}

func (h releaseCheckedHist) Map(ctx *staging.Context, chunk *staging.Chunk) error {
	h.check(chunk)
	return h.HistogramOperator.Map(ctx, chunk)
}

// TestBlockMappedRegionReleasedAfterWalk: in a histogram dump without a
// journal each region is released as soon as the engine is done with its
// chunk. When the histogram starts on writer w's chunk, the regions of the
// writers before it are gone and its own and later ones are exposed; after
// the dump none is. A record the engine cannot walk (two float64 arrays)
// is checked whole before its Map, and its region must outlive that Map.
func TestBlockMappedRegionReleasedAfterWalk(t *testing.T) {
	twoArrays := &ffs.Schema{Name: "two", Fields: []ffs.Field{{Name: "p", Kind: ffs.KindArray}, {Name: "q", Kind: ffs.KindArray}}}
	for _, tc := range []struct {
		name   string
		schema *ffs.Schema
		rec    func(w int) ffs.Record
	}{
		{"walked", bmSchema, func(w int) ffs.Record { return ffs.Record{"p": bmParticles(w, 0)} }},
		{"mapped", twoArrays, func(w int) ffs.Record {
			return ffs.Record{"p": bmParticles(w, 0), "q": &ffs.Array{Dims: []uint64{2}, Float64: []float64{1, 2}}}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var (
				mu      sync.Mutex
				reads   int
				mistake []string
			)
			eps := serveOneDump(t, 1, tc.schema, tc.rec, func(exposed func(int) bool) []staging.Operator {
				h, err := ops.NewHistogramOperator(ops.HistogramConfig{Var: "p", Columns: bmCols, Bins: bmBins, Ranges: bmRanges})
				if err != nil {
					t.Fatal(err)
				}
				return []staging.Operator{releaseCheckedHist{h, func(chunk *staging.Chunk) {
					mu.Lock()
					defer mu.Unlock()
					reads++
					for w := 0; w < relWriters; w++ {
						if want := w >= chunk.WriterRank; exposed(w) != want {
							mistake = append(mistake, fmt.Sprintf("reading writer %d's chunk: writer %d exposed %v, want %v",
								chunk.WriterRank, w, exposed(w), want))
						}
					}
				}}}
			})
			if reads != relWriters {
				t.Fatalf("the histogram started on %d chunks, want %d", reads, relWriters)
			}
			for _, m := range mistake {
				t.Error(m)
			}
			for w, ep := range eps {
				if n := ep.ExposedBytes(); n != 0 {
					t.Errorf("after ServeDump: writer %d still exposes %d bytes", w, n)
				}
			}
		})
	}
}

// finalizeCheckedSort is the sort operator, recording at Finalize which
// writers' regions are still exposed.
type finalizeCheckedSort struct {
	*ops.SortOperator
	atFinalize func()
}

func (s finalizeCheckedSort) Finalize(ctx *staging.Context) error {
	s.atFinalize()
	return s.SortOperator.Finalize(ctx)
}

// TestSortDumpHoldsRegionsUntilServeDumpReturns: a sort dump without a
// journal reads its chunks' bytes after Map, so every region is still
// exposed when Finalize runs and released once ServeDump returns.
func TestSortDumpHoldsRegionsUntilServeDumpReturns(t *testing.T) {
	var held []bool
	particles := func(w int) ffs.Record { return ffs.Record{"p": bmParticles(w, 0)} }
	eps := serveOneDump(t, 1, bmSchema, particles, func(exposed func(int) bool) []staging.Operator {
		s, err := ops.NewSortOperator(ops.SortConfig{Var: "p", KeyMajor: 0, KeyMinor: 5, MajorRange: [2]float64{0, 1}})
		if err != nil {
			t.Fatal(err)
		}
		return []staging.Operator{finalizeCheckedSort{s, func() {
			for w := 0; w < relWriters; w++ {
				held = append(held, exposed(w))
			}
		}}}
	})
	if len(held) != relWriters {
		t.Fatalf("Finalize saw %d writers, want %d", len(held), relWriters)
	}
	for w, h := range held {
		if !h {
			t.Errorf("in Finalize: writer %d's region already released", w)
		}
	}
	for w, ep := range eps {
		if n := ep.ExposedBytes(); n != 0 {
			t.Errorf("after ServeDump: writer %d still exposes %d bytes", w, n)
		}
	}
}

// slowCheckedReorg is the reorg operator, whose Reduce first lets the other
// staging rank run ahead, then records which writers' regions are exposed
// before it scatters their chunks.
type slowCheckedReorg struct {
	*ops.ReorgOperator
	atReduce func()
}

func (r slowCheckedReorg) Reduce(ctx *staging.Context, tag int, values []*staging.View) error {
	time.Sleep(20 * time.Millisecond)
	r.atReduce()
	return r.ReorgOperator.Reduce(ctx, tag, values)
}

// TestRegionsHeldUntilEveryRankIsDone: Reduce reads views into the frames
// of chunks other staging ranks pulled. The one variable's Reduce runs on
// staging rank 0 and scatters every writer's chunk, while rank 1 has
// nothing to reduce; rank 1 must still not release its writers' regions
// until rank 0 is done.
func TestRegionsHeldUntilEveryRankIsDone(t *testing.T) {
	const rows = 64
	schema := &ffs.Schema{Name: "slab", Fields: []ffs.Field{{Name: "p", Kind: ffs.KindArray}}}
	slab := func(w int) ffs.Record {
		return ffs.Record{"p": &ffs.Array{
			Dims: []uint64{rows, 8}, Global: []uint64{relWriters * rows, 8}, Offsets: []uint64{uint64(w * rows), 0},
			Float64: bmParticles(w, 0).Float64[:rows*8],
		}}
	}
	var (
		mu      sync.Mutex
		reduces int
		held    []bool
	)
	eps := serveOneDump(t, 2, schema, slab, func(exposed func(int) bool) []staging.Operator {
		r, err := ops.NewReorgOperator(ops.ReorgConfig{Vars: []string{"p"}})
		if err != nil {
			t.Fatal(err)
		}
		return []staging.Operator{slowCheckedReorg{r, func() {
			mu.Lock()
			defer mu.Unlock()
			reduces++
			for w := 0; w < relWriters; w++ {
				held = append(held, exposed(w))
			}
		}}}
	})
	if reduces != 1 {
		t.Fatalf("%d Reduce calls, want 1", reduces)
	}
	for w, h := range held {
		if !h {
			t.Errorf("in rank 0's Reduce: writer %d's region already released", w)
		}
	}
	for w, ep := range eps {
		if n := ep.ExposedBytes(); n != 0 {
			t.Errorf("after ServeDump: writer %d still exposes %d bytes", w, n)
		}
	}
}
