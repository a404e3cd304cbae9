package ops

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"testing"

	"predata/internal/bp"
	"predata/internal/ffs"
	"predata/internal/mpi"
	"predata/internal/pfs"
	"predata/internal/staging"
)

// Sort and reorg tests drive the operator through the staging engine
// directly, one goroutine per staging rank, so that a test decides which
// rank maps which chunk and in what order — the two things a pipeline run
// leaves to timing.

// Row layout of the hand-built chunks: the two label columns, then the
// row's identity (writer, row number), which no sort may separate from its
// label and which exposes the order equal labels come out in.
const (
	sortMajor = iota
	sortMinor
	sortWriter
	sortRow
	sortCols
)

// sortChunk packs labels into a chunk from the given writer: labels[i] is
// row i's (major, minor).
func sortChunk(writer int, step int64, labels [][2]float64) *staging.Chunk {
	data := make([]float64, 0, len(labels)*sortCols)
	for i, l := range labels {
		data = append(data, l[0], l[1], float64(writer), float64(i))
	}
	return &staging.Chunk{
		WriterRank: writer,
		Timestep:   step,
		Schema:     particleSchema,
		Record:     ffs.Record{"p": &ffs.Array{Dims: []uint64{uint64(len(labels)), sortCols}, Float64: data}},
	}
}

// dealChunks hands chunks to staging ranks round-robin, the way writers are
// assigned to staging ranks.
func dealChunks(chunks []*staging.Chunk, ranks int) [][]*staging.Chunk {
	streams := make([][]*staging.Chunk, ranks)
	for i, c := range chunks {
		streams[i%ranks] = append(streams[i%ranks], c)
	}
	return streams
}

// runDump serves one dump: staging rank r maps streams[r] in order with
// the given number of Map workers (one worker makes emit order the delivery
// order) through ops[r]. The dump's timestep is its chunks'.
func runDump(t testing.TB, streams [][]*staging.Chunk, workers int, ops []staging.Operator) []*staging.Result {
	t.Helper()
	var step int64
	for _, s := range streams {
		for _, chunk := range s {
			step = chunk.Timestep
		}
	}
	results := make([]*staging.Result, len(streams))
	err := mpi.Run(len(streams), func(c *mpi.Comm) error {
		mine := streams[c.Rank()]
		ch := make(chan *staging.Chunk, len(mine))
		for _, chunk := range mine {
			ch <- chunk
		}
		close(ch)
		eng := staging.NewEngine(staging.Config{Workers: workers})
		eng.SetDump(step)
		res, err := eng.ProcessDump(c, ch, ops[c.Rank():c.Rank()+1], nil)
		results[c.Rank()] = res
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return results
}

// keptSortOps returns one fresh KeepResult operator per staging rank.
func keptSortOps(t testing.TB, ranks int, rng [2]float64) []staging.Operator {
	t.Helper()
	ops := make([]staging.Operator, ranks)
	for r := range ops {
		op, err := NewSortOperator(SortConfig{
			Var: "p", KeyMajor: sortMajor, KeyMinor: sortMinor, MajorRange: rng, KeepResult: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		ops[r] = op
	}
	return ops
}

// keptRows concatenates the ranks' kept outputs in rank order.
func keptRows(results []*staging.Result) []float64 {
	var all []float64
	for _, r := range results {
		all = append(all, r.PerOperator["sort"]["sorted"].(*ffs.Array).Float64...)
	}
	return all
}

// refCmp is the documented key order, written without keyImage:
// -Inf < ... < -0 < +0 < ... < +Inf < NaN, every NaN alike.
func refCmp(a, b float64) int {
	aNaN, bNaN := a != a, b != b
	switch {
	case aNaN || bNaN:
		return btoi(aNaN) - btoi(bNaN)
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return btoi(math.Signbit(b)) - btoi(math.Signbit(a)) // equal: only ±0 differ
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// referenceSort is the oracle: every row of every chunk, taken in (writer,
// row) order, stably sorted by label with the standard library.
func referenceSort(chunks []*staging.Chunk) []float64 {
	byWriter := slices.Clone(chunks)
	sort.SliceStable(byWriter, func(a, b int) bool { return byWriter[a].WriterRank < byWriter[b].WriterRank })
	var rows [][]float64
	for _, c := range byWriter {
		data := c.Record["p"].(*ffs.Array).Float64
		for i := 0; i+sortCols <= len(data); i += sortCols {
			rows = append(rows, data[i:i+sortCols])
		}
	}
	sort.SliceStable(rows, func(a, b int) bool {
		if c := refCmp(rows[a][sortMajor], rows[b][sortMajor]); c != 0 {
			return c < 0
		}
		return refCmp(rows[a][sortMinor], rows[b][sortMinor]) < 0
	})
	return slices.Concat(rows...)
}

// sameBits compares float slices bit for bit (NaN equals NaN, -0 is not +0).
func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// TestSortMatchesStableReference: over shapes chosen to hit every branch of
// the radix sort and the gallop merge, for 1 to 5 staging ranks, the ranks'
// outputs laid end to end equal a stable standard-library sort of the input.
func TestSortMatchesStableReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	labels := func(n int, f func(i int) [2]float64) [][2]float64 {
		out := make([][2]float64, n)
		for i := range out {
			out[i] = f(i)
		}
		rng.Shuffle(n, func(a, b int) { out[a], out[b] = out[b], out[a] })
		return out
	}
	writers := func(w int, mk func(writer int) [][2]float64) []*staging.Chunk {
		out := make([]*staging.Chunk, w)
		for i := range out {
			out[i] = sortChunk(i, 0, mk(i))
		}
		return out
	}
	shapes := []struct {
		name   string
		chunks []*staging.Chunk
		rng    [2]float64
	}{
		{"gtc: one major per writer, disjoint runs", writers(6, func(w int) [][2]float64 {
			return labels(300, func(i int) [2]float64 { return [2]float64{float64(w), float64(i)} })
		}), [2]float64{0, 5}},
		{"fully interleaved runs", writers(7, func(w int) [][2]float64 {
			return labels(200, func(i int) [2]float64 { return [2]float64{float64(i / 50), float64(i*7 + w)} })
		}), [2]float64{0, 3}},
		{"one run", writers(1, func(int) [][2]float64 {
			return labels(500, func(i int) [2]float64 { return [2]float64{float64(i % 9), float64(i)} })
		}), [2]float64{0, 8}},
		{"all keys equal", writers(5, func(int) [][2]float64 {
			return labels(120, func(int) [2]float64 { return [2]float64{4, 2} })
		}), [2]float64{0, 8}},
		{"duplicate labels across writers", writers(4, func(int) [][2]float64 {
			return labels(150, func(i int) [2]float64 { return [2]float64{float64(i % 6), float64(i % 10)} })
		}), [2]float64{0, 5}},
		{"every row to the first rank", writers(4, func(w int) [][2]float64 {
			return labels(100, func(i int) [2]float64 { return [2]float64{rng.Float64(), float64(i)} })
		}), [2]float64{0, 1e6}},
		{"every row to the last rank", writers(4, func(w int) [][2]float64 {
			return labels(100, func(i int) [2]float64 { return [2]float64{50 + rng.Float64(), float64(i)} })
		}), [2]float64{0, 50}},
		{"a middle rank receives nothing", writers(4, func(w int) [][2]float64 {
			return labels(100, func(i int) [2]float64 { return [2]float64{float64(i%2) * 100, float64(i)} })
		}), [2]float64{0, 100}},
		{"empty chunks among full ones", writers(6, func(w int) [][2]float64 {
			if w%2 == 0 {
				return nil
			}
			return labels(80, func(i int) [2]float64 { return [2]float64{float64(i % 4), float64(w*1000 + i)} })
		}), [2]float64{0, 3}},
		{"only empty chunks", writers(3, func(int) [][2]float64 { return nil }), [2]float64{0, 1}},
		{"64 writers", writers(64, func(w int) [][2]float64 {
			return labels(40, func(i int) [2]float64 { return [2]float64{float64(w % 8), float64(i*64 + w)} })
		}), [2]float64{0, 7}},
		{"real-valued keys of both signs, every byte varying", writers(5, func(int) [][2]float64 {
			return labels(400, func(int) [2]float64 {
				return [2]float64{rng.NormFloat64() * 1e3, math.Float64frombits(rng.Uint64()>>2 | uint64(rng.Intn(2))<<63)}
			})
		}), [2]float64{-3e3, 3e3}},
		{"zero-width range", writers(3, func(w int) [][2]float64 {
			return labels(60, func(i int) [2]float64 { return [2]float64{7, float64(i % 20)} })
		}), [2]float64{7, 7}},
	}
	for _, sh := range shapes {
		want := referenceSort(sh.chunks)
		for ranks := 1; ranks <= 5; ranks++ {
			t.Run(fmt.Sprintf("%s/%d ranks", sh.name, ranks), func(t *testing.T) {
				results := runDump(t, dealChunks(sh.chunks, ranks), 2, keptSortOps(t, ranks, sh.rng))
				var rows int64
				for _, r := range results {
					rows += r.PerOperator["sort"]["rows"].(int64)
				}
				if got := keptRows(results); rows != int64(len(want)/sortCols) || !sameBits(got, want) {
					t.Fatalf("%d rows out for %d in; output differs from the stable reference sort", rows, len(want)/sortCols)
				}
			})
		}
	}
}

// TestSortSixtyFourWritersToOneRank is the paper's 64:1 ratio: one staging
// rank merges 64 runs.
func TestSortSixtyFourWritersToOneRank(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	chunks := make([]*staging.Chunk, 64)
	for w := range chunks {
		labels := make([][2]float64, 50+rng.Intn(50))
		for i := range labels {
			labels[i] = [2]float64{float64(rng.Intn(64)), float64(rng.Intn(200))}
		}
		chunks[w] = sortChunk(w, 0, labels)
	}
	results := runDump(t, dealChunks(chunks, 1), 2, keptSortOps(t, 1, [2]float64{0, 63}))
	if !sameBits(keptRows(results), referenceSort(chunks)) {
		t.Fatal("64-run merge differs from the stable reference sort")
	}
}

// newTestFS returns the in-memory file system the sort and reorg tests
// write to.
func newTestFS(tb testing.TB) *pfs.FileSystem {
	tb.Helper()
	fs, err := pfs.New(pfs.Config{NumOSTs: 4, OSTBandwidth: 1e9, StripeSize: 1 << 20, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	return fs
}

// exportFile returns the bytes of a closed file on fs.
func exportFile(tb testing.TB, fs *pfs.FileSystem, name string) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := fs.Export(name, &buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// sortDumpToFiles runs one dump in which staging rank r sorts by cfg into
// its own BP file "sorted-<r>.bp" on fs, and returns the ranks' results;
// the files are closed on return.
func sortDumpToFiles(tb testing.TB, fs *pfs.FileSystem, streams [][]*staging.Chunk, workers int, cfg SortConfig) []*staging.Result {
	tb.Helper()
	writers := make([]*bp.Writer, len(streams))
	ops := make([]staging.Operator, len(streams))
	for r := range writers {
		w, err := bp.CreateWriter(fs, fmt.Sprintf("sorted-%d.bp", r), 4)
		if err != nil {
			tb.Fatal(err)
		}
		cfg.Output = w
		op, err := NewSortOperator(cfg)
		if err != nil {
			tb.Fatal(err)
		}
		writers[r], ops[r] = w, op
	}
	results := runDump(tb, streams, workers, ops)
	for _, w := range writers {
		if _, err := w.Close(); err != nil {
			tb.Fatal(err)
		}
	}
	return results
}

// sortToFiles sorts one dump of sortChunk rows, one Map worker per rank so
// that emit order is delivery order, and returns each rank's file.
func sortToFiles(t *testing.T, streams [][]*staging.Chunk, rng [2]float64) [][]byte {
	t.Helper()
	fs := newTestFS(t)
	sortDumpToFiles(t, fs, streams, 1, SortConfig{Var: "p", KeyMajor: sortMajor, KeyMinor: sortMinor, MajorRange: rng})
	files := make([][]byte, len(streams))
	for r := range files {
		files[r] = exportFile(t, fs, fmt.Sprintf("sorted-%d.bp", r))
	}
	return files
}

// TestSortTiesDoNotDependOnArrivalOrder: two writers carry the same labels;
// whichever chunk a rank maps first, equal labels come out by (writer rank,
// row) and the files are byte-identical.
func TestSortTiesDoNotDependOnArrivalOrder(t *testing.T) {
	labels := make([][2]float64, 90)
	for i := range labels {
		labels[i] = [2]float64{float64(i % 3), float64(i % 5)}
	}
	a, b, c := sortChunk(0, 4, labels), sortChunk(1, 4, labels), sortChunk(2, 4, labels[:31])
	rng := [2]float64{0, 2}
	first := sortToFiles(t, [][]*staging.Chunk{{a, b}, {c}}, rng)
	second := sortToFiles(t, [][]*staging.Chunk{{b, a}, {c}}, rng)
	third := sortToFiles(t, [][]*staging.Chunk{{c}, {b, a}}, rng)
	for r := range first {
		if !bytes.Equal(first[r], second[r]) || !bytes.Equal(first[r], third[r]) {
			t.Errorf("rank %d's file depends on the order its chunks arrived in", r)
		}
	}
}

// TestSortKeyOrderTable pins the order of the keys plain < does not define.
func TestSortKeyOrderTable(t *testing.T) {
	negZero := math.Copysign(0, -1)
	ascending := []float64{math.Inf(-1), -math.MaxFloat64, -1, -math.SmallestNonzeroFloat64, negZero,
		0, math.SmallestNonzeroFloat64, 1, math.MaxFloat64, math.Inf(1), math.NaN()}
	for i := 1; i < len(ascending); i++ {
		if lo, hi := ascending[i-1], ascending[i]; keyImage(lo) >= keyImage(hi) || refCmp(lo, hi) >= 0 {
			t.Errorf("%g does not sort before %g", lo, hi)
		}
	}
	otherNaN := math.Float64frombits(0xfff8000000000123)
	if keyImage(otherNaN) != keyImage(math.NaN()) || refCmp(otherNaN, math.NaN()) != 0 {
		t.Error("two NaNs with different payloads sort apart")
	}

	// Destination ranks follow the same order: non-decreasing along the
	// table, -Inf on the first rank, +Inf and NaN on the last.
	const ranks = 4
	s := &SortOperator{lo: -10, hi: 10}
	prev := 0
	for _, v := range ascending {
		b := s.bucketOf(v, ranks)
		if b < prev || b >= ranks {
			t.Errorf("bucketOf(%g) = %d after %d", v, b, prev)
		}
		prev = b
	}
	for _, c := range []struct {
		v    float64
		want int
	}{{math.Inf(-1), 0}, {-10, 0}, {negZero, 1}, {0, 1}, {1e-9, 2}, {10, ranks - 1}, {math.Inf(1), ranks - 1}, {math.NaN(), ranks - 1}} {
		if got := s.bucketOf(c.v, ranks); got != c.want {
			t.Errorf("bucketOf(%g) = %d, want %d", c.v, got, c.want)
		}
	}
	flat := &SortOperator{lo: 3, hi: 3}
	if got := flat.bucketOf(math.NaN(), ranks); got != ranks-1 {
		t.Errorf("zero-width range: bucketOf(NaN) = %d, want the last rank", got)
	}

	// End to end: the table as major and as minor keys, scattered over two
	// writers, comes out in table order with every NaN major on the last
	// rank.
	var labels [][2]float64
	for _, major := range ascending {
		for _, minor := range ascending {
			labels = append(labels, [2]float64{major, minor})
		}
	}
	rand.New(rand.NewSource(5)).Shuffle(len(labels), func(a, b int) { labels[a], labels[b] = labels[b], labels[a] })
	chunks := []*staging.Chunk{sortChunk(0, 0, labels[:50]), sortChunk(1, 0, labels[50:])}
	results := runDump(t, dealChunks(chunks, 3), 1, keptSortOps(t, 3, [2]float64{-10, 10}))
	if !sameBits(keptRows(results), referenceSort(chunks)) {
		t.Error("special keys come out in an order other than the documented one")
	}
	for r, res := range results[:2] {
		rows := res.PerOperator["sort"]["sorted"].(*ffs.Array).Float64
		for i := sortMajor; i < len(rows); i += sortCols {
			if rows[i] != rows[i] {
				t.Fatalf("rank %d holds a NaN major key; those belong to the last rank", r)
			}
		}
	}
}

// TestSortOperatorReusedAcrossDumps: one operator instance serves two dumps
// that differ in timestep and in row width; the file's index carries both
// timesteps.
func TestSortOperatorReusedAcrossDumps(t *testing.T) {
	fs := newTestFS(t)
	w, err := bp.CreateWriter(fs, "reused.bp", 4)
	if err != nil {
		t.Fatal(err)
	}
	op, err := NewSortOperator(SortConfig{Var: "p", KeyMajor: 0, KeyMinor: 1, MajorRange: [2]float64{0, 9}, Output: w})
	if err != nil {
		t.Fatal(err)
	}
	wide := &staging.Chunk{WriterRank: 0, Timestep: 9, Schema: particleSchema, Record: ffs.Record{
		"p": &ffs.Array{Dims: []uint64{2, 6}, Float64: []float64{5, 1, 0, 0, 0, 0, 2, 1, 0, 0, 0, 0}},
	}}
	for _, chunk := range []*staging.Chunk{sortChunk(0, 3, [][2]float64{{4, 1}, {1, 1}, {2, 2}}), wide} {
		runDump(t, [][]*staging.Chunk{{chunk}}, 1, []staging.Operator{op})
	}
	if _, err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := bp.OpenReader(fs, "reused.bp")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, vi := range r.Vars() {
		got = append(got, fmt.Sprintf("%s@%d%v", vi.Name, vi.Timestep, vi.Global))
	}
	if want := []string{"p_sorted@3[3 4]", "p_sorted@9[2 6]"}; !slices.Equal(got, want) {
		t.Errorf("index holds %v, want %v", got, want)
	}
}

// goldenSortInput is the fixed dump behind TestSortOutputMatchesParentBytes:
// five writers of GTC-like labels plus one of real-valued labels of both
// signs, all distinct, dealt to three staging ranks.
func goldenSortInput() [][]*staging.Chunk {
	rng := rand.New(rand.NewSource(2010))
	var chunks []*staging.Chunk
	for w := 0; w < 5; w++ {
		labels := make([][2]float64, 257+w)
		for i := range labels {
			labels[i] = [2]float64{float64(w), float64(i)}
		}
		rng.Shuffle(len(labels), func(a, b int) { labels[a], labels[b] = labels[b], labels[a] })
		chunks = append(chunks, sortChunk(w, 17, labels))
	}
	labels := make([][2]float64, 300)
	for i := range labels {
		labels[i] = [2]float64{rng.NormFloat64() * 2, rng.NormFloat64()}
	}
	chunks = append(chunks, sortChunk(5, 17, labels))
	return dealChunks(chunks, 3)
}

// TestSortOutputMatchesParentBytes: where the old comparator defined the
// order (distinct, non-NaN labels) the new data path writes the same files —
// header, payload, CRCs, footer index, attributes. The lengths and CRCs were
// captured by running sortToFiles(goldenSortInput()) on the sort.Slice
// implementation this one replaced.
func TestSortOutputMatchesParentBytes(t *testing.T) {
	want := []struct {
		size int
		crc  uint32
	}{{3019, 0x5c70129a}, {20907, 0x23a61206}, {27627, 0x9226fed0}}
	for r, file := range sortToFiles(t, goldenSortInput(), [2]float64{-4, 4}) {
		if got := crc32.ChecksumIEEE(file); len(file) != want[r].size || got != want[r].crc {
			t.Errorf("rank %d wrote %d bytes with CRC %#08x, the replaced implementation %d bytes with CRC %#08x",
				r, len(file), got, want[r].size, want[r].crc)
		}
	}
}

// sortBenchInput builds writers×rows GTC-like rows. Disjoint: every writer
// has its own major key, so a rank's runs do not overlap and merge by whole
// copies. Interleaved: all writers share one major key and stripe the minor
// key, so consecutive output rows always come from different runs — the
// merge's worst case.
func sortBenchInput(writers, rows int, interleaved bool) ([]*staging.Chunk, [2]float64) {
	rng := rand.New(rand.NewSource(1))
	chunks := make([]*staging.Chunk, writers)
	for w := range chunks {
		data := make([]float64, rows*attrCount)
		for i, r := range rng.Perm(rows) {
			row := data[i*attrCount : (i+1)*attrCount]
			row[colRank], row[colID] = float64(w), float64(r)
			if interleaved {
				row[colRank], row[colID] = float64(r*2/rows), float64(r*writers+w)
			}
		}
		chunks[w] = &staging.Chunk{WriterRank: w, Schema: particleSchema,
			Record: ffs.Record{"p": &ffs.Array{Dims: []uint64{uint64(rows), attrCount}, Float64: data}}}
	}
	if interleaved {
		return chunks, [2]float64{0, 1}
	}
	return chunks, [2]float64{0, float64(writers - 1)}
}

// sortBenchDump runs one two-rank, two-worker dump over GTC-shaped chunks,
// each rank writing its own BP file on fs.
func sortBenchDump(tb testing.TB, fs *pfs.FileSystem, chunks []*staging.Chunk, rng [2]float64) {
	sortDumpToFiles(tb, fs, dealChunks(chunks, 2), 2, SortConfig{Var: "p", KeyMajor: colRank, KeyMinor: colID, MajorRange: rng})
}

// TestSortDumpAllocationBudget: on the staging side a sorted row is
// allocated once, in the process group, which the file system keeps. Map
// emits views of the chunk's rows with their sorted numbers and keys (20
// bytes a row, recycled through runBufs once warm; TestSortRunsRecycled
// holds that), its entries and radix scratch are recycled, and Reduce
// gathers each row from the writer's frame straight into the group: about
// 1.3 bytes per payload byte at eight columns, for runs that merge by
// whole copies and for runs that interleave row by row alike. That holds
// for a pipeline's steady state, a dump whose scratch pool the dump before
// it filled, with no collection in between: budget 1.8 B/B. A cold dump,
// after two collections emptied the pool and with the collector running,
// allocates its scratch too, and so does a warm one under the race
// detector, which makes sync.Pool drop items at random: budget 2.9 B/B,
// what gathering each destination's rows into a block first, then merging
// the blocks into the group, took (2.75).
func TestSortDumpAllocationBudget(t *testing.T) {
	warmBudget := uint64(18) // tenths of a byte per payload byte
	if raceEnabled {
		warmBudget = 29
	}
	for _, shape := range []string{"disjoint", "interleaved"} {
		t.Run(shape, func(t *testing.T) {
			fs := newTestFS(t)
			chunks, rng := sortBenchInput(8, 1<<14, shape == "interleaved")
			payload := uint64(8 * (1 << 14) * attrCount * 8)
			check := func(state string, budget uint64) {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				sortBenchDump(t, fs, chunks, rng)
				runtime.ReadMemStats(&after)
				if got, limit := after.TotalAlloc-before.TotalAlloc, payload*budget/10; got > limit {
					t.Errorf("one %s sort dump of %d payload bytes allocated %d (%.2f B/B), budget %d (%.1f B/B)",
						state, payload, got, float64(got)/float64(payload), limit, float64(budget)/10)
				}
			}
			runtime.GC()
			runtime.GC()
			check("cold", 29)
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			check("warm", warmBudget)
		})
	}
}

// TestSortRunsRecycled: Map takes the runs' row numbers and keys from
// runBufs, and they go back once the Reduces that merge them have planned
// the merge. The keys interleave, so every chunk's runs reach both ranks
// and its buffer returns only after both Reduces released their runs.
// After a warm-up dump, a dump allocates under 1 % of its payload bytes
// (the output groups are the dropped files' buffers), where runs made
// fresh take 20 bytes a 64-byte row, and its output is the reference
// sort. The least of three dumps is held to that: the Map scratch list
// keeps as many scratches as Maps ever ran at once, and a scratch grows
// its histograms for a chunk with more radix digits, so a dump whose Maps
// overlap more than any before it makes one more.
func TestSortRunsRecycled(t *testing.T) {
	const writers, rows = 8, 1 << 14
	chunks, rng := sortBenchInput(writers, rows, true)
	var want [][]float64
	for _, c := range chunks {
		data := c.Record["p"].(*ffs.Array).Float64
		for i := 0; i < len(data); i += attrCount {
			want = append(want, data[i:i+attrCount])
		}
	}
	slices.SortFunc(want, func(a, b []float64) int {
		return cmp.Or(refCmp(a[colRank], b[colRank]), refCmp(a[colID], b[colID]))
	})
	payload := uint64(writers * rows * attrCount * 8)
	fs := newTestFS(t)
	cfg := SortConfig{Var: "p", KeyMajor: colRank, KeyMinor: colID, MajorRange: rng, KeepResult: true}
	least := uint64(math.MaxUint64)
	for dump := range 4 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		results := sortDumpToFiles(t, fs, dealChunks(chunks, 2), 2, cfg)
		runtime.ReadMemStats(&after)
		for r, res := range results {
			if got := res.PerOperator["sort"]["rows"].(int64); got == 0 || got == writers*rows {
				t.Fatalf("dump %d: rank %d sorted %d of %d rows, want a share of them", dump, r, got, writers*rows)
			}
		}
		if !sameBits(keptRows(results), slices.Concat(want...)) {
			t.Fatalf("dump %d: the sorted rows are not the reference sort", dump)
		}
		if dump > 0 {
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
	}
	if limit := payload / 100; least >= limit {
		t.Errorf("the least a warm dump of %d payload bytes allocated is %d (%.4f B/B), limit %d", payload, least, float64(least)/float64(payload), limit)
	}
}

// TestSortOutputDoesNotAliasInput: the sorted rows are copies. Once a
// two-rank dump is over, overwriting every input chunk — as its writer
// does when it reuses the frame for a later dump — changes neither the
// committed files nor the rows kept in the result.
func TestSortOutputDoesNotAliasInput(t *testing.T) {
	streams := goldenSortInput()
	fs := newTestFS(t)
	writers := make([]*bp.Writer, 2)
	ops := make([]staging.Operator, 2)
	for r := range writers {
		w, err := bp.CreateWriter(fs, fmt.Sprintf("sorted-%d.bp", r), 4)
		if err != nil {
			t.Fatal(err)
		}
		op, err := NewSortOperator(SortConfig{
			Var: "p", KeyMajor: sortMajor, KeyMinor: sortMinor, MajorRange: [2]float64{-4, 4}, Output: w, KeepResult: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		writers[r], ops[r] = w, op
	}
	var chunks []*staging.Chunk
	for _, s := range streams {
		chunks = append(chunks, s...)
	}
	results := runDump(t, dealChunks(chunks, 2), 2, ops)
	for _, w := range writers {
		if _, err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	files := make([][]byte, len(writers))
	for r := range files {
		files[r] = exportFile(t, fs, fmt.Sprintf("sorted-%d.bp", r))
	}
	kept := slices.Clone(keptRows(results))
	if !sameBits(kept, referenceSort(chunks)) {
		t.Fatal("the kept rows are not the sorted input")
	}

	poison := math.Float64frombits(0xA5A5A5A5A5A5A5A5)
	for _, c := range chunks {
		data := c.Record["p"].(*ffs.Array).Float64
		for i := range data {
			data[i] = poison
		}
	}
	for r := range files {
		if !bytes.Equal(exportFile(t, fs, fmt.Sprintf("sorted-%d.bp", r)), files[r]) {
			t.Errorf("rank %d's file changed when the input was overwritten", r)
		}
	}
	if !sameBits(keptRows(results), kept) {
		t.Error("the kept rows changed when the input was overwritten")
	}
}

// TestRadixSortDigitTable: keys whose varying bits straddle a digit
// boundary, reach bit 63, or span the minor and major words come out of
// radixSort in the order sort.SliceStable gives them, ties in entry order.
// The digits each key set is cut into are pinned too.
func TestRadixSortDigitTable(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ids := rng.Perm(1 << 16)
	cases := []struct {
		name   string
		n      int // entries; 3000 when 0
		key    func(i int) sortKey
		digits []radixDigit
	}{
		{"one narrow digit", 0, func(i int) sortKey { return sortKey{uint64(i%7) << 3, 5} },
			[]radixDigit{{0, 3, 3}}},
		{"bits 8-11 are one digit, not two", 0, func(i int) sortKey { return sortKey{uint64(rng.Intn(1<<4)) << 8, 0} },
			[]radixDigit{{0, 8, 4}}},
		{"13 varying bits are one digit", 0, func(i int) sortKey { return sortKey{uint64(rng.Intn(1<<13)) << 5, 0} },
			[]radixDigit{{0, 5, 13}}},
		{"13 varying bits need two digits", 0, func(i int) sortKey {
			return sortKey{uint64(rng.Intn(1<<12))<<5 | uint64(rng.Intn(2))<<20, 0}
		}, []radixDigit{{0, 5, 12}, {0, 20, 1}}},
		{"15 varying bits need two digits", 0, func(i int) sortKey { return sortKey{uint64(rng.Intn(1<<15)) << 5, 0} },
			[]radixDigit{{0, 5, 13}, {0, 18, 2}}},
		{"bit 63 and below", 0, func(i int) sortKey { return sortKey{uint64(rng.Intn(8)) << 61, 1} },
			[]radixDigit{{0, 61, 3}}},
		{"only bit 63 of the major word", 0, func(i int) sortKey { return sortKey{9, uint64(i%2) << 63} },
			[]radixDigit{{1, 63, 1}}},
		{"a gap every key agrees on is skipped", 0, func(i int) sortKey {
			return sortKey{uint64(rng.Intn(4)) | uint64(rng.Intn(4))<<40, 0}
		}, []radixDigit{{0, 0, 2}, {0, 40, 2}}},
		{"across the minor and major words", 0, func(i int) sortKey {
			return sortKey{uint64(rng.Intn(1<<6)) << 58, uint64(rng.Intn(1 << 5))}
		}, []radixDigit{{0, 58, 6}, {1, 0, 5}}},
		// One GTC writer's chunk: its rank, and ids 0..65535 shuffled, whose
		// key images vary in bits 37-62 (15 mantissa and 11 exponent bits).
		{"one GTC writer's labels", 1 << 16, func(i int) sortKey {
			return sortKey{keyImage(float64(ids[i])), keyImage(3)}
		}, []radixDigit{{0, 37, 13}, {0, 50, 13}}},
		{"GTC labels", 0, func(i int) sortKey {
			return sortKey{keyImage(float64(rng.Intn(1 << 18))), keyImage(float64(rng.Intn(64)))}
		}, nil},
		{"every bit", 0, func(i int) sortKey { return sortKey{rng.Uint64(), rng.Uint64()} }, nil},
		{"all keys equal", 0, func(i int) sortKey { return sortKey{3, 4} }, []radixDigit{}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			entries := make([]sortEntry, cmp.Or(c.n, 3000))
			for i := range entries {
				entries[i] = sortEntry{c.key(i), uint64(i)}
			}
			if c.digits != nil && !slices.Equal(radixDigits(keysVary(entries)), c.digits) {
				t.Errorf("digits %v, want %v", radixDigits(keysVary(entries)), c.digits)
			}
			checkRadixSort(t, entries, new([]uint32))
		})
	}
}

// keysVary returns the bits on which some entry's key differs from the
// first's, as Map computes them.
func keysVary(entries []sortEntry) sortKey {
	var varies sortKey
	for _, e := range entries {
		varies[0] |= e.key[0] ^ entries[0].key[0]
		varies[1] |= e.key[1] ^ entries[0].key[1]
	}
	return varies
}

// checkRadixSort fails t unless radixSort, with counts as its histograms'
// memory, puts entries in the order sort.SliceStable gives them, by key and
// ties in entry order (each entry's row is its position).
func checkRadixSort(t *testing.T, entries []sortEntry, counts *[]uint32) {
	t.Helper()
	want := slices.Clone(entries)
	sort.SliceStable(want, func(a, b int) bool {
		ka, kb := want[a].key, want[b].key
		return ka[1] < kb[1] || ka[1] == kb[1] && ka[0] < kb[0]
	})
	order, keys := make([]uint32, len(entries)), make([]sortKey, len(entries))
	radixSort(entries, make([]sortEntry, len(entries)), keysVary(entries), counts, order, keys)
	for i, e := range want {
		if order[i] != uint32(e.row) || keys[i] != e.key {
			t.Fatalf("position %d holds row %d keyed %x, the stable reference sort row %d keyed %x",
				i, order[i], keys[i], e.row, e.key)
		}
	}
}

// FuzzRadixSort: for any key set, radixDigits covers every bit on which
// two keys differ, with digits no wider than radixBits that cross no word
// and do not overlap; and radixSort agrees with the stable reference.
// Each of up to 64 keys is drawn from 16 bytes of the input, masked by the
// first 16 so that few bits vary.
func FuzzRadixSort(f *testing.F) {
	counts := new([]uint32)
	f.Add(bytes.Repeat([]byte{0xff}, 16*9))
	f.Add(append(bytes.Repeat([]byte{0}, 15), 0x80, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17))
	f.Add(append([]byte{0xf0, 0xff, 0x1f, 0, 0, 0, 0, 0, 0xff, 0, 0, 0, 0, 0, 0, 0x80}, bytes.Repeat([]byte{0x5a, 0xa5, 0x3c}, 60)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 32 || len(data) > 16*65 {
			return
		}
		mask := sortKey{binary.LittleEndian.Uint64(data), binary.LittleEndian.Uint64(data[8:])}
		entries := make([]sortEntry, 0, len(data)/16)
		for b := data[16:]; len(b) >= 16; b = b[16:] {
			key := sortKey{binary.LittleEndian.Uint64(b) & mask[0], binary.LittleEndian.Uint64(b[8:]) & mask[1]}
			entries = append(entries, sortEntry{key, uint64(len(entries))})
		}
		varies := keysVary(entries)
		digits := radixDigits(varies)
		var covered sortKey
		for _, dg := range digits {
			if dg.width == 0 || dg.width > radixBits || dg.shift+dg.width > 64 {
				t.Fatalf("digit %+v: want a width of 1..%d inside one word", dg, radixBits)
			}
			bits := (uint64(1)<<dg.width - 1) << dg.shift
			if covered[dg.word]&bits != 0 {
				t.Fatalf("digits %v overlap", digits)
			}
			covered[dg.word] |= bits
		}
		if varies[0]&^covered[0] != 0 || varies[1]&^covered[1] != 0 {
			t.Fatalf("digits %v leave varying bits %x uncovered", digits, [2]uint64{varies[0] &^ covered[0], varies[1] &^ covered[1]})
		}
		checkRadixSort(t, entries, counts)
	})
}

func BenchmarkSortDump(b *testing.B) {
	for _, shape := range []string{"disjoint", "interleaved"} {
		b.Run(shape, func(b *testing.B) {
			fs := newTestFS(b)
			const writers, rows = 8, 1 << 15
			chunks, rng := sortBenchInput(writers, rows, shape == "interleaved")
			sortBenchDump(b, fs, chunks, rng) // warm-up: the timed dumps reuse what it frees
			b.ReportAllocs()
			b.SetBytes(writers * rows * attrCount * 8)
			for b.Loop() {
				sortBenchDump(b, fs, chunks, rng)
			}
		})
	}
}

// sortMapOnly is the sort with Reduce and Finalize dropped: a dump through
// it is the sort's Initialize and Map, and the engine's small fixed cost.
// Its Reduce releases the runs, as the sort's does once it has planned the
// merge, so each Map takes the memory the last one released.
type sortMapOnly struct{ *SortOperator }

func (sortMapOnly) Reduce(_ *staging.Context, _ int, runs []*sortedRun) error {
	for _, run := range runs {
		run.release()
	}
	return nil
}
func (sortMapOnly) Finalize(*staging.Context) error { return nil }

// BenchmarkSortMap is the sort's Map on one chunk of the benchmark's shape —
// one writer's 65,536 rows of 8 attributes, its ids shuffled — as a dump
// that verifies on use receives it: decoded from its FFS payload, whose
// check the key pass folds. Each iteration is a one-rank dump of that one
// chunk.
func BenchmarkSortMap(b *testing.B) {
	const rows = 1 << 16
	chunks, rng := sortBenchInput(1, rows, false)
	schema := &ffs.Schema{Name: "particles", Fields: []ffs.Field{
		{Name: "_rank", Kind: ffs.KindInt64}, {Name: "_timestep", Kind: ffs.KindInt64}, {Name: "p", Kind: ffs.KindArray},
	}}
	rec := chunks[0].Record
	rec["_rank"], rec["_timestep"] = int64(0), int64(0)
	buf, err := ffs.Encode(schema, rec)
	if err != nil {
		b.Fatal(err)
	}
	chunk, err := staging.DecodeChunk(buf)
	if err != nil {
		b.Fatal(err)
	}
	chunk.Unverified, chunk.Sum = buf, crc32.ChecksumIEEE(buf)
	op, err := NewSortOperator(SortConfig{Var: "p", KeyMajor: colRank, KeyMinor: colID, MajorRange: rng})
	if err != nil {
		b.Fatal(err)
	}
	ops := []staging.Operator{sortMapOnly{op}}
	runDump(b, [][]*staging.Chunk{{chunk}}, 1, ops) // warm-up: the timed dumps reuse what it frees
	b.ReportAllocs()
	b.SetBytes(rows * attrCount * 8)
	for b.Loop() {
		runDump(b, [][]*staging.Chunk{{chunk}}, 1, ops)
	}
}
