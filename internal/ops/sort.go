package ops

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"

	"predata/internal/bp"
	"predata/internal/ffs"
	"predata/internal/poison"
	"predata/internal/staging"
)

// SortConfig configures a SortOperator.
type SortConfig struct {
	// Var names the [N, K] array variable holding the particle rows.
	Var string
	// KeyMajor and KeyMinor are the label columns: rows sort by
	// (row[KeyMajor], row[KeyMinor]). For GTC particles these are the
	// process-rank and local-id attributes.
	KeyMajor, KeyMinor int
	// MajorRange is the global [lo, hi] range of the major key, used to
	// range-partition rows across staging ranks. If AggFromColumn is true,
	// the range is taken from the aggregates for column KeyMajor instead.
	MajorRange    [2]float64
	AggFromColumn bool
	// Output, when non-nil, receives the sorted rows of each staging rank
	// as one process group at Finalize.
	Output *bp.Writer
	// KeepResult stores the sorted rows in the dump result under "sorted"
	// (an *ffs.Array). With Output set they are the written group's data,
	// read-only, and valid until its file is dropped (pfs Remove, or a
	// Create over its name), which recycles the group. Large; intended for
	// tests and small runs.
	KeepResult bool
}

// SortOperator globally sorts particle rows by their label, as a streaming
// operator: Map sorts each chunk's keys as it arrives — on the engine's
// workers, while other chunks are still being pulled — and emits one
// sorted run per destination staging rank (range-partitioned by the major
// key, an all-to-all exchange follows): a view of the chunk's rows with
// their sorted numbers and keys, not a copy. Reduce plans the merge of the
// runs a rank received from their keys, then gathers every row, once,
// from its writer's frame straight into the buffer Finalize writes. Since
// partition ranges are ordered by staging rank, the concatenation of rank
// 0..M-1 outputs is the fully sorted sequence — restoring the order
// particles had at simulation start.
//
// Rows order by the key images of (major, minor) — see keyImage — and rows
// with equal labels by (writer rank, row number in the writer's chunk), so
// the output is a function of the dump's input and not of the order its
// chunks were pulled in.
//
// The sort verifies on use (staging.VerifyingReducer): Map's key pass reads
// every row of the chunk's array once, in order, and folds each block of
// rows into the chunk's check right after reading its keys.
type SortOperator struct {
	cfg SortConfig

	// Per-dump state, reset by Initialize.
	mu     sync.Mutex
	k      int // columns per row, adopted from the first chunk or run seen
	lo, hi float64
	sorted []float64 // rows owned by this rank, sorted; inside pg when writing
	rows   int
	pg     *bp.PG // the reserved output group sorted lies in, if any
}

// NewSortOperator validates the configuration and returns the operator.
func NewSortOperator(cfg SortConfig) (*SortOperator, error) {
	if cfg.Var == "" {
		return nil, fmt.Errorf("ops: sort needs a variable name")
	}
	if cfg.KeyMajor < 0 || cfg.KeyMinor < 0 {
		return nil, fmt.Errorf("ops: sort key columns must be >= 0")
	}
	if !cfg.AggFromColumn && cfg.MajorRange[1] < cfg.MajorRange[0] {
		return nil, fmt.Errorf("ops: sort major range %v is inverted", cfg.MajorRange)
	}
	return &SortOperator{cfg: cfg}, nil
}

// Name implements staging.Operator.
func (s *SortOperator) Name() string { return "sort" }

// Initialize picks up the partition range and forgets the previous dump.
func (s *SortOperator) Initialize(ctx *staging.Context, agg map[string]any) error {
	r := s.cfg.MajorRange
	if s.cfg.AggFromColumn {
		r = rangeFromAgg(agg, s.cfg.KeyMajor, r)
	}
	if r[1] < r[0] {
		return fmt.Errorf("ops: sort major range %v is inverted", r)
	}
	s.lo, s.hi = r[0], r[1]
	s.k = 0
	s.sorted, s.rows, s.pg = nil, 0, nil
	return nil
}

// VerifiesInReduce implements staging.VerifyingReducer: Map's key pass
// reads the whole array once, in row order, and folds it into the chunk's
// check block by block.
func (s *SortOperator) VerifiesInReduce() {}

// adopt records the dump's row width from the first chunk or run seen and
// holds every later one to the same width.
func (s *SortOperator) adopt(k int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.k == 0 {
		s.k = k
	} else if s.k != k {
		return fmt.Errorf("ops: sort saw row widths %d and %d in one dump", s.k, k)
	}
	return nil
}

// bucketOf maps a major-key value to the staging rank owning it. It is
// non-decreasing in keyImage order: -Inf lands on rank 0, +Inf on the last
// rank, and so does NaN, which sorts after everything.
func (s *SortOperator) bucketOf(major float64, ranks int) int {
	if major != major {
		return ranks - 1
	}
	span := s.hi - s.lo
	if span <= 0 {
		return 0
	}
	// Clamped as a float: converting an out-of-range float to int is
	// implementation-defined.
	b := float64(ranks) * (major - s.lo) / (span * (1 + 1e-12))
	if !(b > 0) {
		return 0
	}
	if b >= float64(ranks) {
		return ranks - 1
	}
	return int(b)
}

// keyImage maps a key to a uint64 whose unsigned order is the sort order:
// -Inf < ... < -0 < +0 < ... < +Inf < NaN, every NaN alike.
func keyImage(f float64) uint64 {
	if f != f {
		return math.MaxUint64
	}
	b := math.Float64bits(f)
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}

// sortKey is a row's sort key: the key images of its minor label (word 0)
// and its major label (word 1), so that its bits, read from the low end of
// word 0 upward, run from the least to the most significant.
type sortKey [2]uint64

// sortEntry stands in for one row while its chunk is sorted: 24 bytes, the
// row's key and its number, move through the radix passes instead of the
// row.
type sortEntry struct {
	key sortKey
	row uint64
}

// sortedRun is what Map emits and the shuffle carries, by pointer: the rows
// of one chunk bound for one staging rank, in sorted order, with what the
// receiver needs to merge and label them even when it mapped no chunk of
// its own. The rows are not moved: Rows is the chunk's array, a view into
// its writer's frame, and Order lists the run's rows by number, so that the
// receiver copies each row once, from the frame into its output. Order and
// Keys lie in buf, which the receiving Reduce releases once it has planned
// the merge: neither is read after that.
type sortedRun struct {
	K      int       // columns per row
	Writer int       // compute rank that wrote the chunk; breaks label ties
	Rows   []float64 // every row of the chunk, the run's and others'
	Order  []uint32  // the run's row numbers, sorted
	Keys   []sortKey // Keys[i] is row Order[i]'s key, carried so the merge reads no row
	buf    *runBuf
}

// runBuf is the memory of the runs cut from one chunk: every run's Order
// and Keys are stretches of order and keys. live counts the runs not yet
// released; the last release returns the buffer to runBufs. A run that is
// never merged (its dump failed, or a redo dropped its pass) is never
// released, and its buffer is simply collected.
type runBuf struct {
	order []uint32
	keys  []sortKey
	live  atomic.Int32
}

// release marks r merged: its Order and Keys are not read again.
func (r *sortedRun) release() {
	b := r.buf
	if b.live.Add(-1) != 0 {
		return
	}
	if poison.Enabled {
		for i := range b.order {
			b.order[i] = 0xA5A5A5A5
		}
		for i := range b.keys {
			b.keys[i] = sortKey{0xA5A5A5A5A5A5A5A5, 0xA5A5A5A5A5A5A5A5}
		}
	}
	runBufs.put(b)
}

// Radix digits are at most radixBits wide: GTC's minor key varies in 26
// bits, two digits instead of four bytes.
const (
	radixBits      = 13
	radixMaxDigits = 2 * ((64 + radixBits - 1) / radixBits)
)

// sortScratch is the transient memory of one Map: entries, the radix
// passes' other buffer and histograms, rows per destination. None of it
// outlives the call, so it is recycled through scratches rather than
// allocated per chunk, and so are one Reduce's merge plan through plans
// and the runs' row numbers and keys through runBufs: package-level lists,
// since a pipeline builds a fresh operator per dump.
type sortScratch struct {
	entries, spare []sortEntry
	counts         []uint32 // the radix passes' histograms, one after another
	dests          []int
}

var (
	scratches freeList[sortScratch]
	plans     freeList[[]rowRef]
	runBufs   freeList[runBuf]
)

// freeList recycles values as a sync.Pool does, but the collector never
// empties it, so a scratch idle across two collections is not made again.
// It makes a value only while all it made are in use, so it holds no more
// than were ever in use at once.
type freeList[T any] struct {
	mu   sync.Mutex
	free []*T
}

func (l *freeList[T]) get() (v *T) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if n := len(l.free); n > 0 {
		v, l.free = l.free[n-1], l.free[:n-1]
		return v
	}
	return new(T)
}

func (l *freeList[T]) put(v *T) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.free = append(l.free, v)
}

// resize returns s with length n, reallocating only when it lacks the
// capacity; the contents are undefined.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Map sorts the chunk's rows by (major, minor) and emits them as one sorted
// run per destination rank under that rank's tag: views of the chunk's
// rows, in the order the sort gave their numbers and keys. The key pass
// folds the array into the chunk's check as it reads it.
func (s *SortOperator) Map(ctx *staging.Context, chunk *staging.Chunk) error {
	arr, rows, k, err := matrixVar(chunk, s.cfg.Var)
	if err != nil {
		return err
	}
	major, minor := s.cfg.KeyMajor, s.cfg.KeyMinor
	if major >= k || minor >= k {
		return fmt.Errorf("ops: sort keys (%d,%d) outside %d columns", major, minor, k)
	}
	if len(arr.Float64) != rows*k || uint64(rows) > math.MaxUint32 {
		return fmt.Errorf("ops: sort cannot index %d values as %d rows of %d", len(arr.Float64), rows, k)
	}
	if err := s.adopt(k); err != nil {
		return err
	}
	if rows == 0 {
		return nil
	}
	view, err := ctx.View(chunk, arr)
	if err != nil {
		return fmt.Errorf("ops: sort: %w", err)
	}

	// One pass builds the entries, counts rows per destination, ORs
	// together every bit on which some key differs from the first, and
	// folds each block of rows into the chunk's check while it is in cache.
	ranks := ctx.Ranks()
	src := arr.Float64
	sc := scratches.get()
	defer scratches.put(sc)
	sc.entries, sc.spare = resize(sc.entries, rows), resize(sc.spare, rows)
	sc.dests = resize(sc.dests, ranks)
	counts := sc.dests
	clear(counts)
	entries := sc.entries
	var varies sortKey
	first := sortKey{keyImage(src[minor]), keyImage(src[major])}
	step := ffs.BlockRows(k)
	for r0 := 0; r0 < rows; r0 += step {
		r1 := min(r0+step, rows)
		for r := r0; r < r1; r++ {
			row := src[r*k : r*k+k]
			counts[s.bucketOf(row[major], ranks)]++
			lo, hi := keyImage(row[minor]), keyImage(row[major])
			varies[0] |= lo ^ first[0]
			varies[1] |= hi ^ first[1]
			// Stored word by word: a composite literal goes through the stack.
			e := &entries[r]
			e.key[0], e.key[1], e.row = lo, hi, uint64(r)
		}
		ctx.Fold(view, r0, r1)
	}
	// The destination is not part of the key: bucketOf is non-decreasing
	// in the major key's order, so rows sorted by key are already grouped
	// by destination, in rank order.
	buf := runBufs.get()
	buf.order, buf.keys = resize(buf.order, rows), resize(buf.keys, rows)
	order, keys := buf.order, buf.keys
	radixSort(entries, sc.spare, varies, &sc.counts, order, keys)
	var live int32
	for _, n := range counts {
		live += int32(min(n, 1))
	}
	buf.live.Store(live)
	for dst, n := range counts {
		if n == 0 {
			continue
		}
		staging.Emit(ctx, dst, &sortedRun{K: k, Writer: chunk.WriterRank, Rows: src, Order: order[:n:n], Keys: keys[:n:n], buf: buf})
		order, keys = order[n:], keys[n:]
	}
	return nil
}

// radixDigit is one radix pass's digit: width bits of key word word, from
// bit shift up.
type radixDigit struct {
	word         int
	shift, width uint
}

// radixDigits covers the bits on which the keys differ (varies has a bit
// set wherever two keys disagree) with digits of at most radixBits bits:
// each starts at the lowest varying bit not yet covered and ends at the
// last varying bit within reach, so a bit every key agrees on is skipped
// unless it lies between two that differ, and no digit crosses a word.
func radixDigits(varies sortKey) []radixDigit {
	digits := make([]radixDigit, 0, radixMaxDigits)
	for word, v := range varies {
		for v != 0 {
			shift := uint(bits.TrailingZeros64(v))
			window := v >> shift & (1<<radixBits - 1)
			width := uint(bits.Len64(window))
			digits = append(digits, radixDigit{word, shift, width})
			v &^= window << shift
		}
	}
	return digits
}

// radixSort orders entries by key with a stable LSD radix sort, one pass
// per digit of radixDigits(varies): bits every key agrees on order nothing
// and are neither counted nor moved. The last pass scatters straight into
// the output: the sorted row numbers into order and their keys into keys,
// both as long as entries. The other passes alternate between entries and
// spare, which must be as long, so the entries end up in neither order.
// counts is the histograms' memory, resized to fit.
func radixSort(entries, spare []sortEntry, varies sortKey, counts *[]uint32, order []uint32, keys []sortKey) {
	digits := radixDigits(varies)
	// Digit d's histogram starts at d<<radixBits.
	c := resize(*counts, len(digits)<<radixBits)
	*counts = c
	for d, dg := range digits {
		clear(c[d<<radixBits:][:1<<dg.width])
	}
	// Counting does not depend on the order the entries are in, so one
	// sweep fills every pass's histogram.
	for i := range entries {
		for d, dg := range digits {
			c[d<<radixBits|int(entries[i].key[dg.word]>>dg.shift&(1<<dg.width-1))]++
		}
	}
	for d, dg := range digits {
		next := c[d<<radixBits:][:1<<dg.width]
		var sum uint32
		for b, n := range next {
			next[b], sum = sum, sum+n
		}
		mask := uint64(1)<<dg.width - 1
		if d == len(digits)-1 {
			for i := range entries {
				e := &entries[i]
				b := e.key[dg.word] >> dg.shift & mask
				order[next[b]], keys[next[b]] = uint32(e.row), e.key
				next[b]++
			}
			return
		}
		for i := range entries {
			b := entries[i].key[dg.word] >> dg.shift & mask
			spare[next[b]] = entries[i]
			next[b]++
		}
		entries, spare = spare, entries
	}
	// No digit: the entries are in order already.
	for i := range entries {
		order[i], keys[i] = uint32(entries[i].row), entries[i].key
	}
}

// Reduce receives every run bound for this rank's key range and merges them
// into the output: straight into a reserved process group when the operator
// writes one, so each sorted row is copied once, from its writer's frame to
// the group.
func (s *SortOperator) Reduce(ctx *staging.Context, tag int, values []*sortedRun) error {
	if s.sorted != nil {
		return fmt.Errorf("ops: sort reduced twice in one dump (tags must be staging ranks)")
	}
	rows := 0
	for _, run := range values {
		if err := s.adopt(run.K); err != nil {
			return err
		}
		rows += len(run.Order)
	}
	s.rows = rows
	if s.cfg.Output == nil {
		s.sorted = make([]float64, s.rows*s.k)
	} else {
		pg, err := s.cfg.Output.ReservePG(ctx.Rank(), ctx.Step(), []bp.VarChunk{{
			Name: s.cfg.Var + "_sorted",
			Dims: []uint64{uint64(s.rows), uint64(s.k)},
		}})
		if err != nil {
			return fmt.Errorf("ops: sort output: %w", err)
		}
		s.pg, s.sorted = pg, pg.Chunks[0].Data
	}
	plan := plans.get()
	defer plans.put(plan)
	*plan = resize(*plan, rows)
	planMerge(values, *plan)
	for _, run := range values {
		run.release()
	}
	if err := gather(s.sorted, s.k, values, *plan, s.pg); err != nil {
		return fmt.Errorf("ops: sort output: %w", err)
	}
	return nil
}

// rowRef names one output row's source: row number row of runs[run].
type rowRef struct{ run, row uint32 }

// gather copies row plan[i] of runs into row i of out, which has a row for
// every entry of plan. The copies do not depend on one another, so the
// memory system overlaps the fetches of rows that are cold in cache, where
// a merge that copied each row as it chose it would wait for one after
// another. When out lies in pg, each visited block of rows
// (ffs.BlockRows) is folded into pg's checksum as soon as it is filled.
// Each block ends with a yield (yieldBlock).
func gather(out []float64, k int, runs []*sortedRun, plan []rowRef, pg *bp.PG) error {
	step := ffs.BlockRows(k)
	for lo := 0; lo < len(plan); lo += step {
		hi := min(lo+step, len(plan))
		for i, ref := range plan[lo:hi] {
			r, o := int(ref.row)*k, (lo+i)*k
			copy(out[o:o+k], runs[ref.run].Rows[r:r+k])
		}
		if pg != nil {
			if err := pg.Fold(0, lo*k, hi*k); err != nil {
				return err
			}
		}
		yieldBlock()
	}
	return nil
}

// mergeHead is a run's entry in the merge's heap: the key of its next row,
// and what breaks a tie between equal keys — the writer rank (high half),
// then the run's position among the runs (low half), which also names the
// run. One writer's rows are already in row order inside its run. It holds
// no pointer, so the heap moves entries without write barriers.
type mergeHead struct {
	key sortKey
	tie uint64
}

// before reports whether h's row is emitted before o's.
func (h *mergeHead) before(o *mergeHead) bool { return precedes(&h.key, h.tie, o) }

// precedes reports whether a row keyed key, tie-broken by tie, is emitted
// before o's.
func precedes(key *sortKey, tie uint64, o *mergeHead) bool {
	if key[1] != o.key[1] {
		return key[1] < o.key[1]
	}
	if key[0] != o.key[0] {
		return key[0] < o.key[0]
	}
	return tie < o.tie
}

// planMerge fills plan, which has a slot for every row of runs, with the
// rows in merged order. It is a k-way merge over a binary min-heap of the
// runs' heads that reads keys only: selecting the next run costs
// O(log R), and what is selected is not a row but the whole stretch of
// the winning run that precedes the runner-up's head.
func planMerge(runs []*sortedRun, plan []rowRef) {
	heap := make([]mergeHead, len(runs))
	pos := make([]int, len(runs)) // each run's next unmerged row
	for i, run := range runs {
		heap[i] = mergeHead{run.Keys[0], uint64(run.Writer)<<32 | uint64(i)}
	}
	for i := len(heap)/2 - 1; i >= 0; i-- {
		siftDown(heap, i)
	}
	for len(heap) > 0 {
		top := &heap[0]
		r := uint32(top.tie)
		run, p := runs[r], pos[r]
		n := len(run.Keys) - p
		if len(heap) > 1 {
			next := &heap[1]
			if len(heap) > 2 && heap[2].before(next) {
				next = &heap[2]
			}
			n = lead(run.Keys[p:], top.tie, next)
		}
		for i, row := range run.Order[p : p+n] {
			plan[i] = rowRef{r, row}
		}
		plan, p = plan[n:], p+n
		pos[r] = p
		if p == len(run.Keys) {
			heap[0] = heap[len(heap)-1]
			heap = heap[:len(heap)-1]
		} else {
			top.key = run.Keys[p]
		}
		siftDown(heap, 0)
	}
}

// siftDown restores the heap below position i.
func siftDown(heap []mergeHead, i int) {
	if i >= len(heap) {
		return
	}
	h := heap[i]
	for {
		child := 2*i + 1
		if child >= len(heap) {
			break
		}
		if child+1 < len(heap) && heap[child+1].before(&heap[child]) {
			child++
		}
		if !heap[child].before(&h) {
			break
		}
		heap[i] = heap[child]
		i = child
	}
	heap[i] = h
}

// lead returns how many of keys, the remaining rows of the heap's winner
// (tie-broken by tie), are emitted before next, the runner-up's head: at
// least one. It gallops: if the second row already loses, one goes (runs
// that interleave row by row pay one comparison more than a plain merge);
// if the last row still wins, the whole remainder goes (runs with disjoint
// labels, such as particles that have not migrated between writers, take
// one step each); otherwise an exponential search brackets the first row
// that loses and a binary search finds it, so short stretches stay cheap.
func lead(keys []sortKey, tie uint64, next *mergeHead) int {
	wins := func(i int) bool { return precedes(&keys[i], tie, next) }
	n := len(keys)
	if n == 1 || !wins(1) {
		return 1
	}
	if wins(n - 1) {
		return n
	}
	lo, hi := 1, n-1 // row lo wins, row hi does not
	for step := 1; lo+step < hi; step *= 2 {
		if !wins(lo + step) {
			hi = lo + step
			break
		}
		lo += step
	}
	for hi-lo > 1 {
		if mid := lo + (hi-lo)/2; wins(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}

// Finalize publishes and/or writes the sorted rows.
func (s *SortOperator) Finalize(ctx *staging.Context) error {
	ctx.SetResult("rows", int64(s.rows))
	if s.cfg.KeepResult {
		// After Commit the rows belong to the file system; a result
		// holder may read them and nothing more.
		ctx.SetResult("sorted", &ffs.Array{
			Dims:    []uint64{uint64(s.rows), uint64(max(s.k, 1))},
			Float64: s.sorted,
		})
	}
	if s.pg != nil {
		// Provenance: record how the data was prepared, for downstream
		// readers (the paper's "metadata annotation to speed up
		// subsequent data access").
		if err := s.cfg.Output.SetAttribute("sorted_by",
			fmt.Sprintf("columns (%d,%d)", s.cfg.KeyMajor, s.cfg.KeyMinor)); err != nil {
			return fmt.Errorf("ops: sort attribute: %w", err)
		}
		d, err := s.pg.Commit()
		if err != nil {
			return fmt.Errorf("ops: sort output: %w", err)
		}
		ctx.SetResult("write_modeled_seconds", d.Seconds())
	}
	return nil
}

var _ staging.Reducer[*sortedRun] = (*SortOperator)(nil)
