package ops

import (
	"fmt"
	"math"
	"sync"

	"predata/internal/bp"
	"predata/internal/ffs"
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
	// (an *ffs.Array). Large; intended for tests and small runs.
	KeepResult bool
}

// SortOperator globally sorts particle rows by their label, as a streaming
// operator: Map sorts each chunk as it arrives — on the engine's workers,
// while other chunks are still being pulled — and emits one sorted run per
// destination staging rank (range-partitioned by the major key, an
// all-to-all exchange follows); Reduce merges the runs a rank received
// straight into the buffer Finalize writes. Since partition ranges are
// ordered by staging rank, the concatenation of rank 0..M-1 outputs is the
// fully sorted sequence — restoring the order particles had at simulation
// start.
//
// Rows order by the key images of (major, minor) — see keyImage — and rows
// with equal labels by (writer rank, row number in the writer's chunk), so
// the output is a function of the dump's input and not of the order its
// chunks were pulled in.
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

// sortEntry stands in for one row while its chunk is sorted: 24 bytes move
// through the radix passes instead of the row. Word 0 is the minor key's
// image, word 1 the major key's, word 2 the destination rank (high half)
// over the row number (low half), so that the entry's bytes, read from the
// low end of word 0 upward, are the sort key from least to most significant
// digit — with the row number's four bytes, which order nothing, left out.
type sortEntry [3]uint64

const entryRowBits = 32

// sortedRun is what Map emits and the shuffle carries, by pointer: the rows
// of one chunk bound for one staging rank, packed and in sorted order, with
// what the receiver needs to merge and label them even when it mapped no
// chunk of its own.
type sortedRun struct {
	K      int // columns per row
	Writer int // compute rank that wrote the chunk; breaks label ties
	Rows   []float64
}

// Map sorts the chunk's rows by (destination rank, major, minor) and emits
// them as one sorted run per destination under that rank's tag.
func (s *SortOperator) Map(ctx *staging.Context, chunk *staging.Chunk) error {
	arr, rows, k, err := matrixVar(chunk, s.cfg.Var)
	if err != nil {
		return err
	}
	major, minor := s.cfg.KeyMajor, s.cfg.KeyMinor
	if major >= k || minor >= k {
		return fmt.Errorf("ops: sort keys (%d,%d) outside %d columns", major, minor, k)
	}
	if len(arr.Float64) != rows*k || uint64(rows) >= 1<<entryRowBits {
		return fmt.Errorf("ops: sort cannot index %d values as %d rows of %d", len(arr.Float64), rows, k)
	}
	if err := s.adopt(k); err != nil {
		return err
	}
	if rows == 0 {
		return nil
	}

	// One pass builds the entries, counts rows per destination and ORs
	// together every bit on which some key differs from the first.
	ranks := ctx.Ranks()
	src := arr.Float64
	entries := make([]sortEntry, rows)
	counts := make([]int, ranks)
	var first, varies sortEntry
	for r := range entries {
		row := src[r*k : r*k+k]
		dst := s.bucketOf(row[major], ranks)
		counts[dst]++
		e := sortEntry{keyImage(row[minor]), keyImage(row[major]), uint64(dst)<<entryRowBits | uint64(r)}
		if r == 0 {
			first = e
		}
		varies[0] |= e[0] ^ first[0]
		varies[1] |= e[1] ^ first[1]
		varies[2] |= e[2] ^ first[2]
		entries[r] = e
	}
	varies[2] &^= 1<<entryRowBits - 1
	entries = radixSort(entries, varies)

	// Gather each destination's rows, once, into a block of their size.
	for dst, n := range counts {
		if n == 0 {
			continue
		}
		block := make([]float64, n*k)
		for i, e := range entries[:n] {
			r := int(e[2] & (1<<entryRowBits - 1))
			copy(block[i*k:i*k+k], src[r*k:r*k+k])
		}
		entries = entries[n:]
		ctx.Emit(dst, &sortedRun{K: k, Writer: chunk.WriterRank, Rows: block})
	}
	return nil
}

// radixSort orders entries by their key bytes with a stable LSD radix sort,
// one pass per byte position on which the keys differ at all (varies has a
// bit set wherever two entries disagree): a position every key agrees on
// orders nothing and is neither counted nor moved. GTC labels — small
// integers as doubles — differ in about 4 of the 20 positions. It returns
// the sorted entries, which are either the input slice or the scratch of
// the same size the passes alternate with.
func radixSort(entries []sortEntry, varies sortEntry) []sortEntry {
	type digit struct {
		word  int
		shift uint
	}
	digits := make([]digit, 0, len(varies)*8)
	for word := range varies {
		for shift := uint(0); shift < 64; shift += 8 {
			if varies[word]>>shift&0xff != 0 {
				digits = append(digits, digit{word, shift})
			}
		}
	}
	if len(digits) == 0 {
		return entries
	}
	// Counting does not depend on the order the entries are in, so one
	// sweep fills every pass's histogram.
	counts := make([][256]int, len(digits))
	for i := range entries {
		for d, dg := range digits {
			counts[d][uint8(entries[i][dg.word]>>dg.shift)]++
		}
	}
	scratch := make([]sortEntry, len(entries))
	for d, dg := range digits {
		next := &counts[d]
		sum := 0
		for b, n := range next {
			next[b], sum = sum, sum+n
		}
		for i := range entries {
			b := uint8(entries[i][dg.word] >> dg.shift)
			scratch[next[b]] = entries[i]
			next[b]++
		}
		entries, scratch = scratch, entries
	}
	return entries
}

// Partition routes tag b to staging rank b (identity): tags are already
// destination ranks.
func (s *SortOperator) Partition(tag, ranks int) int { return tag }

// Reduce receives every run bound for this rank's key range and merges them
// into the output: straight into a reserved process group when the operator
// writes one, so the sorted array exists exactly once.
func (s *SortOperator) Reduce(ctx *staging.Context, tag int, values []any) error {
	if s.sorted != nil {
		return fmt.Errorf("ops: sort reduced twice in one dump (tags must be staging ranks)")
	}
	for _, v := range values {
		run := v.(*sortedRun)
		if err := s.adopt(run.K); err != nil {
			return err
		}
	}
	m := merger{k: s.k, major: s.cfg.KeyMajor, minor: s.cfg.KeyMinor}
	for _, v := range values {
		m.add(v.(*sortedRun))
	}
	if m.rows == 0 {
		return nil
	}
	s.rows = m.rows
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
	m.mergeInto(s.sorted)
	return nil
}

// merger is a k-way merge of sorted runs over a binary min-heap of their
// heads: selecting the next run costs O(log R), and what is selected is not
// a row but the whole stretch of the winning run that precedes the
// runner-up's head, moved with one copy.
type merger struct {
	k, major, minor int       // row width and key columns, the same for every run
	heads           []runHead // the heap: heads[0] holds the smallest next row
	rows            int       // rows under the merge
}

// runHead is one run's unmerged remainder and the key of its first row.
type runHead struct {
	rest         []float64 // unmerged rows, packed
	major, minor uint64    // key images of rest's first row
	writer, seq  int       // tie-break: writer rank, then position among the runs
}

// add puts a run of m.k columns under the merge. Runs may be added in any
// order.
func (m *merger) add(run *sortedRun) {
	if len(run.Rows) == 0 {
		return
	}
	h := runHead{rest: run.Rows, writer: run.Writer, seq: len(m.heads)}
	m.load(&h)
	m.heads = append(m.heads, h)
	m.rows += len(run.Rows) / m.k
}

// load refreshes h's key from its first remaining row.
func (m *merger) load(h *runHead) {
	h.major, h.minor = keyImage(h.rest[m.major]), keyImage(h.rest[m.minor])
}

// wins reports whether run a, were its next row labelled (major, minor),
// would emit that row before b emits its head: by label, and for equal
// labels by writer rank, then by position among the runs (one writer's rows
// are already in row order inside its run).
func (a *runHead) wins(major, minor uint64, b *runHead) bool {
	if major != b.major {
		return major < b.major
	}
	if minor != b.minor {
		return minor < b.minor
	}
	if a.writer != b.writer {
		return a.writer < b.writer
	}
	return a.seq < b.seq
}

func (m *merger) less(i, j int) bool {
	a := &m.heads[i]
	return a.wins(a.major, a.minor, &m.heads[j])
}

// siftDown restores the heap below position i.
func (m *merger) siftDown(i int) {
	for {
		child := 2*i + 1
		if child >= len(m.heads) {
			return
		}
		if child+1 < len(m.heads) && m.less(child+1, child) {
			child++
		}
		if !m.less(child, i) {
			return
		}
		m.heads[i], m.heads[child] = m.heads[child], m.heads[i]
		i = child
	}
}

// lead returns how many of a's remaining rows are emitted before b's head —
// at least one when a is the heap's winner. It gallops: if a's last row
// still wins, the whole remainder goes (runs with disjoint labels, such as
// particles that have not migrated between writers, move at memmove speed);
// otherwise an exponential search from the front brackets the first row
// that loses and a binary search finds it, so short stretches stay cheap.
func (m *merger) lead(a, b *runHead) int {
	k := m.k
	n := len(a.rest) / k
	wins := func(row int) bool {
		r := a.rest[row*k : row*k+k]
		return a.wins(keyImage(r[m.major]), keyImage(r[m.minor]), b)
	}
	if wins(n - 1) {
		return n
	}
	lo, hi := 0, n-1 // row lo wins, row hi does not
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

// mergeInto merges every run added into out, which holds exactly their rows.
func (m *merger) mergeInto(out []float64) {
	for i := len(m.heads)/2 - 1; i >= 0; i-- {
		m.siftDown(i)
	}
	for len(m.heads) > 0 {
		top := &m.heads[0]
		n := len(top.rest) / m.k
		if len(m.heads) > 1 {
			next := 1
			if len(m.heads) > 2 && m.less(2, 1) {
				next = 2
			}
			n = m.lead(top, &m.heads[next])
		}
		moved := copy(out, top.rest[:n*m.k])
		out, top.rest = out[moved:], top.rest[moved:]
		if len(top.rest) == 0 {
			last := len(m.heads) - 1
			m.heads[0] = m.heads[last]
			m.heads = m.heads[:last]
		} else {
			m.load(top)
		}
		m.siftDown(0)
	}
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

// Compile-time interface checks.
var (
	_ staging.Operator    = (*SortOperator)(nil)
	_ staging.Partitioner = (*SortOperator)(nil)
)
