package staging

import (
	"fmt"
	"hash/crc32"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"predata/internal/ffs"
	"predata/internal/mpi"
	"predata/internal/trace"
)

// colSumOp is a BlockMapper: per chunk it sums each column of the [rows, k]
// array "p" and counts the rows, and emits the sums once; Reduce adds the
// chunks' sums. The test data are small integers, so every sum is exact
// whatever the order.
type colSumOp struct {
	mu    sync.Mutex
	sums  []float64
	emits atomic.Int64
}

func (o *colSumOp) Name() string { return "colsum" }

func (o *colSumOp) Initialize(*Context, map[string]any) error { return nil }

func (o *colSumOp) StartMap(ctx *Context, chunk *Chunk) (RowMapper, error) {
	a, ok := chunk.Record["p"].(*ffs.Array)
	if !ok || a.Float64 == nil || len(a.Dims) != 2 {
		return nil, fmt.Errorf("chunk has no [rows, k] float64 array p")
	}
	k := int(a.Dims[1])
	return &colSums{op: o, ctx: ctx, a: a, k: k, sums: make([]float64, k+1)}, nil
}

func (o *colSumOp) Map(ctx *Context, chunk *Chunk) error {
	m, err := o.StartMap(ctx, chunk)
	if err != nil {
		return err
	}
	MapInBlocks(m, chunk.Record["p"].(*ffs.Array))
	return nil
}

func (o *colSumOp) Reduce(ctx *Context, tag int, values [][]float64) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	for _, s := range values {
		if o.sums == nil {
			o.sums = make([]float64, len(s))
		}
		for i, x := range s {
			o.sums[i] += x
		}
	}
	return nil
}

func (o *colSumOp) Finalize(ctx *Context) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	ctx.SetResult("sums", append([]float64(nil), o.sums...))
	return nil
}

type colSums struct {
	op   *colSumOp
	ctx  *Context
	a    *ffs.Array
	k    int
	sums []float64 // per column, then the row count
}

func (m *colSums) MapRows(lo, hi int) {
	for j, x := range m.a.Float64[lo*m.k : hi*m.k] {
		m.sums[j%m.k] += x
	}
	m.sums[m.k] += float64(hi - lo)
}

func (m *colSums) Emit() {
	m.op.emits.Add(1)
	Emit(m.ctx, 0, m.sums)
}

// seenOp is a plain (not block-mapped) operator that logs every chunk its
// Map sees.
type seenOp struct {
	mu   sync.Mutex
	seen []*Chunk
	log  *[]string
}

func (o *seenOp) Name() string                              { return "seen" }
func (o *seenOp) Initialize(*Context, map[string]any) error { return nil }
func (o *seenOp) Finalize(*Context) error                   { return nil }
func (o *seenOp) Map(_ *Context, chunk *Chunk) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.seen = append(o.seen, chunk)
	*o.log = append(*o.log, fmt.Sprintf("map %d", chunk.WriterRank))
	return nil
}

// blockRowsOf8 is the rows of one walk block of an [n, 8] array; a chunk of
// two blocks and a 100-row tail has its last block in the payload's last
// 6,400 bytes.
var blockRowsOf8 = ffs.BlockRows(8)

var sumSchema = &ffs.Schema{Name: "sums", Fields: []ffs.Field{
	{Name: "_rank", Kind: ffs.KindInt64},
	{Name: "_timestep", Kind: ffs.KindInt64},
	{Name: "p", Kind: ffs.KindArray},
}}

// encodedChunk returns writer rank's [rows, 8] chunk payload.
func encodedChunk(t *testing.T, rank, rows int) []byte {
	t.Helper()
	data := make([]float64, rows*8)
	for i := range data {
		data[i] = float64((i*7 + rank) % 1000)
	}
	buf, err := ffs.Encode(sumSchema, ffs.Record{
		"_rank": int64(rank), "_timestep": int64(1),
		"p": &ffs.Array{Dims: []uint64{uint64(rows), 8}, Float64: data},
	})
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// unverified decodes payload as a chunk still to be checked against sum.
func unverified(t *testing.T, payload []byte, sum uint32) *Chunk {
	t.Helper()
	c, err := DecodeChunk(payload)
	if err != nil {
		t.Fatal(err)
	}
	c.Unverified, c.Sum = payload, sum
	return c
}

// TestCorruptLastBlockContributesNothing: a chunk whose payload is damaged
// only in its last block is walked to the end — every block handed to the
// operator — and only then found corrupt, so its accumulator must be
// dropped unemitted: the dump holds exactly the intact chunks, the dropped
// one records no PhaseChunk, and Release still fires once per chunk. When
// the corrupt hook returns an intact re-pull instead, the dump is exactly
// the all-intact dump: nothing of the damaged walk leaks into it.
func TestCorruptLastBlockContributesNothing(t *testing.T) {
	const rows = 2*4096 + 100
	if blockRowsOf8 != 4096 {
		t.Fatalf("an [n, 8] block is %d rows, the test assumes 4096", blockRowsOf8)
	}
	clean := [3][]byte{encodedChunk(t, 0, rows), encodedChunk(t, 1, rows), encodedChunk(t, 2, rows)}
	bad := append([]byte(nil), clean[1]...)
	bad[len(bad)-1] ^= 0x40 // the last row's last column: the third block
	sum1 := crc32.ChecksumIEEE(clean[1])

	run := func(t *testing.T, repull bool) (map[string]any, *Result, int64, int64) {
		var (
			released atomic.Int64
			corrupts atomic.Int64
		)
		op := &colSumOp{}
		rec := trace.New(trace.Config{NumCompute: 3, NumStaging: 1, Dumps: 1})
		var res *Result
		err := mpi.Run(1, func(c *mpi.Comm) error {
			eng := NewEngine(Config{Workers: 1})
			eng.SetTracer(rec, 3)
			first, err := DecodeChunk(clean[0])
			if err != nil {
				return err
			}
			damaged := unverified(t, bad, sum1)
			damaged.Corrupt = func() (*Chunk, error) {
				corrupts.Add(1)
				if !repull {
					return nil, nil
				}
				return unverified(t, clean[1], sum1), nil
			}
			last := unverified(t, clean[2], crc32.ChecksumIEEE(clean[2]))
			chunks := []*Chunk{first, damaged, last}
			for _, ch := range chunks {
				ch.Release = func() { released.Add(1) }
			}
			res, err = eng.ProcessDump(c, feed(chunks), []Operator{op}, nil)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		if released.Load() != 3 {
			t.Errorf("released %d times for 3 chunks", released.Load())
		}
		if corrupts.Load() != 1 {
			t.Errorf("corrupt hook called %d times, want 1", corrupts.Load())
		}
		var retired []int64
		for _, e := range rec.Snapshot().Events {
			if e.Phase == trace.PhaseChunk {
				retired = append(retired, e.Seq)
			}
		}
		return res.PerOperator["colsum"], res, op.emits.Load(), int64(len(retired))
	}
	want := func(t *testing.T, ranks ...int) []float64 {
		op := &colSumOp{}
		err := mpi.Run(1, func(c *mpi.Comm) error {
			var chunks []*Chunk
			for _, r := range ranks {
				ch, err := DecodeChunk(clean[r])
				if err != nil {
					return err
				}
				chunks = append(chunks, ch)
			}
			_, err := NewEngine(Config{}).ProcessDump(c, feed(chunks), []Operator{op}, nil)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return op.sums
	}

	t.Run("dropped", func(t *testing.T) {
		got, res, emits, retired := run(t, false)
		if !reflect.DeepEqual(got["sums"], want(t, 0, 2)) {
			t.Errorf("sums %v, want the two intact chunks' %v", got["sums"], want(t, 0, 2))
		}
		if emits != 2 || res.Chunks != 2 || retired != 2 {
			t.Errorf("emits %d, chunks %d, PhaseChunk %d: want 2 each (the damaged chunk dropped)", emits, res.Chunks, retired)
		}
	})
	t.Run("repulled", func(t *testing.T) {
		got, res, emits, retired := run(t, true)
		if !reflect.DeepEqual(got["sums"], want(t, 0, 1, 2)) {
			t.Errorf("sums %v, want the all-intact dump's %v", got["sums"], want(t, 0, 1, 2))
		}
		if emits != 3 || res.Chunks != 3 || retired != 3 {
			t.Errorf("emits %d, chunks %d, PhaseChunk %d: want 3 each", emits, res.Chunks, retired)
		}
	})
}

// TestCorruptChunkWithPlainOperatorCheckedBeforeMap: beside an operator
// that maps whole chunks, the engine cannot fold the check into a walk, so
// it checks the payload before the first Map: a plain operator never sees
// the damaged chunk, only its re-pull, and an intact unverified chunk is
// mapped once.
func TestCorruptChunkWithPlainOperatorCheckedBeforeMap(t *testing.T) {
	const rows = 4096 + 10
	clean := [2][]byte{encodedChunk(t, 0, rows), encodedChunk(t, 1, rows)}
	bad := append([]byte(nil), clean[0]...)
	bad[len(bad)-1] ^= 0x01
	var (
		logMu sync.Mutex
		log   []string
	)
	plain := &seenOp{log: &log}
	sums := &colSumOp{}
	var repulled *Chunk
	err := mpi.Run(1, func(c *mpi.Comm) error {
		damaged := unverified(t, bad, crc32.ChecksumIEEE(clean[0]))
		damaged.Corrupt = func() (*Chunk, error) {
			logMu.Lock()
			log = append(log, "corrupt 0")
			logMu.Unlock()
			repulled = unverified(t, clean[0], crc32.ChecksumIEEE(clean[0]))
			return repulled, nil
		}
		intact := unverified(t, clean[1], crc32.ChecksumIEEE(clean[1]))
		_, err := NewEngine(Config{Workers: 1}).ProcessDump(c, feed([]*Chunk{damaged, intact}),
			[]Operator{sums, plain}, nil)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	wantLog := []string{"corrupt 0", "map 0", "map 1"}
	if !reflect.DeepEqual(log, wantLog) {
		t.Errorf("hook and Map order %q, want %q", log, wantLog)
	}
	if len(plain.seen) != 2 || plain.seen[0] != repulled {
		t.Errorf("the plain operator saw %d chunks, the first the re-pull: %v", len(plain.seen), len(plain.seen) > 0 && plain.seen[0] == repulled)
	}
	if sums.emits.Load() != 2 {
		t.Errorf("block mapper emitted %d chunks, want 2", sums.emits.Load())
	}
}

// TestCorruptScalarAfterArray: the engine's walk folds the array's payload
// block by block, and the check sums every other byte — here a float64
// scalar after the array, the only damaged bytes. The chunk must be
// dropped unemitted, with no PhaseChunk, or replaced by its re-pull: the
// operator's result is then the all-intact dump's.
func TestCorruptScalarAfterArray(t *testing.T) {
	schema := &ffs.Schema{Name: "tail", Fields: append(slices.Clone(sumSchema.Fields), ffs.Field{Name: "t", Kind: ffs.KindFloat64})}
	encode := func(rank int) []byte {
		_, rec, err := ffs.Decode(encodedChunk(t, rank, 4096+10))
		if err != nil {
			t.Fatal(err)
		}
		rec["t"] = 0.5
		buf, err := ffs.Encode(schema, rec)
		if err != nil {
			t.Fatal(err)
		}
		return buf
	}
	clean := [2][]byte{encode(0), encode(1)}
	bad := append([]byte(nil), clean[1]...)
	bad[len(bad)-1] ^= 0x40 // the sign and exponent byte of t
	_, got, err := ffs.Decode(bad)
	if err != nil || got["t"] == 0.5 {
		t.Fatalf("the flip did not land in the scalar: %v, t = %v", err, got["t"])
	}
	sum1 := crc32.ChecksumIEEE(clean[1])

	for _, repull := range []bool{false, true} {
		t.Run(fmt.Sprintf("repull=%v", repull), func(t *testing.T) {
			op := &colSumOp{}
			rec := trace.New(trace.Config{NumCompute: 2, NumStaging: 1, Dumps: 1})
			var res *Result
			err := mpi.Run(1, func(c *mpi.Comm) error {
				eng := NewEngine(Config{Workers: 1})
				eng.SetTracer(rec, 2)
				damaged := unverified(t, bad, sum1)
				damaged.Corrupt = func() (*Chunk, error) {
					if !repull {
						return nil, nil
					}
					return unverified(t, clean[1], sum1), nil
				}
				intact := unverified(t, clean[0], crc32.ChecksumIEEE(clean[0]))
				var err error
				res, err = eng.ProcessDump(c, feed([]*Chunk{intact, damaged}), []Operator{op}, nil)
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
			retired := 0
			for _, e := range rec.Snapshot().Events {
				if e.Phase == trace.PhaseChunk {
					retired++
				}
			}
			want := 1
			if repull {
				want = 2
			}
			if int(op.emits.Load()) != want || res.Chunks != want || retired != want {
				t.Errorf("emits %d, chunks %d, PhaseChunk %d: want %d each", op.emits.Load(), res.Chunks, retired, want)
			}
			if wantRows := float64(want * (4096 + 10)); op.sums[8] != wantRows {
				t.Errorf("the dump counts %v rows, want %v", op.sums[8], wantRows)
			}
		})
	}
}
