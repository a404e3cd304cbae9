package staging_test

import (
	"fmt"
	"hash/crc32"
	"math"
	"sync/atomic"
	"testing"

	"predata/internal/bp"
	"predata/internal/ffs"
	"predata/internal/mpi"
	"predata/internal/ops"
	"predata/internal/pfs"
	"predata/internal/staging"
)

// countedReorg is the reorg operator, counting its passes over a dump.
type countedReorg struct {
	*ops.ReorgOperator
	inits *atomic.Int64
}

func (c countedReorg) Initialize(ctx *staging.Context, agg map[string]any) error {
	c.inits.Add(1)
	return c.ReorgOperator.Initialize(ctx, agg)
}

// TestCorruptLastRowCaughtInReduce: four writers each hold two leading rows
// of two [8, 4, 4] global arrays, every chunk unchecked. One byte of the
// last row of the last array in writer 3's payload is flipped, where only
// the slab scatter reads it: Map takes the chunk, Reduce scatters it into
// the reserved group, and the verify step catches it. Writer 3's chunk is
// then re-pulled — Corrupt gives the intact copy, once — and both ranks run
// the pass again, so the committed files hold the intact values.
func TestCorruptLastRowCaughtInReduce(t *testing.T) {
	const writers, ranks, rows = 4, 2, 2
	vars := []string{"a", "b"}
	global := []uint64{writers * rows, 4, 4}
	schema := &ffs.Schema{Name: "cube", Fields: []ffs.Field{
		{Name: "_rank", Kind: ffs.KindInt64}, {Name: "_timestep", Kind: ffs.KindInt64},
		{Name: "a", Kind: ffs.KindArray}, {Name: "b", Kind: ffs.KindArray},
	}}
	value := func(v, i int) float64 { return float64(v*1000 + i) }
	var (
		repulls atomic.Int64
		streams = make([][]*staging.Chunk, ranks)
	)
	for w := 0; w < writers; w++ {
		rec := ffs.Record{"_rank": int64(w), "_timestep": int64(5)}
		per := rows * 16
		for v, name := range vars {
			data := make([]float64, per)
			for i := range data {
				data[i] = value(v, w*per+i)
			}
			rec[name] = &ffs.Array{Dims: []uint64{rows, 4, 4}, Global: global,
				Offsets: []uint64{uint64(w * rows), 0, 0}, Float64: data}
		}
		buf, err := ffs.Encode(schema, rec)
		if err != nil {
			t.Fatal(err)
		}
		payload := buf
		if w == writers-1 {
			// The last array's payload ends 8 bytes before the record: flip
			// a byte of its last row's last word.
			payload = append([]byte(nil), buf...)
			payload[len(payload)-3] ^= 0x40
		}
		chunk, err := staging.DecodeChunk(payload)
		if err != nil {
			t.Fatal(err)
		}
		chunk.Unverified, chunk.Sum = payload, crc32.ChecksumIEEE(buf)
		chunk.Corrupt = func() (*staging.Chunk, error) {
			repulls.Add(1)
			return staging.DecodeChunk(buf)
		}
		streams[w%ranks] = append(streams[w%ranks], chunk)
	}
	if got := streams[1][1].Record["b"].(*ffs.Array).Float64; got[len(got)-1] == value(1, writers*rows*16-1) {
		t.Fatal("the flip did not land in the last array's last row")
	}

	fs, err := pfs.New(pfs.Config{NumOSTs: 4, OSTBandwidth: 1e9, StripeSize: 1 << 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var inits atomic.Int64
	err = mpi.Run(ranks, func(c *mpi.Comm) error {
		w, err := bp.CreateWriter(fs, fmt.Sprintf("merged-%d.bp", c.Rank()), 4)
		if err != nil {
			return err
		}
		op, err := ops.NewReorgOperator(ops.ReorgConfig{Vars: vars, Output: w})
		if err != nil {
			return err
		}
		ch := make(chan *staging.Chunk, len(streams[c.Rank()]))
		for _, chunk := range streams[c.Rank()] {
			ch <- chunk
		}
		close(ch)
		eng := staging.NewEngine(staging.Config{Workers: 2})
		eng.SetDump(5)
		res, err := eng.ProcessDump(c, ch, []staging.Operator{countedReorg{op, &inits}}, nil)
		if err != nil {
			return err
		}
		if res.Chunks != writers/ranks {
			return fmt.Errorf("rank %d mapped %d chunks, want %d", c.Rank(), res.Chunks, writers/ranks)
		}
		_, err = w.Close()
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := repulls.Load(); n != 1 {
		t.Errorf("%d re-pulls, want 1", n)
	}
	if n := inits.Load(); n != 2*ranks {
		t.Errorf("%d Initialize calls over %d ranks, want a redo on each (%d)", n, ranks, 2*ranks)
	}
	for v, name := range vars {
		r, err := bp.OpenReader(fs, fmt.Sprintf("merged-%d.bp", v%ranks))
		if err != nil {
			t.Fatal(err)
		}
		got, _, _, err := r.ReadVar(name, 5)
		if err != nil {
			t.Fatal(err)
		}
		for i, x := range got {
			if math.Float64bits(x) != math.Float64bits(value(v, i)) {
				t.Fatalf("%s[%d] = %v in the committed file, want %v", name, i, x, value(v, i))
			}
		}
	}
}

// TestCorruptScalarBetweenArraysCaughtInVerify: the reorg's scatter folds
// both arrays' payloads, and the verify step sums every other byte of the
// chunk — here a float64 scalar between the two arrays, the only damaged
// bytes of writer 1's payload. The verify step must catch it: writer 1's
// chunk is re-pulled once and both ranks redo the pass.
func TestCorruptScalarBetweenArraysCaughtInVerify(t *testing.T) {
	const writers, ranks = 2, 2
	vars := []string{"a", "b"}
	global := []uint64{writers, 4, 4}
	schema := &ffs.Schema{Name: "mid", Fields: []ffs.Field{
		{Name: "_rank", Kind: ffs.KindInt64}, {Name: "_timestep", Kind: ffs.KindInt64},
		{Name: "a", Kind: ffs.KindArray}, {Name: "m", Kind: ffs.KindFloat64}, {Name: "b", Kind: ffs.KindArray},
	}}
	encode := func(w int, m float64) []byte {
		rec := ffs.Record{"_rank": int64(w), "_timestep": int64(2), "m": m}
		for v, name := range vars {
			data := make([]float64, 16)
			for i := range data {
				data[i] = float64(v*100 + w*16 + i)
			}
			rec[name] = &ffs.Array{Dims: []uint64{1, 4, 4}, Global: global, Offsets: []uint64{uint64(w), 0, 0}, Float64: data}
		}
		buf, err := ffs.Encode(schema, rec)
		if err != nil {
			t.Fatal(err)
		}
		return buf
	}
	// The scalar's bytes are where two encodings differing only in it
	// differ.
	clean, other := encode(1, 0.5), encode(1, -3)
	at := -1
	for i := range clean {
		if clean[i] != other[i] {
			at = i
			break
		}
	}
	if at < 0 {
		t.Fatal("no byte holds the scalar")
	}
	bad := append([]byte(nil), clean...)
	bad[at] ^= 0x01

	var repulls, inits atomic.Int64
	streams := make([][]*staging.Chunk, ranks)
	for w := 0; w < writers; w++ {
		buf := encode(w, 0.5)
		payload := buf
		if w == 1 {
			payload = bad
		}
		chunk, err := staging.DecodeChunk(payload)
		if err != nil {
			t.Fatal(err)
		}
		chunk.Unverified, chunk.Sum = payload, crc32.ChecksumIEEE(buf)
		chunk.Corrupt = func() (*staging.Chunk, error) {
			repulls.Add(1)
			return staging.DecodeChunk(buf)
		}
		streams[w%ranks] = append(streams[w%ranks], chunk)
	}
	err := mpi.Run(ranks, func(c *mpi.Comm) error {
		op, err := ops.NewReorgOperator(ops.ReorgConfig{Vars: vars})
		if err != nil {
			return err
		}
		ch := make(chan *staging.Chunk, len(streams[c.Rank()]))
		for _, chunk := range streams[c.Rank()] {
			ch <- chunk
		}
		close(ch)
		_, err = staging.NewEngine(staging.Config{Workers: 1}).ProcessDump(c, ch, []staging.Operator{countedReorg{op, &inits}}, nil)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := repulls.Load(); n != 1 {
		t.Errorf("%d re-pulls, want 1", n)
	}
	if n := inits.Load(); n != 2*ranks {
		t.Errorf("%d Initialize calls over %d ranks, want a redo on each (%d)", n, ranks, 2*ranks)
	}
}
