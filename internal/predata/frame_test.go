package predata

import (
	"context"
	"fmt"
	"hash/crc32"
	"math"
	"runtime"
	"testing"
	"time"

	"predata/internal/fabric"
	"predata/internal/ffs"
	"predata/internal/staging"
)

// totalAlloc returns the bytes f allocated (cumulative, so a collection in
// the middle does not hide anything).
func totalAlloc(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// newFrameClient returns a one-writer client on a fresh fabric, and the
// staging endpoint its fetch requests reach.
func newFrameClient(t *testing.T, hook PartialFunc) (*Client, *fabric.Endpoint) {
	t.Helper()
	fab, err := fabric.New(fabric.DefaultConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	compute, _ := fab.Endpoint(0)
	stagingEP, _ := fab.Endpoint(1)
	client, err := NewClient(ClientConfig{
		Endpoint: compute, NumCompute: 1, NumStaging: 1, StagingBase: 1, PartialCalculate: hook,
	})
	if err != nil {
		t.Fatal(err)
	}
	return client, stagingEP
}

// writeAndPull performs one Write and returns the fetch request and the
// frame the staging side pulls for it.
func writeAndPull(t *testing.T, hook PartialFunc, schema *ffs.Schema, rec ffs.Record) (FetchRequest, []byte) {
	t.Helper()
	client, stagingEP := newFrameClient(t, hook)
	if _, err := client.Write(schema, rec, 7); err != nil {
		t.Fatal(err)
	}
	_, msg, err := stagingEP.RecvCtl()
	if err != nil {
		t.Fatal(err)
	}
	req := msg.(FetchRequest)
	frame, _, err := stagingEP.PullRetain(context.Background(), req.Handle)
	if err != nil {
		t.Fatal(err)
	}
	return req, frame
}

// spanPartial is a combinable Stage-1a result: the min and max of column 0
// of the [N, K] array "p", over Rows rows.
type spanPartial struct {
	Lo, Hi float64
	Rows   int
}

func (s spanPartial) Combine(next any) any {
	n := next.(spanPartial)
	if n.Lo < s.Lo {
		s.Lo = n.Lo
	}
	if n.Hi > s.Hi {
		s.Hi = n.Hi
	}
	s.Rows += n.Rows
	return s
}

// spanHook computes spanPartial in one pass over the rows.
func spanHook(schema *ffs.Schema, rec ffs.Record) (any, error) {
	a, ok := rec["p"].(*ffs.Array)
	if !ok || len(a.Dims) != 2 || a.Dims[1] == 0 {
		return nil, fmt.Errorf("record has no [N, K] array p")
	}
	k := int(a.Dims[1])
	s := spanPartial{Lo: math.Inf(1), Hi: math.Inf(-1), Rows: int(a.Dims[0])}
	for r := 0; r < s.Rows; r++ {
		x := a.Float64[r*k]
		if x < s.Lo {
			s.Lo = x
		}
		if x > s.Hi {
			s.Hi = x
		}
	}
	return s, nil
}

// goldenValue is a deterministic double whose bits depend on no
// floating-point library.
func goldenValue(i int) float64 {
	return float64(int64(uint64(i)*2654435761%1000003)-500000) / 64
}

func goldenFloats(n, from int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = goldenValue(from + i)
	}
	return out
}

// goldenFrame is a record whose sealed frame (writer rank 0, timestep 7)
// was pinned before packing became one walk: its length and the CRC32 of
// the whole frame, seal header included.
type goldenFrame struct {
	name   string
	hook   PartialFunc
	schema *ffs.Schema
	rec    ffs.Record
	len    int
	crc    uint32
}

func goldenFrames() []goldenFrame {
	gtc := goldenFrame{
		name: "gtc", hook: spanHook,
		schema: &ffs.Schema{Name: "particles", Fields: []ffs.Field{{Name: "p", Kind: ffs.KindArray}}},
		rec:    ffs.Record{"p": &ffs.Array{Dims: []uint64{65536, 8}, Float64: goldenFloats(65536*8, 0)}},
		len:    4194424, crc: 0xbddaddbc,
	}
	pixie := goldenFrame{name: "pixie", schema: &ffs.Schema{Name: "pixie3d"}, rec: ffs.Record{}, len: 2098056, crc: 0x6bb8c8af}
	for k, v := range []string{"rho", "vx", "vy", "vz", "bx", "by", "bz", "temp"} {
		pixie.schema.Fields = append(pixie.schema.Fields, ffs.Field{Name: v, Kind: ffs.KindArray})
		pixie.rec[v] = &ffs.Array{
			Dims: []uint64{32, 32, 32}, Global: []uint64{64, 64, 64}, Offsets: []uint64{32, 0, 32},
			Float64: goldenFloats(32*32*32, k*32*32*32),
		}
	}
	ids := make([]int64, 1000)
	grid := make([]int64, 10*7)
	for i := range ids {
		ids[i] = int64(goldenValue(i)*64) << 20
	}
	for i := range grid {
		grid[i] = -int64(i) * 977
	}
	mixed := goldenFrame{
		name: "mixed",
		schema: &ffs.Schema{Name: "mixed", Fields: []ffs.Field{
			{Name: "n", Kind: ffs.KindInt64},
			{Name: "u", Kind: ffs.KindUint64},
			{Name: "f", Kind: ffs.KindFloat64},
			{Name: "label", Kind: ffs.KindString},
			{Name: "raw", Kind: ffs.KindBytes},
			{Name: "ids", Kind: ffs.KindInt64Slice},
			{Name: "w", Kind: ffs.KindFloat64Slice},
			{Name: "grid", Kind: ffs.KindArray},
		}},
		rec: ffs.Record{
			"n": int64(-42), "u": uint64(1<<63 + 5), "f": 2.5, "label": "pixie/θ",
			"raw": []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, "ids": ids, "w": goldenFloats(100, 7),
			"grid": &ffs.Array{Dims: []uint64{10, 7}, Global: []uint64{20, 7}, Offsets: []uint64{10, 0}, Int64: grid},
		},
		len: 9640, crc: 0x818aefd5,
	}
	return []goldenFrame{gtc, pixie, mixed}
}

// TestGoldenFrames: the bytes on the wire are the pinned ones, partial hook
// on the path or not, and each frame unseals.
func TestGoldenFrames(t *testing.T) {
	for _, g := range goldenFrames() {
		_, frame := writeAndPull(t, g.hook, g.schema, g.rec)
		if got := crc32.ChecksumIEEE(frame); len(frame) != g.len || got != g.crc {
			t.Errorf("%s: frame of %d bytes with CRC32 %#08x, pinned %d bytes with %#08x", g.name, len(frame), got, g.len, g.crc)
		}
		if _, err := staging.Unseal(frame); err != nil {
			t.Errorf("%s: %v", g.name, err)
		}
	}
}

// TestChunkFrameIsWrittenOnce follows one 4 MiB chunk from Client.Write to
// the decoded arrays and holds the path to its budget: Write allocates the
// sealed frame and little else (no growing writer, no second sealed copy,
// only a few small values per block for the partial folded along the
// walk), the pull hands that frame over, and DecodeChunk allocates only its
// O(fields) bookkeeping because the arrays it returns are views into it.
// The folded partial is the one-pass result.
func TestChunkFrameIsWrittenOnce(t *testing.T) {
	client, stagingEP := newFrameClient(t, spanHook)
	schema := &ffs.Schema{Name: "particles", Fields: []ffs.Field{{Name: "p", Kind: ffs.KindArray}}}
	data := make([]float64, 65536*8)
	for i := range data {
		data[i] = float64(i)
	}
	rec := ffs.Record{"p": &ffs.Array{Dims: []uint64{65536, 8}, Float64: data}}
	onePass, err := spanHook(schema, rec)
	if err != nil {
		t.Fatal(err)
	}

	write := func(ts int64) {
		if _, err := client.Write(schema, rec, ts); err != nil {
			t.Fatal(err)
		}
	}
	write(0) // warm-up: mailbox and region table growth
	frameLen := uint64(client.PackedBytes)
	if frameLen < uint64(8*len(data)) {
		t.Fatalf("PackedBytes %d below the payload", frameLen)
	}
	const writes = 4
	perWrite := totalAlloc(func() {
		for ts := int64(1); ts <= writes; ts++ {
			write(ts)
		}
	}) / writes
	if limit := frameLen * 105 / 100; perWrite > limit {
		t.Errorf("Client.Write allocated %d bytes for a %d-byte frame (limit %d)", perWrite, frameLen, limit)
	}

	// Staging side: the request names the frame's length everywhere, the
	// pull is a hand-off, and the decode is views.
	_, msg, err := stagingEP.RecvCtl()
	if err != nil {
		t.Fatal(err)
	}
	req := msg.(FetchRequest)
	if uint64(req.Bytes) != frameLen || uint64(req.Handle.Size) != frameLen {
		t.Fatalf("request says %d bytes, handle %d, frame is %d", req.Bytes, req.Handle.Size, frameLen)
	}
	if req.Partial != onePass {
		t.Errorf("folded partial %+v, one pass %+v", req.Partial, onePass)
	}
	frame, _, err := stagingEP.PullRetain(context.Background(), req.Handle)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := staging.Unseal(frame)
	if err != nil {
		t.Fatal(err)
	}
	var chunk *staging.Chunk
	decodeBytes := totalAlloc(func() { chunk, err = staging.DecodeChunk(payload) })
	if err != nil {
		t.Fatal(err)
	}
	if decodeBytes >= 4<<10 {
		t.Errorf("DecodeChunk allocated %d bytes for a 4 MiB chunk, want < 4 KiB", decodeBytes)
	}
	got := chunk.Record["p"].(*ffs.Array).Float64
	if len(got) != len(data) || got[0] != data[0] || got[len(got)-1] != data[len(data)-1] {
		t.Fatal("decoded array differs from the one written")
	}
	if &got[0] == &data[0] {
		t.Fatal("decoded array aliases the application's array: Write must copy into the frame")
	}
	// Dirtying the application array after Write must not reach the frame.
	data[0] = -1
	if got[0] != 0 {
		t.Fatal("frame shares memory with the application array")
	}
}

// TestOpaquePartialRunsOnWholeRecord: a hook whose result is not a Combiner
// gets the whole record, on a record with one float64 array as on any
// other, and its result is the partial exactly as written.
func TestOpaquePartialRunsOnWholeRecord(t *testing.T) {
	opaque := func(schema *ffs.Schema, rec ffs.Record) (any, error) {
		s, err := spanHook(schema, rec)
		if err != nil {
			return nil, err
		}
		return [2]float64{s.(spanPartial).Lo, s.(spanPartial).Hi}, nil
	}
	g := goldenFrames()[0]
	want, err := opaque(g.schema, g.rec)
	if err != nil {
		t.Fatal(err)
	}
	if req, _ := writeAndPull(t, opaque, g.schema, g.rec); req.Partial != want {
		t.Errorf("partial %v, want the whole record's %v", req.Partial, want)
	}
}

// offsetsSeen is a combinable result that logs each view: (Offsets[0],
// Dims[0]) pairs in the order the blocks were folded.
type offsetsSeen []uint64

func (o offsetsSeen) Combine(next any) any { return append(o, next.(offsetsSeen)...) }

// TestPartialFoldViews: each block call sees a valid view of whole rows —
// Dims[0] the block's rows, Offsets[0] advanced by the block's first row —
// every other field as written, and the blocks tile the array in order.
func TestPartialFoldViews(t *testing.T) {
	const rows, rowWords = 40, 64 * 32
	schema := &ffs.Schema{Name: "field", Fields: []ffs.Field{
		{Name: "step", Kind: ffs.KindInt64}, {Name: "rho", Kind: ffs.KindArray},
	}}
	rec := ffs.Record{"step": int64(3), "rho": &ffs.Array{
		Dims: []uint64{rows, 64, 32}, Global: []uint64{2 * rows, 64, 32}, Offsets: []uint64{rows, 0, 0},
		Float64: goldenFloats(rows*rowWords, 0),
	}}
	hook := func(schema *ffs.Schema, view ffs.Record) (any, error) {
		a := view["rho"].(*ffs.Array)
		if err := a.Validate(); err != nil {
			return nil, err
		}
		if view["step"] != int64(3) || a.Dims[1] != 64 || a.Dims[2] != 32 || a.Offsets[1] != 0 {
			return nil, fmt.Errorf("view %+v of record %v", a, view)
		}
		first := int(a.Offsets[0] - rows)
		if a.Float64[0] != goldenValue(first*rowWords) {
			return nil, fmt.Errorf("view at row %d starts with the wrong row", first)
		}
		return offsetsSeen{a.Offsets[0], a.Dims[0]}, nil
	}
	req, _ := writeAndPull(t, hook, schema, rec)
	var want offsetsSeen
	step := ffs.VisitBlockBytes / (8 * rowWords)
	for lo := 0; lo < rows; lo += step {
		want = append(want, uint64(rows+lo), uint64(min(step, rows-lo)))
	}
	if got, ok := req.Partial.(offsetsSeen); !ok || len(want) < 4 || fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("views folded %v, want %v", req.Partial, want)
	}
}

// TestPartialErrorOnLaterBlockFailsWrite: a hook that fails on a block
// after the first fails the Write before anything is exposed or requested.
func TestPartialErrorOnLaterBlockFailsWrite(t *testing.T) {
	calls := 0
	failSecond := func(schema *ffs.Schema, rec ffs.Record) (any, error) {
		if calls++; calls == 2 {
			return nil, fmt.Errorf("second block refused")
		}
		return spanHook(schema, rec)
	}
	client, stagingEP := newFrameClient(t, failSecond)
	g := goldenFrames()[0]
	if _, err := client.Write(g.schema, g.rec, 1); err == nil || calls != 2 {
		t.Fatalf("Write = %v after %d hook calls, want the second block's error", err, calls)
	}
	if n := client.Endpoint().ExposedBytes(); n != 0 || client.PackedBytes != 0 {
		t.Errorf("failed Write left %d bytes exposed, %d packed", n, client.PackedBytes)
	}
	if _, msg, err := stagingEP.RecvCtlTimeout(20 * time.Millisecond); err == nil {
		t.Errorf("failed Write sent %v", msg)
	}
}

// pullNext receives the next fetch request on stagingEP and pulls its
// frame, acknowledging the region when ack is set.
func pullNext(t *testing.T, stagingEP *fabric.Endpoint, ack bool) []byte {
	t.Helper()
	_, msg, err := stagingEP.RecvCtl()
	if err != nil {
		t.Fatal(err)
	}
	h := msg.(FetchRequest).Handle
	frame, _, err := stagingEP.PullRetain(context.Background(), h)
	if err != nil {
		t.Fatal(err)
	}
	if ack {
		if err := stagingEP.Ack(h); err != nil {
			t.Fatal(err)
		}
	}
	return frame
}

// TestWriteReusesReleasedFrame: once the staging side has acknowledged a
// region, the next Write packs into the same backing array, and the frame
// it seals there is the golden one, byte for byte (in a predata_poison
// build the array was filled with 0xA5 in between, so every byte was
// written again).
func TestWriteReusesReleasedFrame(t *testing.T) {
	g := goldenFrames()[0]
	client, stagingEP := newFrameClient(t, g.hook)
	if _, err := client.Write(g.schema, g.rec, 7); err != nil {
		t.Fatal(err)
	}
	first := pullNext(t, stagingEP, true)
	if _, err := client.Write(g.schema, g.rec, 7); err != nil {
		t.Fatal(err)
	}
	second := pullNext(t, stagingEP, false)
	if &first[0] != &second[0] {
		t.Error("the second Write did not reuse the released frame")
	}
	if len(second) != g.len || crc32.ChecksumIEEE(second) != g.crc {
		t.Errorf("reused frame: %d bytes, crc %08x; want %d, %08x", len(second), crc32.ChecksumIEEE(second), g.len, g.crc)
	}
}

// TestWriteWhileExposedGetsFreshFrame: a Write while the previous region
// is still exposed — the staging side may still read it — packs into a new
// frame and leaves the exposed one intact.
func TestWriteWhileExposedGetsFreshFrame(t *testing.T) {
	g := goldenFrames()[0]
	client, stagingEP := newFrameClient(t, g.hook)
	if _, err := client.Write(g.schema, g.rec, 7); err != nil {
		t.Fatal(err)
	}
	first := pullNext(t, stagingEP, false)
	if _, err := client.Write(g.schema, g.rec, 8); err != nil {
		t.Fatal(err)
	}
	second := pullNext(t, stagingEP, false)
	if &first[0] == &second[0] {
		t.Fatal("the second Write packed into a frame whose region is still exposed")
	}
	if crc32.ChecksumIEEE(first) != g.crc {
		t.Error("the exposed frame changed under the second Write")
	}
}

// TestSteadyStateWriteAllocation: a writer whose previous region has been
// released allocates under 1 % of a 4 MiB frame per Write — no frame, only
// the request and the partial's per-block values.
func TestSteadyStateWriteAllocation(t *testing.T) {
	g := goldenFrames()[0]
	client, stagingEP := newFrameClient(t, g.hook)
	write := func(ts int64) {
		if _, err := client.Write(g.schema, g.rec, ts); err != nil {
			t.Fatal(err)
		}
	}
	for ts := int64(0); ts < 2; ts++ { // warm-up: the frame, mailbox and region table growth
		write(ts)
		pullNext(t, stagingEP, true)
	}
	const writes = 8
	var allocated uint64
	for ts := int64(2); ts < 2+writes; ts++ {
		allocated += totalAlloc(func() { write(ts) })
		pullNext(t, stagingEP, true)
	}
	if perWrite, limit := allocated/writes, uint64(g.len/100); perWrite >= limit {
		t.Errorf("a steady-state Write allocated %d bytes for a %d-byte frame (limit %d)", perWrite, g.len, limit)
	}
}

var packedFrame []byte

// BenchmarkPackFrame is Stages 1a and 1b of one 4 MiB particle record with
// a combinable min/max hook, in the steady state of a writer whose last
// frame has been released: the walk that copies into that frame, folds the
// partial and checksums each block, then the seal.
func BenchmarkPackFrame(b *testing.B) {
	g := goldenFrames()[0]
	packed := &ffs.Schema{Name: g.schema.Name, Fields: append([]ffs.Field{
		{Name: fieldRank, Kind: ffs.KindInt64}, {Name: fieldTimestep, Kind: ffs.KindInt64},
	}, g.schema.Fields...)}
	full := ffs.Record{"p": g.rec["p"], fieldRank: int64(0), fieldTimestep: int64(1)}
	b.ReportAllocs()
	b.SetBytes(65536 * 8 * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fold := newPartialFold(spanHook, g.schema, g.rec)
		frame, err := packFrame(packed, full, fold, func(int) []byte { return packedFrame })
		if err != nil {
			b.Fatal(err)
		}
		if _, err := fold.result(); err != nil {
			b.Fatal(err)
		}
		packedFrame = frame
	}
}
