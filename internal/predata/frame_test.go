package predata

import (
	"context"
	"runtime"
	"testing"

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

// TestChunkFrameIsWrittenOnce follows one 4 MiB chunk from Client.Write to
// the decoded arrays and holds the path to its budget: Write allocates the
// sealed frame and little else (no growing writer, no second sealed copy),
// the pull hands that frame over, and DecodeChunk allocates only its
// O(fields) bookkeeping because the arrays it returns are views into it.
func TestChunkFrameIsWrittenOnce(t *testing.T) {
	fab, err := fabric.New(fabric.DefaultConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	compute, _ := fab.Endpoint(0)
	stagingEP, _ := fab.Endpoint(1)
	client, err := NewClient(ClientConfig{Endpoint: compute, NumCompute: 1, NumStaging: 1, StagingBase: 1})
	if err != nil {
		t.Fatal(err)
	}
	schema := &ffs.Schema{Name: "particles", Fields: []ffs.Field{{Name: "p", Kind: ffs.KindArray}}}
	data := make([]float64, 65536*8)
	for i := range data {
		data[i] = float64(i)
	}
	rec := ffs.Record{"p": &ffs.Array{Dims: []uint64{65536, 8}, Float64: data}}

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
