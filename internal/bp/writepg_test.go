package bp

import (
	"hash/crc32"
	"math"
	"runtime"
	"testing"
)

// goldenPG is a fixed two-variable process group: a global-array piece with
// every float64 oddity in it, and a purely local vector.
func goldenPG() []VarChunk {
	global := make([]float64, 6*5)
	for i := range global {
		global[i] = math.Sqrt(float64(i)) - 2.5
	}
	global[0], global[1], global[2], global[3] = math.Inf(1), math.Inf(-1), math.NaN(), math.Copysign(0, -1)
	local := make([]float64, 17)
	for i := range local {
		local[i] = float64(i*i) / 7
	}
	return []VarChunk{
		{Name: "rho", Dims: []uint64{6, 5}, Global: []uint64{12, 5}, Offsets: []uint64{6, 0}, Data: global},
		{Name: "local-vector", Dims: []uint64{17}, Data: local},
	}
}

// TestWritePGGoldenBytes pins the on-disk process group: the presized bulk
// writer must lay down byte for byte what the per-element appender did. The
// CRC was taken from the appending writer's output for goldenPG.
func TestWritePGGoldenBytes(t *testing.T) {
	fs := newFS(t)
	w, err := CreateWriter(fs, "golden.bp", 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.WritePG(3, 11, goldenPG()); err != nil {
		t.Fatal(err)
	}
	f, err := fs.Open("golden.bp")
	if err != nil {
		t.Fatal(err)
	}
	pg := make([]byte, f.Size()-4) // everything after the 4-byte file magic
	if _, err := f.ReadAt(pg, 4); err != nil {
		t.Fatal(err)
	}
	const wantLen, wantCRC = 483, 0xd83354c2
	if got := crc32.ChecksumIEEE(pg); len(pg) != wantLen || got != wantCRC {
		t.Fatalf("process group is %d bytes with CRC %#08x, want %d bytes with CRC %#08x", len(pg), got, wantLen, wantCRC)
	}
}

// TestWritePGAllocatesItsSize: the PG is sized first and filled once, so
// writing a 4 MiB group allocates its size plus the index entries — not a
// buffer grown by doubling. The in-memory file is extended beforehand so
// the file system's own storage stays out of the count.
func TestWritePGAllocatesItsSize(t *testing.T) {
	fs := newFS(t)
	data := make([]float64, 1<<19)
	chunks := []VarChunk{{Name: "p", Dims: []uint64{1 << 16, 8}, Data: data}}
	pgSize := uint64(8 * len(data))
	const rounds = 4
	writers := make([]*Writer, rounds)
	for i := range writers {
		name := "alloc-" + string(rune('a'+i)) + ".bp"
		w, err := CreateWriter(fs, name, 4)
		if err != nil {
			t.Fatal(err)
		}
		writers[i] = w
		f, err := fs.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt([]byte{0}, int64(pgSize)+4096); err != nil {
			t.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, w := range writers {
		if _, err := w.WritePG(0, 0, chunks); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perWrite := (after.TotalAlloc - before.TotalAlloc) / rounds
	if limit := pgSize * 105 / 100; perWrite > limit {
		t.Errorf("WritePG allocated %d bytes for a %d-byte group (limit %d): the buffer is being grown, not presized", perWrite, pgSize, limit)
	}
}
