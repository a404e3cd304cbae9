package bp

import (
	"bytes"
	"hash/crc32"
	"math"
	"runtime"
	"slices"
	"testing"

	"predata/internal/pfs"
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

// fileBytes returns the named file's bytes.
func fileBytes(t *testing.T, fs *pfs.FileSystem, name string) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := fs.Export(name, &buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestReserveFillCommitMatchesWritePG: a group reserved, filled in place and
// committed is byte for byte the group WritePG writes from data the caller
// already holds — for one variable and for several, footer included.
func TestReserveFillCommitMatchesWritePG(t *testing.T) {
	for _, chunks := range [][]VarChunk{goldenPG()[:1], goldenPG()} {
		fs := newFS(t)
		copied, err := CreateWriter(fs, "copied.bp", 4)
		if err != nil {
			t.Fatal(err)
		}
		filled, err := CreateWriter(fs, "filled.bp", 4)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := copied.WritePG(3, 11, chunks); err != nil {
			t.Fatal(err)
		}
		shapes := slices.Clone(chunks)
		for i := range shapes {
			shapes[i].Data = nil
		}
		pg, err := filled.ReservePG(3, 11, shapes)
		if err != nil {
			t.Fatal(err)
		}
		for i := range chunks {
			if len(pg.Chunks[i].Data) != len(chunks[i].Data) {
				t.Fatalf("variable %q reserved %d elements, want %d", chunks[i].Name, len(pg.Chunks[i].Data), len(chunks[i].Data))
			}
			copy(pg.Chunks[i].Data, chunks[i].Data)
		}
		if _, err := pg.Commit(); err != nil {
			t.Fatal(err)
		}
		if _, err := pg.Commit(); err == nil {
			t.Error("a process group committed twice")
		}
		for _, w := range []*Writer{copied, filled} {
			if _, err := w.Close(); err != nil {
				t.Fatal(err)
			}
		}
		if a, b := fileBytes(t, fs, "copied.bp"), fileBytes(t, fs, "filled.bp"); !bytes.Equal(a, b) {
			t.Errorf("%d variables: reserve+fill+commit wrote %d bytes that differ from WritePG's %d", len(chunks), len(b), len(a))
		}
	}
}

// TestReservedGroupReachesTheFileOnlyOnCommit: an abandoned reservation
// leaves no trace, a reservation with data is refused, and a commit after
// Close is an error that writes nothing.
func TestReservedGroupReachesTheFileOnlyOnCommit(t *testing.T) {
	fs := newFS(t)
	w, err := CreateWriter(fs, "reserve.bp", 4)
	if err != nil {
		t.Fatal(err)
	}
	shape := []VarChunk{{Name: "v", Dims: []uint64{4, 2}}}
	if _, err := w.ReservePG(0, 0, goldenPG()); err == nil {
		t.Error("ReservePG accepted chunks that already carry data")
	}
	if _, err := w.ReservePG(0, 0, []VarChunk{{Name: "v"}}); err == nil {
		t.Error("ReservePG accepted a variable without dimensions")
	}
	abandoned, err := w.ReservePG(0, 0, shape)
	if err != nil {
		t.Fatal(err)
	}
	abandoned.Chunks[0].Data[0] = 42
	late, err := w.ReservePG(1, 0, shape)
	if err != nil {
		t.Fatal(err)
	}
	if got := fileBytes(t, fs, "reserve.bp"); len(got) != 4 {
		t.Fatalf("two reservations grew the file to %d bytes", len(got))
	}
	if _, err := w.Close(); err != nil {
		t.Fatal(err)
	}
	closed := fileBytes(t, fs, "reserve.bp")
	if _, err := late.Commit(); err == nil {
		t.Error("commit after Close succeeded")
	}
	if got := fileBytes(t, fs, "reserve.bp"); !bytes.Equal(got, closed) {
		t.Error("a refused commit changed the file")
	}
	r, err := OpenReader(fs, "reserve.bp")
	if err != nil {
		t.Fatal(err)
	}
	if vars := r.Vars(); len(vars) != 0 {
		t.Errorf("index lists %v, want nothing: no group was committed", vars)
	}
}

// TestWriteAndCloseAllocateTheGroup: from WritePG to a closed file a process
// group is allocated once — the file system keeps the buffer it is handed,
// and the footer write extends the file without copying it.
func TestWriteAndCloseAllocateTheGroup(t *testing.T) {
	fs := newFS(t)
	data := make([]float64, 1<<19)
	chunks := []VarChunk{{Name: "p", Dims: []uint64{1 << 16, 8}, Data: data}}
	pgSize := uint64(8 * len(data))
	const rounds = 4
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		w, err := CreateWriter(fs, "whole-"+string(rune('a'+i))+".bp", 4)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.WritePG(0, 0, chunks); err != nil {
			t.Fatal(err)
		}
		if _, err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perFile := (after.TotalAlloc - before.TotalAlloc) / rounds
	if limit := pgSize * 105 / 100; perFile > limit {
		t.Errorf("create + WritePG + Close allocated %d bytes for a %d-byte group (limit %d)", perFile, pgSize, limit)
	}
}
