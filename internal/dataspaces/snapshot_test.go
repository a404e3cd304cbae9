package dataspaces

import (
	"bytes"
	"strings"
	"testing"
)

func snapSpace(t *testing.T, servers int) *Space {
	t.Helper()
	s, err := New(Config{Servers: servers, Domain: Domain{Dims: []uint64{64, 64}, BlockSize: []uint64{16, 16}}})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	s := snapSpace(t, 3)
	data := make([]float64, 32*32)
	for i := range data {
		data[i] = float64(i) * 0.5
	}
	if err := s.Put("field", 1, []uint64{0, 0}, []uint64{32, 32}, data); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("field", 2, []uint64{16, 16}, []uint64{48, 48}, data); err != nil {
		t.Fatal(err)
	}
	blob, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	fresh := snapSpace(t, 3)
	if err := fresh.Restore(blob); err != nil {
		t.Fatal(err)
	}
	for _, version := range []int{1, 2} {
		lb, ub := []uint64{0, 0}, []uint64{32, 32}
		if version == 2 {
			lb, ub = []uint64{16, 16}, []uint64{48, 48}
		}
		want, err := s.Get("field", version, lb, ub)
		if err != nil {
			t.Fatal(err)
		}
		got, err := fresh.Get("field", version, lb, ub)
		if err != nil {
			t.Fatalf("restored space missing version %d: %v", version, err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("version %d cell %d: %g != %g", version, i, got[i], want[i])
			}
		}
	}
	if got, want := fresh.MemoryCells(), s.MemoryCells(); got != want {
		t.Fatalf("restored footprint %d cells, want %d", got, want)
	}
	if vs := fresh.Versions("field"); len(vs) != 2 || vs[0] != 1 || vs[1] != 2 {
		t.Fatalf("restored versions %v", vs)
	}
}

func TestSnapshotDeterministic(t *testing.T) {
	mk := func() []byte {
		s := snapSpace(t, 2)
		d := make([]float64, 16*16)
		for i := range d {
			d[i] = float64(i)
		}
		for v := 1; v <= 3; v++ {
			if err := s.Put("obj", v, []uint64{0, 0}, []uint64{16, 16}, d); err != nil {
				t.Fatal(err)
			}
		}
		blob, err := s.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	if !bytes.Equal(mk(), mk()) {
		t.Fatal("identical spaces produced different snapshots")
	}
}

func TestRestoreReplacesAndRehashes(t *testing.T) {
	s := snapSpace(t, 2)
	d := make([]float64, 16*16)
	for i := range d {
		d[i] = float64(i) + 1
	}
	if err := s.Put("keep", 1, []uint64{0, 0}, []uint64{16, 16}, d); err != nil {
		t.Fatal(err)
	}
	blob, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	// Restore into a space with a different shard count and pre-existing
	// contents: old data must vanish, restored blocks must land on the
	// new layout.
	dst := snapSpace(t, 4)
	if err := dst.Put("stale", 9, []uint64{0, 0}, []uint64{16, 16}, d); err != nil {
		t.Fatal(err)
	}
	if err := dst.Restore(blob); err != nil {
		t.Fatal(err)
	}
	if vs := dst.Versions("stale"); len(vs) != 0 {
		t.Fatalf("stale object survived restore: %v", vs)
	}
	got, err := dst.Get("keep", 1, []uint64{0, 0}, []uint64{16, 16})
	if err != nil {
		t.Fatal(err)
	}
	for i := range d {
		if got[i] != d[i] {
			t.Fatalf("cell %d: %g != %g", i, got[i], d[i])
		}
	}

	// Empty and corrupt blobs.
	empty := snapSpace(t, 1)
	if err := empty.Restore(nil); err != nil {
		t.Fatalf("nil blob: %v", err)
	}
	if err := empty.Restore([]byte("not a gob stream")); err == nil {
		t.Fatal("corrupt blob accepted")
	}
}

// restoreForeign snapshots one full version of a space over the given
// domain and restores it into snapSpace's 64 x 64 domain of 16 x 16
// blocks, which already holds an object; the restore must fail, and
// leave that object readable.
func restoreForeign(t *testing.T, dom Domain) error {
	t.Helper()
	src, err := New(Config{Servers: 2, Domain: dom})
	if err != nil {
		t.Fatal(err)
	}
	if err := src.Put("field", 1, []uint64{0, 0}, dom.Dims, make([]float64, dom.Dims[0]*dom.Dims[1])); err != nil {
		t.Fatal(err)
	}
	blob, err := src.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	dst := snapSpace(t, 2)
	if err := dst.Put("mine", 1, []uint64{0, 0}, []uint64{64, 64}, make([]float64, 64*64)); err != nil {
		t.Fatal(err)
	}
	err = dst.Restore(blob)
	if err == nil {
		// What trusting the blob used to cost: the foreign blocks are
		// installed, and reading them indexes past a slab.
		t.Error("foreign snapshot accepted")
	}
	if _, err := dst.Get("mine", 1, []uint64{0, 0}, []uint64{64, 64}); err != nil {
		t.Errorf("a rejected restore disturbed the space: %v", err)
	}
	return err
}

// TestRestoreRejectsBlockOutsideGrid: a snapshot of a larger domain names
// blocks this space's grid does not have.
func TestRestoreRejectsBlockOutsideGrid(t *testing.T) {
	err := restoreForeign(t, Domain{Dims: []uint64{64, 160}, BlockSize: []uint64{16, 16}})
	if err != nil && !strings.Contains(err.Error(), "outside") {
		t.Errorf("error %q does not say the block is outside the grid", err)
	}
}

// TestRestoreRejectsWrongCellCount: a snapshot of the same domain under
// another block size names blocks the grid has, with the wrong cells.
func TestRestoreRejectsWrongCellCount(t *testing.T) {
	err := restoreForeign(t, Domain{Dims: []uint64{64, 64}, BlockSize: []uint64{32, 32}})
	if err != nil && !strings.Contains(err.Error(), "1024 cells") {
		t.Errorf("error %q does not name the cell count", err)
	}
}

// TestSnapshotOfRecycledSlabs: identical contents snapshot to identical
// bytes even when one space holds them in slabs another version left its
// values in, and a block every cell of which was put restores as one.
func TestSnapshotOfRecycledSlabs(t *testing.T) {
	part := make([]float64, 5*40)
	for i := range part {
		part[i] = float64(i) + 0.5
	}
	fill := func(s *Space) []byte {
		t.Helper()
		if err := s.Put("obj", 2, []uint64{3, 7}, []uint64{8, 47}, part); err != nil {
			t.Fatal(err)
		}
		if err := s.Put("obj", 2, []uint64{16, 16}, []uint64{32, 32}, make([]float64, 256)); err != nil {
			t.Fatal(err)
		}
		blob, err := s.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	fresh := fill(snapSpace(t, 2))
	used := snapSpace(t, 2)
	junk := make([]float64, 64*64)
	for i := range junk {
		junk[i] = -1
	}
	if err := used.Put("obj", 1, []uint64{0, 0}, []uint64{64, 64}, junk); err != nil {
		t.Fatal(err)
	}
	used.EvictVersion("obj", 1)
	if !bytes.Equal(fill(used), fresh) {
		t.Fatal("a space on recycled slabs snapshots differently from a fresh one with the same contents")
	}
	back := snapSpace(t, 3)
	if err := back.Restore(fresh); err != nil {
		t.Fatal(err)
	}
	got, err := back.Get("obj", 2, []uint64{3, 7}, []uint64{8, 47})
	if err != nil {
		t.Fatal(err)
	}
	for i := range part {
		if got[i] != part[i] {
			t.Fatalf("cell %d: %g != %g", i, got[i], part[i])
		}
	}
	if _, err := back.Get("obj", 2, []uint64{2, 7}, []uint64{4, 9}); err == nil {
		t.Error("a cell nobody put reads back after a restore")
	}
	if _, err := back.Get("obj", 2, []uint64{16, 16}, []uint64{32, 32}); err != nil {
		t.Errorf("a full block does not read back after a restore: %v", err)
	}
}
