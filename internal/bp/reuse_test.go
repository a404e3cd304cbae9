package bp

import (
	"bytes"
	"runtime"
	"slices"
	"testing"
)

// TestDroppedGroupIsReused: once a file holding a group is removed, the
// next group of that size is laid out in the removed group's buffer, so a
// round of create + WritePG + Close + Remove allocates only bookkeeping.
func TestDroppedGroupIsReused(t *testing.T) {
	fs := newFS(t)
	data := make([]float64, 1<<19)
	for i := range data {
		data[i] = float64(i)
	}
	chunks := []VarChunk{{Name: "p", Dims: []uint64{1 << 16, 8}, Data: data}}
	pgSize := uint64(8 * len(data))
	round := func() {
		w, err := CreateWriter(fs, "reused.bp", 4)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.WritePG(0, 0, chunks); err != nil {
			t.Fatal(err)
		}
		if _, err := w.Close(); err != nil {
			t.Fatal(err)
		}
		r, err := OpenReader(fs, "reused.bp")
		if err != nil {
			t.Fatal(err)
		}
		got, _, _, err := r.ReadVar("p", 0)
		if err != nil || !slices.Equal(got, data) {
			t.Fatalf("read back %d values (%v), not what was written", len(got), err)
		}
		if err := fs.Remove("reused.bp"); err != nil {
			t.Fatal(err)
		}
	}
	round()
	const rounds = 4
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range rounds {
		w, err := CreateWriter(fs, "reused.bp", 4)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.WritePG(0, 0, chunks); err != nil {
			t.Fatal(err)
		}
		if _, err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if err := fs.Remove("reused.bp"); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perRound := (after.TotalAlloc - before.TotalAlloc) / rounds
	if limit := pgSize * 5 / 100; perRound > limit {
		t.Errorf("a round allocated %d bytes for a %d-byte group (limit %d): the removed group's buffer was not reused", perRound, pgSize, limit)
	}
	round() // and a reused group reads back intact
}

// TestFoldedGroupMatchesUnfolded: a group whose chunks are folded in uneven
// blocks — empty ones, single elements, one chunk left for Commit — writes
// the bytes of a group that is only committed, and a fold that skips
// elements, goes backwards, overruns its chunk or names no chunk is
// refused without moving the fold.
func TestFoldedGroupMatchesUnfolded(t *testing.T) {
	golden := goldenPG()
	shapes := slices.Clone(golden)
	for i := range shapes {
		shapes[i].Data = nil
	}
	fs := newFS(t)
	files := map[string][][2]int{
		"plain.bp":  nil,
		"folded.bp": {{0, 0}, {0, 7}, {7, 8}, {8, 8}, {8, 29}, {29, 30}}, // chunk 0 in full; chunk 1 by Commit
	}
	for name, blocks := range files {
		w, err := CreateWriter(fs, name, 4)
		if err != nil {
			t.Fatal(err)
		}
		pg, err := w.ReservePG(3, 11, shapes)
		if err != nil {
			t.Fatal(err)
		}
		for i := range golden {
			copy(pg.Chunks[i].Data, golden[i].Data)
		}
		for _, b := range blocks {
			if err := pg.Fold(0, b[0], b[1]); err != nil {
				t.Fatalf("fold [%d, %d): %v", b[0], b[1], err)
			}
		}
		if blocks != nil {
			if err := pg.Fold(1, 0, 5); err != nil {
				t.Fatal(err)
			}
			for _, bad := range [][3]int{{1, 6, 9}, {1, 3, 9}, {1, 5, 4}, {1, 5, 18}, {0, 30, 31}, {2, 0, 0}, {-1, 0, 0}} {
				if err := pg.Fold(bad[0], bad[1], bad[2]); err == nil {
					t.Errorf("fold of chunk %d [%d, %d) accepted", bad[0], bad[1], bad[2])
				}
			}
		}
		if _, err := pg.Commit(); err != nil {
			t.Fatal(err)
		}
		if err := pg.Fold(1, 17, 17); err == nil {
			t.Error("fold after Commit accepted")
		}
		if _, err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if a, b := fileBytes(t, fs, "plain.bp"), fileBytes(t, fs, "folded.bp"); !bytes.Equal(a, b) {
		t.Errorf("the folded group's file (%d bytes) differs from the unfolded one's (%d)", len(b), len(a))
	}
}
