//go:build predata_poison

package bp

import "testing"

// TestPoisonedCommitRechecksFolds: in a predata_poison build Commit
// recomputes every folded checksum, so a producer that writes an element
// after folding it fails the commit instead of writing a CRC that does not
// match the payload.
func TestPoisonedCommitRechecksFolds(t *testing.T) {
	fs := newFS(t)
	w, err := CreateWriter(fs, "refolded.bp", 4)
	if err != nil {
		t.Fatal(err)
	}
	pg, err := w.ReservePG(0, 0, []VarChunk{{Name: "v", Dims: []uint64{8}}})
	if err != nil {
		t.Fatal(err)
	}
	data := pg.Chunks[0].Data
	clear(data)
	if err := pg.Fold(0, 0, 4); err != nil {
		t.Fatal(err)
	}
	data[2] = 1
	if _, err := pg.Commit(); err == nil {
		t.Fatal("a group written after its fold committed")
	}
}
