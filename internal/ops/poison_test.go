//go:build predata_poison

package ops

import (
	"math"
	"testing"

	"predata/internal/bp"
	"predata/internal/ffs"
)

// TestKeepResultOutlivesItsFile: a KeepResult array is a view into its
// committed group, valid until the group's file is dropped. A predata_poison
// build fills the dropped file's buffers with 0xA5, so a view read after
// Remove shows it — the poison lane catches a reader that holds a result
// past its file.
func TestKeepResultOutlivesItsFile(t *testing.T) {
	fs := newTestFS(t)
	w, err := bp.CreateWriter(fs, "merged.bp", 4)
	if err != nil {
		t.Fatal(err)
	}
	op, err := NewReorgOperator(ReorgConfig{Vars: []string{"rho"}, Output: w, KeepResult: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := processDump(reorgChunks(8, 2, []string{"rho"}), op)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Close(); err != nil {
		t.Fatal(err)
	}
	view := res.PerOperator["reorg"]["rho"].(*ffs.Array).Float64
	for i, v := range view {
		if v != float64(i) {
			t.Fatalf("before Remove element %d reads %v, want %d", i, v, i)
		}
	}
	if err := fs.Remove("merged.bp"); err != nil {
		t.Fatal(err)
	}
	poisoned := math.Float64frombits(0xA5A5A5A5A5A5A5A5)
	for i, v := range view {
		if math.Float64bits(v) != math.Float64bits(poisoned) {
			t.Fatalf("after Remove element %d reads %v, want the poison pattern", i, v)
		}
	}
}
