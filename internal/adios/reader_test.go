package adios

import (
	"testing"

	"predata/internal/bp"
	"predata/internal/ffs"
)

// writeThreeSteps produces a BP file with variable "v" (global 1D) over
// steps 0..2 and a step-1-only scalar "extra".
func writeThreeSteps(t *testing.T) (*Reader, error) {
	t.Helper()
	fs := newFS(t)
	bw, err := bp.CreateWriter(fs, "steps.bp", 4)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewMPIIOWriter(bw, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	for step := int64(0); step < 3; step++ {
		if err := w.BeginStep(step); err != nil {
			t.Fatal(err)
		}
		data := []float64{float64(step), float64(step) + 0.5, float64(step) + 0.75, float64(step) + 0.9}
		if err := w.Write("v", &ffs.Array{
			Dims: []uint64{4}, Global: []uint64{4}, Offsets: []uint64{0}, Float64: data,
		}); err != nil {
			t.Fatal(err)
		}
		if step == 1 {
			if err := w.Write("extra", 42.0); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := w.EndStep(); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return OpenReader(fs, "steps.bp")
}

func TestReaderStepIteration(t *testing.T) {
	rd, err := writeThreeSteps(t)
	if err != nil {
		t.Fatal(err)
	}
	if steps := rd.Steps(); len(steps) != 3 || steps[0] != 0 || steps[2] != 2 {
		t.Fatalf("steps %v", steps)
	}
	count := 0
	for {
		step, ok, err := rd.BeginStep()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		arr, err := rd.Read("v")
		if err != nil {
			t.Fatal(err)
		}
		if arr.Float64[0] != float64(step) {
			t.Fatalf("step %d read %v", step, arr.Float64)
		}
		if err := rd.EndStep(); err != nil {
			t.Fatal(err)
		}
		count++
	}
	if count != 3 {
		t.Fatalf("iterated %d steps", count)
	}
	if rd.Modeled <= 0 {
		t.Error("modeled read time not accumulated")
	}
}

func TestReaderDiscipline(t *testing.T) {
	rd, err := writeThreeSteps(t)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rd.Read("v"); err == nil {
		t.Error("Read outside a step accepted")
	}
	if err := rd.EndStep(); err == nil {
		t.Error("EndStep outside a step accepted")
	}
	if _, _, err := rd.BeginStep(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := rd.BeginStep(); err == nil {
		t.Error("nested BeginStep accepted")
	}
	if _, err := rd.Read("ghost"); err == nil {
		t.Error("read of missing variable accepted")
	}
}

func TestReaderOpenErrors(t *testing.T) {
	fs := newFS(t)
	if _, err := OpenReader(fs, "absent.bp"); err == nil {
		t.Error("missing file opened")
	}
}
