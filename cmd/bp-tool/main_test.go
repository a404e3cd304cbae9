package main

import (
	"bytes"
	"fmt"
	"math"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"

	"predata/internal/bp"
)

// genDemo produces a small sorted BP file in t.TempDir and returns its path.
func genDemo(t *testing.T) string {
	t.Helper()
	out := filepath.Join(t.TempDir(), "demo.bp")
	var buf bytes.Buffer
	if err := cmdGen(&buf, []string{"-o", out, "-writers", "4", "-particles", "500"}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "wrote") {
		t.Fatalf("gen output %q", buf.String())
	}
	return out
}

func TestGenLsReadQuery(t *testing.T) {
	path := genDemo(t)

	var ls bytes.Buffer
	if err := cmdLs(&ls, []string{"-f", path}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ls.String(), "p_sorted") {
		t.Fatalf("ls output missing variable:\n%s", ls.String())
	}

	var rd bytes.Buffer
	if err := cmdRead(&rd, []string{"-f", path, "-var", "p_sorted", "-step", "0"}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rd.String(), "dims [2000 8]") {
		t.Fatalf("read output:\n%s", rd.String())
	}

	var q bytes.Buffer
	if err := cmdQuery(&q, []string{"-f", path, "-var", "p_sorted",
		"-col", "1", "-lo", "0.4", "-hi", "0.6"}); err != nil {
		t.Fatal(err)
	}
	out := q.String()
	if !strings.Contains(out, "query col 1") || !strings.Contains(out, "index: build") {
		t.Fatalf("query output:\n%s", out)
	}
	// Uniform data: the 20% selectivity range should match roughly 20%.
	if !strings.Contains(out, "of 2000 rows") {
		t.Fatalf("query row count missing:\n%s", out)
	}
}

func TestSortedLabelsInGeneratedFile(t *testing.T) {
	path := genDemo(t)
	r, err := load(path)
	if err != nil {
		t.Fatal(err)
	}
	data, dims, _, err := r.ReadVar("p_sorted", 0)
	if err != nil {
		t.Fatal(err)
	}
	rows, k := int(dims[0]), int(dims[1])
	for i := 1; i < rows; i++ {
		prevRank, prevID := data[(i-1)*k+6], data[(i-1)*k+7]
		curRank, curID := data[i*k+6], data[i*k+7]
		if prevRank > curRank || (prevRank == curRank && prevID > curID) {
			t.Fatalf("rows %d,%d out of label order", i-1, i)
		}
	}
}

func TestErrorPaths(t *testing.T) {
	if err := cmdLs(&bytes.Buffer{}, []string{}); err == nil {
		t.Error("ls without -f accepted")
	}
	if err := cmdLs(&bytes.Buffer{}, []string{"-f", "/nonexistent/x.bp"}); err == nil {
		t.Error("ls of missing file accepted")
	}
	if err := cmdRead(&bytes.Buffer{}, []string{"-f", "x"}); err == nil {
		t.Error("read without -var accepted")
	}
	path := genDemo(t)
	if err := cmdRead(&bytes.Buffer{}, []string{"-f", path, "-var", "ghost"}); err == nil {
		t.Error("read of missing variable accepted")
	}
	if err := cmdQuery(&bytes.Buffer{}, []string{"-f", path, "-var", "p_sorted", "-col", "99"}); err == nil {
		t.Error("query of out-of-range column accepted")
	}
}

// writeBP writes vars as writer 0's chunks at timestep 0 of a BP file in
// t.TempDir and returns its path.
func writeBP(t *testing.T, vars ...bp.VarChunk) string {
	t.Helper()
	fs, err := newFS()
	if err != nil {
		t.Fatal(err)
	}
	w, err := bp.CreateWriter(fs, "small.bp", 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.WritePG(0, 0, vars); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "small.bp")
	if err := fs.ExportToOS("small.bp", path); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestReadStatsGolden pins read's stats line: no values, one value, and a
// sample whose statistics are known exactly.
func TestReadStatsGolden(t *testing.T) {
	path := writeBP(t,
		bp.VarChunk{Name: "empty", Dims: []uint64{0}},
		bp.VarChunk{Name: "one", Dims: []uint64{1}, Data: []float64{2.5}},
		bp.VarChunk{Name: "five", Dims: []uint64{5}, Data: []float64{5, 1, 4, 2, 3}},
	)
	for _, c := range []struct{ name, want string }{
		{"empty", "stats: n=0 min=0 mean=0 p95=0 max=0 sd=0\n"},
		{"one", "stats: n=1 min=2.5 mean=2.5 p95=2.5 max=2.5 sd=0\n"},
		{"five", "stats: n=5 min=1 mean=3 p95=4.8 max=5 sd=1.414\n"},
	} {
		var out bytes.Buffer
		if err := cmdRead(&out, []string{"-f", path, "-var", c.name}); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if _, stats, _ := strings.Cut(out.String(), "\n"); stats != c.want {
			t.Errorf("%s: read printed %q, want %q", c.name, stats, c.want)
		}
	}
}

func TestSummarizeEmpty(t *testing.T) {
	if got, want := summarize(nil), "n=0 min=0 mean=0 p95=0 max=0 sd=0"; got != want {
		t.Errorf("empty summary %q, want %q", got, want)
	}
}

func TestSummarizeKnown(t *testing.T) {
	// 1..5: mean 3, population sd sqrt(2), p95 interpolated at index 3.8.
	want := fmt.Sprintf("n=5 min=1 mean=3 p95=4.8 max=5 sd=%.4g", math.Sqrt(2))
	if got := summarize([]float64{1, 2, 3, 4, 5}); got != want {
		t.Errorf("summary %q, want %q", got, want)
	}
}

func TestSummarizeDoesNotMutateInput(t *testing.T) {
	in := []float64{3, 1, 2}
	summarize(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Errorf("input mutated: %v", in)
	}
}

func TestSummarizeProperties(t *testing.T) {
	f := func(xs []float64) bool {
		for _, x := range xs {
			// Summaries are of durations/byte counts; skip non-finite
			// inputs and magnitudes where float64 differences overflow.
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e150 {
				return true
			}
		}
		var (
			n                     int
			lo, mean, p95, hi, sd float64
		)
		if _, err := fmt.Sscanf(summarize(xs), "n=%d min=%g mean=%g p95=%g max=%g sd=%g",
			&n, &lo, &mean, &p95, &hi, &sd); err != nil {
			return false
		}
		if len(xs) == 0 {
			return n == 0 && lo == 0 && mean == 0 && p95 == 0 && hi == 0 && sd == 0
		}
		// Rounding to four digits keeps every order between the statistics.
		return n == len(xs) && lo <= mean && mean <= hi && lo <= p95 && p95 <= hi && sd >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
