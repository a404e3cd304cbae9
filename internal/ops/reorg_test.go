package ops

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"predata/internal/bp"
	"predata/internal/ffs"
	"predata/internal/mpi"
	"predata/internal/pfs"
	"predata/internal/staging"
)

// reorgChunks cuts a g×g×g global array per variable into b×b×b blocks,
// one chunk per block, writer w holding block w in row-major block order.
// Cell i of the v-th variable holds v·g³ + i, so no two elements agree.
func reorgChunks(g, b int, vars []string) []*staging.Chunk {
	l := g / b
	chunks := make([]*staging.Chunk, b*b*b)
	for w := range chunks {
		ox, oy, oz := w/(b*b)*l, w/b%b*l, w%b*l
		rec := ffs.Record{}
		for v, name := range vars {
			data := make([]float64, 0, l*l*l)
			for x := ox; x < ox+l; x++ {
				for y := oy; y < oy+l; y++ {
					for z := oz; z < oz+l; z++ {
						data = append(data, float64(((v*g+x)*g+y)*g+z))
					}
				}
			}
			rec[name] = &ffs.Array{
				Dims: []uint64{uint64(l), uint64(l), uint64(l)}, Global: []uint64{uint64(g), uint64(g), uint64(g)},
				Offsets: []uint64{uint64(ox), uint64(oy), uint64(oz)}, Float64: data,
			}
		}
		chunks[w] = &staging.Chunk{WriterRank: w, Schema: pixieSchema, Record: rec}
	}
	return chunks
}

// processDump serves one dump of chunks on a single staging rank through
// ops, returning the engine's error instead of failing the test.
func processDump(chunks []*staging.Chunk, ops ...staging.Operator) (*staging.Result, error) {
	var res *staging.Result
	err := mpi.Run(1, func(c *mpi.Comm) error {
		ch := make(chan *staging.Chunk, len(chunks))
		for _, chunk := range chunks {
			ch <- chunk
		}
		close(ch)
		var err error
		res, err = staging.NewEngine(staging.Config{Workers: 2}).ProcessDump(c, ch, ops, nil)
		return err
	})
	return res, err
}

// TestReorgRejectsWrappingOffset: beside a chunk at offset 0, a chunk at
// offset 2^64-1 whose end wraps to 1 seems to tile the 4x4 array — 16 of
// 16 elements, no overlap — and Reduce would scatter it out of range.
// Map rejects it, naming the variable.
func TestReorgRejectsWrappingOffset(t *testing.T) {
	op, err := NewReorgOperator(ReorgConfig{Vars: []string{"rho"}})
	if err != nil {
		t.Fatal(err)
	}
	chunk := func(w int, off uint64) *staging.Chunk {
		return &staging.Chunk{WriterRank: w, Schema: pixieSchema, Record: ffs.Record{"rho": &ffs.Array{
			Dims: []uint64{2, 4}, Global: []uint64{4, 4}, Offsets: []uint64{off, 0}, Float64: make([]float64, 8),
		}}}
	}
	_, err = processDump([]*staging.Chunk{chunk(0, 0), chunk(1, math.MaxUint64)}, op)
	if err == nil || !strings.Contains(err.Error(), `variable "rho"`) || strings.Contains(err.Error(), "panicked") {
		t.Fatalf("dump = %v, want Map's error naming variable \"rho\"", err)
	}
}

// TestReorgCoverageFailureWritesNothing: rho tiles its array and is
// reserved first; temp leaves a gap, so the dump fails and neither variable
// reaches the file.
func TestReorgCoverageFailureWritesNothing(t *testing.T) {
	fs := newTestFS(t)
	w, err := bp.CreateWriter(fs, "failed.bp", 4)
	if err != nil {
		t.Fatal(err)
	}
	op, err := NewReorgOperator(ReorgConfig{Vars: []string{"rho", "temp"}, Output: w})
	if err != nil {
		t.Fatal(err)
	}
	chunk := &staging.Chunk{Schema: pixieSchema, Record: ffs.Record{
		"rho":  &ffs.Array{Dims: []uint64{4}, Global: []uint64{4}, Offsets: []uint64{0}, Float64: []float64{1, 2, 3, 4}},
		"temp": &ffs.Array{Dims: []uint64{2}, Global: []uint64{4}, Offsets: []uint64{0}, Float64: []float64{1, 2}},
	}}
	if _, err := processDump([]*staging.Chunk{chunk}, op); err == nil {
		t.Fatal("a gap in temp was accepted")
	}
	if _, err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := bp.OpenReader(fs, "failed.bp")
	if err != nil {
		t.Fatal(err)
	}
	if vars := r.Vars(); len(vars) != 0 {
		t.Fatalf("a failed dump left %+v in the file", vars)
	}
}

// TestOutputBytesRepeat: one staging rank writes histograms of several
// columns, 2-D histograms of several pairs and several merged arrays into
// one file; twenty runs of the same dump write the same bytes.
func TestOutputBytesRepeat(t *testing.T) {
	vars := []string{"rho", "temp", "px", "py"}
	chunks := reorgChunks(8, 2, vars)
	for w, c := range chunks {
		c.Record["p"] = makeParticles(w, 100, rand.New(rand.NewSource(int64(w))))
	}
	unit := map[int][2]float64{colX: {0, 1}, colY: {0, 1}, colZ: {0, 1}, colWeight: {0, 1}}
	var first []byte
	for run := 0; run < 20; run++ {
		fs := newTestFS(t)
		w, err := bp.CreateWriter(fs, "dump.bp", 4)
		if err != nil {
			t.Fatal(err)
		}
		hist, err := NewHistogramOperator(HistogramConfig{Var: "p", Columns: []int{colWeight, colX, colZ, colY}, Bins: 8, Ranges: unit, Output: w})
		if err != nil {
			t.Fatal(err)
		}
		hist2d, err := NewHistogram2DOperator(Histogram2DConfig{Var: "p", Pairs: [][2]int{{colY, colZ}, {colX, colY}, {colX, colWeight}}, Bins: 4, Ranges: unit, Output: w})
		if err != nil {
			t.Fatal(err)
		}
		reorg, err := NewReorgOperator(ReorgConfig{Vars: vars, Output: w})
		if err != nil {
			t.Fatal(err)
		}
		res, err := processDump(chunks, hist, hist2d, reorg)
		if err != nil {
			t.Fatal(err)
		}
		if got := res.PerOperator["reorg"]["merged_vars"].([]string); !slices.Equal(got, vars) {
			t.Fatalf("merged_vars %v, want %v", got, vars)
		}
		if _, err := w.Close(); err != nil {
			t.Fatal(err)
		}
		file := exportFile(t, fs, "dump.bp")
		if run == 0 {
			first = file
		} else if !bytes.Equal(file, first) {
			t.Fatalf("run %d wrote a different file than run 0", run)
		}
	}
}

// TestHistogramOutputGoldenBytes pins the file one staging rank writes for
// TestOutputBytesRepeat's particles through both histogram constructors:
// variable names, dims, the order of columns and pairs, and every count.
func TestHistogramOutputGoldenBytes(t *testing.T) {
	chunks := reorgChunks(8, 2, []string{"rho", "temp"})
	for w, c := range chunks {
		c.Record["p"] = makeParticles(w, 100, rand.New(rand.NewSource(int64(w))))
	}
	unit := map[int][2]float64{colX: {0, 1}, colY: {0, 1}, colZ: {0, 1}, colWeight: {0, 1}}
	fs := newTestFS(t)
	w, err := bp.CreateWriter(fs, "dump.bp", 4)
	if err != nil {
		t.Fatal(err)
	}
	hist, err := NewHistogramOperator(HistogramConfig{Var: "p", Columns: []int{colWeight, colX, colZ, colY}, Bins: 8, Ranges: unit, Output: w})
	if err != nil {
		t.Fatal(err)
	}
	hist2d, err := NewHistogram2DOperator(Histogram2DConfig{Var: "p", Pairs: [][2]int{{colY, colZ}, {colX, colY}, {colX, colWeight}}, Bins: 4, Ranges: unit, Output: w})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := processDump(chunks, hist, hist2d); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Close(); err != nil {
		t.Fatal(err)
	}
	file := exportFile(t, fs, "dump.bp")
	if n, sum := len(file), crc32.ChecksumIEEE(file); n != 1416 || sum != 0xf1974d41 {
		t.Errorf("histogram file is %d bytes with CRC32 %08x, want 1416 bytes with f1974d41", n, sum)
	}
}

// reorgBenchDump runs one two-rank, two-worker reorg dump of chunks over
// reorgBenchVars, each rank writing the variables it owns to its own BP
// file on fs.
func reorgBenchDump(tb testing.TB, fs *pfs.FileSystem, chunks []*staging.Chunk) {
	tb.Helper()
	const ranks = 2
	writers := make([]*bp.Writer, ranks)
	ops := make([]staging.Operator, ranks)
	for r := range writers {
		w, err := bp.CreateWriter(fs, fmt.Sprintf("merged-%d.bp", r), 4)
		if err != nil {
			tb.Fatal(err)
		}
		op, err := NewReorgOperator(ReorgConfig{Vars: reorgBenchVars, Output: w})
		if err != nil {
			tb.Fatal(err)
		}
		writers[r], ops[r] = w, op
	}
	runDump(tb, dealChunks(chunks, ranks), 2, ops)
	for _, w := range writers {
		if _, err := w.Close(); err != nil {
			tb.Fatal(err)
		}
	}
}

// reorgBenchVars are Pixie3D's eight arrays.
var reorgBenchVars = []string{"rho", "px", "py", "pz", "ax", "ay", "az", "temp"}

// TestReorgDumpAllocationBudget: on the staging side a merged array is
// allocated once, in the process group the file system keeps. The replaced
// path allocated it twice — a zeroed array to scatter into, then the group
// WritePG copied it to — about 2.0 bytes per payload byte.
func TestReorgDumpAllocationBudget(t *testing.T) {
	fs := newTestFS(t)
	chunks, payload := reorgBenchInput()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	reorgBenchDump(t, fs, chunks)
	runtime.ReadMemStats(&after)
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(payload)*12/10; got > limit {
		t.Errorf("one reorg dump of %d payload bytes allocated %d (%.2f B/B), budget %d (1.2 B/B)",
			payload, got, float64(got)/float64(payload), limit)
	}
}

// reorgBenchInput is eight writers' 32³ blocks of a 64³ global array per
// Pixie3D variable, and its payload bytes (16 MiB).
func reorgBenchInput() ([]*staging.Chunk, int64) {
	const g, b = 64, 2
	return reorgChunks(g, b, reorgBenchVars), int64(len(reorgBenchVars) * g * g * g * 8)
}

func BenchmarkReorgDump(b *testing.B) {
	fs := newTestFS(b)
	chunks, payload := reorgBenchInput()
	b.ReportAllocs()
	b.SetBytes(payload)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reorgBenchDump(b, fs, chunks)
	}
}
