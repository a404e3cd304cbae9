package bp

import (
	"encoding/binary"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"predata/internal/pfs"
)

func newFS(t testing.TB) *pfs.FileSystem {
	t.Helper()
	fs, err := pfs.New(pfs.Config{
		NumOSTs:      8,
		OSTBandwidth: 500e6,
		StripeSize:   1 << 20,
		OpLatency:    10 * time.Millisecond,
		VarSigma:     0,
		Seed:         1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

func TestChunkValidate(t *testing.T) {
	cases := []VarChunk{
		{Name: "", Dims: []uint64{1}, Data: []float64{1}},
		{Name: "v", Dims: nil, Data: nil},
		{Name: "v", Dims: []uint64{2}, Data: []float64{1}},
		{Name: "v", Dims: []uint64{2}, Global: []uint64{2, 2}, Offsets: []uint64{0}, Data: []float64{1, 2}},
		{Name: "v", Dims: []uint64{2}, Global: []uint64{3}, Offsets: []uint64{2}, Data: []float64{1, 2}},
		// The offset plus the extent wraps to 1, which is inside [0, 4).
		{Name: "v", Dims: []uint64{2}, Global: []uint64{4}, Offsets: []uint64{math.MaxUint64}, Data: []float64{1, 2}},
	}
	for i := range cases {
		if err := cases[i].Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	w, err := CreateWriter(newFS(t), "wrap.bp", 1)
	if err != nil {
		t.Fatal(err)
	}
	wrap := cases[len(cases)-1]
	if _, err := w.WritePG(0, 0, []VarChunk{wrap}); err == nil {
		t.Error("WritePG accepted a wrapping offset")
	}
	wrap.Data = nil
	if _, err := w.ReservePG(0, 0, []VarChunk{wrap}); err == nil {
		t.Error("ReservePG accepted a wrapping offset")
	}
	good := VarChunk{Name: "v", Dims: []uint64{2}, Global: []uint64{4}, Offsets: []uint64{2}, Data: []float64{1, 2}}
	if err := good.Validate(); err != nil {
		t.Errorf("valid chunk rejected: %v", err)
	}
}

// writeChunked writes a 1D global array of n elements split across p
// writers, each in its own process group (the ADIOS MPI-IO layout).
func writeChunked(t *testing.T, fs *pfs.FileSystem, name string, data []float64, p int) {
	t.Helper()
	w, err := CreateWriter(fs, name, 4)
	if err != nil {
		t.Fatal(err)
	}
	n := len(data)
	for rank := 0; rank < p; rank++ {
		lo := rank * n / p
		hi := (rank + 1) * n / p
		chunk := VarChunk{
			Name:    "var",
			Dims:    []uint64{uint64(hi - lo)},
			Global:  []uint64{uint64(n)},
			Offsets: []uint64{uint64(lo)},
			Data:    data[lo:hi],
		}
		if _, err := w.WritePG(rank, 0, []VarChunk{chunk}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestWriteReadChunked1D(t *testing.T) {
	fs := newFS(t)
	data := make([]float64, 1000)
	for i := range data {
		data[i] = float64(i) * 1.5
	}
	writeChunked(t, fs, "c.bp", data, 7)
	r, err := OpenReader(fs, "c.bp")
	if err != nil {
		t.Fatal(err)
	}
	got, dims, _, err := r.ReadVar("var", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(dims) != 1 || dims[0] != 1000 {
		t.Fatalf("dims %v", dims)
	}
	for i := range data {
		if got[i] != data[i] {
			t.Fatalf("elem %d = %g want %g", i, got[i], data[i])
		}
	}
	vars := r.Vars()
	if len(vars) != 1 || vars[0].Chunks != 7 || vars[0].Name != "var" {
		t.Fatalf("vars %+v", vars)
	}
}

func TestWriteReadMerged1D(t *testing.T) {
	fs := newFS(t)
	data := make([]float64, 1000)
	for i := range data {
		data[i] = float64(i)
	}
	writeChunked(t, fs, "m.bp", data, 1) // single chunk == merged
	r, err := OpenReader(fs, "m.bp")
	if err != nil {
		t.Fatal(err)
	}
	got, _, _, err := r.ReadVar("var", 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if got[i] != data[i] {
			t.Fatalf("elem %d mismatch", i)
		}
	}
	if v := r.Vars(); v[0].Chunks != 1 {
		t.Fatalf("chunks %d", v[0].Chunks)
	}
}

func TestMergedReadFasterThanChunked(t *testing.T) {
	fs := newFS(t)
	data := make([]float64, 1<<16)
	for i := range data {
		data[i] = rand.Float64()
	}
	writeChunked(t, fs, "chunked.bp", data, 64)
	writeChunked(t, fs, "merged.bp", data, 1)

	rc, err := OpenReader(fs, "chunked.bp")
	if err != nil {
		t.Fatal(err)
	}
	_, _, dChunked, err := rc.ReadVar("var", 0)
	if err != nil {
		t.Fatal(err)
	}
	rm, err := OpenReader(fs, "merged.bp")
	if err != nil {
		t.Fatal(err)
	}
	_, _, dMerged, err := rm.ReadVar("var", 0)
	if err != nil {
		t.Fatal(err)
	}
	// 64 chunks pay 64 op latencies; merged pays 1. This is the Fig. 11
	// effect; with 10 ms latency the gap must be large.
	if float64(dChunked) < 5*float64(dMerged) {
		t.Errorf("chunked %v merged %v: expected >= 5x gap", dChunked, dMerged)
	}
}

func TestWriteRead3DChunks(t *testing.T) {
	fs := newFS(t)
	// Global 4x4x4 array from 8 writers each owning a 2x2x2 block.
	const g = 4
	global := []uint64{g, g, g}
	ref := make([]float64, g*g*g)
	for i := range ref {
		ref[i] = float64(i)
	}
	w, err := CreateWriter(fs, "cube.bp", 4)
	if err != nil {
		t.Fatal(err)
	}
	rank := 0
	for ox := uint64(0); ox < g; ox += 2 {
		for oy := uint64(0); oy < g; oy += 2 {
			for oz := uint64(0); oz < g; oz += 2 {
				block := make([]float64, 8)
				pos := 0
				for x := ox; x < ox+2; x++ {
					for y := oy; y < oy+2; y++ {
						for z := oz; z < oz+2; z++ {
							block[pos] = ref[x*g*g+y*g+z]
							pos++
						}
					}
				}
				chunk := VarChunk{
					Name:    "rho",
					Dims:    []uint64{2, 2, 2},
					Global:  global,
					Offsets: []uint64{ox, oy, oz},
					Data:    block,
				}
				if _, err := w.WritePG(rank, 3, []VarChunk{chunk}); err != nil {
					t.Fatal(err)
				}
				rank++
			}
		}
	}
	if _, err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := OpenReader(fs, "cube.bp")
	if err != nil {
		t.Fatal(err)
	}
	got, dims, _, err := r.ReadVar("rho", 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(dims) != 3 || dims[0] != g {
		t.Fatalf("dims %v", dims)
	}
	for i := range ref {
		if got[i] != ref[i] {
			t.Fatalf("elem %d = %g want %g", i, got[i], ref[i])
		}
	}
}

func TestMultipleTimesteps(t *testing.T) {
	fs := newFS(t)
	w, _ := CreateWriter(fs, "steps.bp", 4)
	for step := int64(0); step < 3; step++ {
		w.WritePG(0, step, []VarChunk{{
			Name: "x", Dims: []uint64{2}, Data: []float64{float64(step), float64(step) + 0.5},
		}})
	}
	w.Close()
	r, err := OpenReader(fs, "steps.bp")
	if err != nil {
		t.Fatal(err)
	}
	if vars := r.Vars(); len(vars) != 3 {
		t.Fatalf("vars %+v", vars)
	}
	for step := int64(0); step < 3; step++ {
		got, _, _, err := r.ReadVar("x", step)
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != float64(step) || got[1] != float64(step)+0.5 {
			t.Fatalf("step %d got %v", step, got)
		}
	}
	if _, _, _, err := r.ReadVar("x", 9); err == nil {
		t.Error("missing timestep accepted")
	}
}

// TestReadVarStacksLocalEntries: two ranks write one local variable (no
// global dimensions) into one file; ReadVar returns both blocks stacked
// along dimension 0 in index order, Vars reports those stacked dimensions,
// and ReadVar refuses entries whose trailing dimensions differ.
func TestReadVarStacksLocalEntries(t *testing.T) {
	fs := newFS(t)
	w, _ := CreateWriter(fs, "local.bp", 4)
	blocks := [][]float64{{1, 2, 3, 4}, {5, 6, 7, 8, 9, 10}}
	for rank, data := range blocks {
		if _, err := w.WritePG(rank, 0, []VarChunk{
			{Name: "rows", Dims: []uint64{uint64(len(data) / 2), 2}, Data: data},
			{Name: "ragged", Dims: []uint64{2, uint64(len(data) / 2)}, Data: data},
		}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := OpenReader(fs, "local.bp")
	if err != nil {
		t.Fatal(err)
	}
	got, dims, _, err := r.ReadVar("rows", 0)
	if err != nil {
		t.Fatal(err)
	}
	if want := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}; !slices.Equal(got, want) {
		t.Errorf("data %v, want both ranks' blocks %v", got, want)
	}
	if want := []uint64{5, 2}; !slices.Equal(dims, want) {
		t.Errorf("dims %v, want %v", dims, want)
	}
	for _, vi := range r.Vars() {
		if vi.Name == "rows" && (!slices.Equal(vi.Global, dims) || vi.Chunks != 2) {
			t.Errorf("Vars reports rows as %v in %d chunks, ReadVar returns %v from 2", vi.Global, vi.Chunks, dims)
		}
	}
	if _, dims, _, _ = r.ReadVar("rows", 0); !slices.Equal(dims, []uint64{5, 2}) {
		t.Errorf("listing the variables changed what ReadVar returns to %v", dims)
	}
	if _, _, _, err := r.ReadVar("ragged", 0); err == nil {
		t.Error("entries with different trailing dimensions were stacked")
	}
}

func TestWriterErrors(t *testing.T) {
	fs := newFS(t)
	w, _ := CreateWriter(fs, "e.bp", 4)
	bad := VarChunk{Name: "v", Dims: []uint64{3}, Data: []float64{1}}
	if _, err := w.WritePG(0, 0, []VarChunk{bad}); err == nil {
		t.Error("invalid chunk accepted")
	}
	if _, err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Close(); err == nil {
		t.Error("double close accepted")
	}
	if _, err := w.WritePG(0, 0, nil); err == nil {
		t.Error("write after close accepted")
	}
}

// TestOpenReaderErrors: a file that is no BP file, or whose footer says
// what no writer would, fails to open or to read — with an error, and
// without allocating what its index claims.
func TestOpenReaderErrors(t *testing.T) {
	pair := VarChunk{Name: "v", Dims: []uint64{2}, Global: []uint64{4}, Offsets: []uint64{0}, Data: []float64{1, 2}}
	cases := []struct {
		name string
		file func(*pfs.FileSystem) error
	}{
		{"missing file", func(*pfs.FileSystem) error { return nil }},
		{"tiny file", rawFile([]byte{1, 2, 3})},
		{"no footer magic", rawFile(make([]byte, 64))},
		// A local entry of 2^23 elements in a file of about 100 bytes.
		{"payload past the footer", bpFile(func(e *indexEntry) { e.Dims = []uint64{1 << 23} },
			VarChunk{Name: "v", Dims: []uint64{1}, Data: []float64{1}})},
		// The payload is the one written, so its checksum holds.
		{"chunk past its global dim", bpFile(func(e *indexEntry) { e.Offsets = []uint64{3} }, pair)},
		{"global rank mismatch", bpFile(func(e *indexEntry) { e.Global = []uint64{4, 4} }, pair)},
		// Each chunk is valid alone; the second lies past the first's array.
		{"chunks disagree on global dims", bpFile(nil, pair,
			VarChunk{Name: "v", Dims: []uint64{2}, Global: []uint64{8}, Offsets: []uint64{6}, Data: []float64{3, 4}})},
		// The 12-byte footer: no index entries, then 2^20 attributes.
		{"attribute count past the footer", rawFile(slices.Concat(
			binary.LittleEndian.AppendUint32(nil, headerMagic),
			binary.LittleEndian.AppendUint64(nil, 0),
			binary.LittleEndian.AppendUint32(nil, 1<<20),
			binary.LittleEndian.AppendUint64(nil, 12),
			binary.LittleEndian.AppendUint32(nil, footerMagic)))},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fs := newFS(t)
			if err := tc.file(fs); err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := readAll(fs, "f.bp", math.MaxUint64)
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Error("file read without an error")
			}
			if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
				t.Errorf("reading the file allocated %d bytes", got)
			}
		})
	}
}

// rawFile writes b as the file f.bp.
func rawFile(b []byte) func(*pfs.FileSystem) error {
	return func(fs *pfs.FileSystem) error {
		f, err := fs.Create("f.bp", 1)
		if err != nil {
			return err
		}
		_, err = f.WriteAt(b, 0)
		return err
	}
}

// bpFile writes each chunk as a process group of f.bp and, when patch is
// non-nil, patches the first index entry before the footer is written.
func bpFile(patch func(*indexEntry), chunks ...VarChunk) func(*pfs.FileSystem) error {
	return func(fs *pfs.FileSystem) error {
		w, err := CreateWriter(fs, "f.bp", 1)
		if err != nil {
			return err
		}
		for rank, c := range chunks {
			if _, err := w.WritePG(rank, 0, []VarChunk{c}); err != nil {
				return err
			}
		}
		if patch != nil {
			patch(&w.index[0])
		}
		_, err = w.Close()
		return err
	}
}

// readAll opens the named file and reads every variable it lists whose
// global array has at most maxElems elements.
func readAll(fs *pfs.FileSystem, name string, maxElems uint64) error {
	r, err := OpenReader(fs, name)
	if err != nil {
		return err
	}
	for _, v := range r.Vars() {
		n := uint64(1)
		for _, d := range v.Global {
			if d != 0 && n > maxElems/d {
				n = maxElems + 1
				break
			}
			n *= d
		}
		if n > maxElems {
			continue
		}
		if _, _, _, err := r.ReadVar(v.Name, v.Timestep); err != nil {
			return err
		}
	}
	return nil
}

// TestScatterGatherProperty: writing a random 2D global array as random
// rectangular tiles and reading it back reproduces the original exactly.
func TestScatterGatherProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nx := 2 + rng.Intn(6)
		ny := 2 + rng.Intn(6)
		ref := make([]float64, nx*ny)
		for i := range ref {
			ref[i] = rng.Float64()
		}
		fs := newFS(t)
		w, err := CreateWriter(fs, "p.bp", 4)
		if err != nil {
			return false
		}
		// Split into vertical bands of random widths.
		rank := 0
		for x := 0; x < nx; {
			wdt := 1 + rng.Intn(nx-x)
			block := make([]float64, wdt*ny)
			for dx := 0; dx < wdt; dx++ {
				copy(block[dx*ny:(dx+1)*ny], ref[(x+dx)*ny:(x+dx+1)*ny])
			}
			_, err := w.WritePG(rank, 0, []VarChunk{{
				Name: "v", Dims: []uint64{uint64(wdt), uint64(ny)},
				Global:  []uint64{uint64(nx), uint64(ny)},
				Offsets: []uint64{uint64(x), 0},
				Data:    block,
			}})
			if err != nil {
				return false
			}
			x += wdt
			rank++
		}
		if _, err := w.Close(); err != nil {
			return false
		}
		r, err := OpenReader(fs, "p.bp")
		if err != nil {
			return false
		}
		got, _, _, err := r.ReadVar("v", 0)
		if err != nil {
			return false
		}
		for i := range ref {
			if got[i] != ref[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkReadVarChunked64(b *testing.B) {
	fs := newFS(b)
	data := make([]float64, 1<<16)
	w, _ := CreateWriter(fs, "bench.bp", 4)
	for rank := 0; rank < 64; rank++ {
		lo := rank * len(data) / 64
		hi := (rank + 1) * len(data) / 64
		w.WritePG(rank, 0, []VarChunk{{
			Name: "v", Dims: []uint64{uint64(hi - lo)}, Global: []uint64{uint64(len(data))},
			Offsets: []uint64{uint64(lo)}, Data: data[lo:hi],
		}})
	}
	w.Close()
	r, err := OpenReader(fs, "bench.bp")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(int64(len(data) * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := r.ReadVar("v", 0); err != nil {
			b.Fatal(err)
		}
	}
}
