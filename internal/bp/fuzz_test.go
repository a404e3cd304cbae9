package bp

import "testing"

// FuzzParseFooter hardens the index parser against corrupted or
// adversarial footers: decode or error, never panic.
func FuzzParseFooter(f *testing.F) {
	// Seed with a real footer.
	fs := newFS(&testing.T{})
	w, err := CreateWriter(fs, "seed.bp", 2)
	if err != nil {
		f.Fatal(err)
	}
	w.SetAttribute("k", "v")
	w.WritePG(0, 1, []VarChunk{{
		Name: "x", Dims: []uint64{2}, Global: []uint64{4},
		Offsets: []uint64{0}, Data: []float64{1, 2},
	}})
	w.Close()
	file, err := fs.Open("seed.bp")
	if err != nil {
		f.Fatal(err)
	}
	raw := make([]byte, file.Size())
	if _, err := file.ReadAt(raw, 0); err != nil {
		f.Fatal(err)
	}
	f.Add(raw)
	f.Add([]byte{})
	f.Add(raw[:16])
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &Reader{}
		_ = r.parseFooter(data, int64(len(data)))
	})
}

// FuzzReadFile reads whole fuzzed files the way bp-tool reads a file from
// outside the program: OpenReader, Vars, then ReadVar on every variable.
// Each must return data or an error, never panic. A variable whose global
// array has more than 2^20 elements is not read: a valid file may declare
// a large, sparsely written array, and ReadVar allocates it whole.
func FuzzReadFile(f *testing.F) {
	fs := newFS(&testing.T{})
	writeChunked(&testing.T{}, fs, "chunked.bp", []float64{1, 2, 3, 4, 5, 6, 7}, 3)
	w, err := CreateWriter(fs, "merged.bp", 2)
	if err != nil {
		f.Fatal(err)
	}
	w.SetAttribute("layout", "merged")
	w.WritePG(0, 0, []VarChunk{
		{Name: "rho", Dims: []uint64{2, 3}, Global: []uint64{2, 3}, Offsets: []uint64{0, 0}, Data: []float64{1, 2, 3, 4, 5, 6}},
		{Name: "n", Dims: []uint64{2}, Data: []float64{7, 8}},
	})
	w.Close()
	for _, name := range []string{"chunked.bp", "merged.bp"} {
		f.Add(fileBytes(&testing.T{}, fs, name))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fs := newFS(t)
		file, err := fs.Create("f.bp", 1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := file.WriteAt(data, 0); err != nil {
			t.Fatal(err)
		}
		_ = readAll(fs, "f.bp", 1<<20)
	})
}
