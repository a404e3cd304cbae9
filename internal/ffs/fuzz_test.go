package ffs

import (
	"strings"
	"testing"
)

// FuzzDecode hardens the self-describing decoder: arbitrary bytes must
// either decode or fail with an error — never panic or hang — and a decoded
// value that is a view must lie inside the input. Staging nodes decode
// buffers that crossed a network; robustness here is robustness of the
// whole staging area.
func FuzzDecode(f *testing.F) {
	schema := &Schema{
		Name: "seed",
		Fields: []Field{
			{Name: "i", Kind: KindInt64},
			{Name: "fs", Kind: KindFloat64Slice},
			{Name: "a", Kind: KindArray},
		},
	}
	rec := Record{
		"i":  int64(7),
		"fs": []float64{1, 2, 3},
		"a": &Array{Dims: []uint64{2, 2}, Global: []uint64{4, 4},
			Offsets: []uint64{0, 0}, Float64: []float64{1, 2, 3, 4}},
	}
	valid, err := Encode(schema, rec)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte{0x32, 0x53, 0x46, 0x46}) // magic only
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:len(valid)-8]) // payload one element short
	// Frames whose pads have every width, and one with a damaged pad: with
	// an empty schema name the first payload's count ends at offset 47,
	// leaving one pad byte there.
	for n := 0; n < 8; n++ {
		schema.Name = strings.Repeat("n", n)
		padded, err := Encode(schema, rec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(padded)
		if n == 0 {
			padded = append([]byte(nil), padded...)
			padded[47] = 1
			if _, _, err := Decode(padded); err == nil || !strings.Contains(err.Error(), "pad") {
				f.Fatalf("damaged-pad seed: err = %v", err)
			}
			f.Add(padded)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		_, got, err := Decode(data)
		if err != nil {
			return
		}
		base, end := extent(data[:len(data):len(data)])
		check := func(name string, slice any) {
			// A view starts inside the input (a converted copy does not)
			// and must then end inside it, capacity included.
			if lo, hi := extent(slice); hi > lo && lo >= base && lo < end && hi > end {
				t.Fatalf("field %s: view [%#x,%#x) runs past the buffer end %#x", name, lo, hi, end)
			}
		}
		for name, v := range got {
			switch x := v.(type) {
			case []byte, []int64, []float64:
				check(name, x)
			case *Array:
				check(name, x.Float64)
				check(name, x.Int64)
			}
		}
	})
}
