package ffs

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"reflect"
	"strings"
	"testing"
)

// FuzzDecode hardens the self-describing decoder: arbitrary bytes must
// either decode or fail with an error — never panic or hang — a decoded
// value that is a view must lie inside the input, and so must every extent
// DecodeExtents returns, in order (checkExtents). Staging nodes decode
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
	f.Add([]byte{0x33, 0x53, 0x46, 0x46}) // magic only
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:len(valid)-8]) // payload one element short
	// Frames whose pads have every width, and one with a damaged pad: with
	// an empty schema name the first payload's count ends at offset 47,
	// leaving 17 pad bytes from there.
	for n := 0; n < payloadAlign; n++ {
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
	// A Decoder that last decoded the valid seed takes a mutated buffer
	// whose schema bytes still match through its cache.
	var dec Decoder
	f.Fuzz(func(t *testing.T, data []byte) {
		if _, _, ext, err := DecodeExtents(data); err == nil {
			checkExtents(t, data, ext)
		}
		schema, got, err := Decode(data)
		if _, _, _, err := dec.DecodeExtents(valid); err != nil {
			t.Fatal(err)
		}
		cschema, cgot, _, cerr := dec.DecodeExtents(data)
		if (err == nil) != (cerr == nil) || err == nil && !reflect.DeepEqual(schema, cschema) {
			t.Fatalf("a Decoder decoded %+v (%v), Decode %+v (%v)", cschema, cerr, schema, err)
		}
		if err != nil {
			return
		}
		if !bytes.Equal(encodeOrNil(schema, got), encodeOrNil(cschema, cgot)) {
			t.Fatal("a Decoder decoded another record than Decode")
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

// FuzzAppendEncodeVisit holds the visitor to its contract over records of
// every shape the fuzzer draws: the visited ranges, concatenated, are
// Encode's bytes and nothing of dst's prefix, so a running CRC32 of them is
// the encoding's; a float64 array's blocks are whole rows, in order,
// covering the array, each as many rows as fit in VisitBlockBytes (one row
// when a row is larger); and the encoding decodes back to the record.
func FuzzAppendEncodeVisit(f *testing.F) {
	visitSeeds(f)
	f.Fuzz(func(t *testing.T, rows, rowWords uint32, nameLen uint8, sliceLen uint32, global bool, seed int64) {
		schema, rec, arr := fuzzRecord(rows, rowWords, nameLen, sliceLen, global, seed)
		want, err := Encode(schema, rec)
		if err != nil {
			t.Fatal(err)
		}

		log := &visitLog{t: t, arr: arr}
		prefix := []byte{0xEE, 0xEE, 0xEE, 0xEE, 0xEE, 0xEE, 0xEE, 0xEE}
		out, err := AppendEncode(append(make([]byte, 0, len(prefix)+len(want)), prefix...), schema, rec, log.visit)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out[:len(prefix)], prefix) || !bytes.Equal(out[len(prefix):], want) {
			t.Fatal("AppendEncode with a visitor wrote other bytes than Encode")
		}
		log.check(want)
		gotSchema, got, err := Decode(want)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotSchema, schema) || !reflect.DeepEqual(got, rec) {
			t.Fatal("decode did not give the record back")
		}
	})
}

// FuzzDecodeExtents holds DecodeExtents to Decode over the encoding of
// every drawn record: it decodes the same schema and record, and its one
// extent is the float64 array's, whose bytes are exactly the array's
// little-endian words: what the staging engine folds into a chunk's check
// while an operator reads the array.
func FuzzDecodeExtents(f *testing.F) {
	visitSeeds(f)
	f.Fuzz(func(t *testing.T, rows, rowWords uint32, nameLen uint8, sliceLen uint32, global bool, seed int64) {
		schema, rec, _ := fuzzRecord(rows, rowWords, nameLen, sliceLen, global, seed)
		buf, err := Encode(schema, rec)
		if err != nil {
			t.Fatal(err)
		}
		wantSchema, want, err := Decode(buf)
		if err != nil {
			t.Fatal(err)
		}
		gotSchema, got, ext, err := DecodeExtents(buf)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotSchema, wantSchema) || !reflect.DeepEqual(got, want) {
			t.Fatal("DecodeExtents decoded another record than Decode")
		}
		if len(ext) != 1 || ext[0].Array != got["a"] {
			t.Fatalf("%d extents, want the one float64 array's", len(ext))
		}
		checkExtents(t, buf, ext)
		b := buf[ext[0].Off:]
		for i, x := range ext[0].Array.Float64 {
			if w := binary.LittleEndian.Uint64(b[8*i:]); w != math.Float64bits(x) {
				t.Fatalf("extent word %d is %#x, the decoded array holds %#x", i, w, math.Float64bits(x))
			}
		}
	})
}

// checkExtents holds extents to what the staging engine relies on when it
// slices an untrusted payload by them: each lies inside buf, after the one
// before it, and covers its array's words.
func checkExtents(t *testing.T, buf []byte, ext []Extent) {
	t.Helper()
	at := 0
	for i, e := range ext {
		switch {
		case e.Off < at || e.Len < 0 || e.Off+e.Len > len(buf):
			t.Fatalf("extent %d [%d, +%d) is not inside [%d, %d)", i, e.Off, e.Len, at, len(buf))
		case e.Array == nil || e.Len != 8*len(e.Array.Float64):
			t.Fatalf("extent %d of %d bytes does not cover its array's words", i, e.Len)
		}
		at = e.Off + e.Len
	}
}

// visitLog checks the ranges a Visitor receives, as they arrive, against
// AppendEncode's contract; check compares the whole with the buffer once
// the encoding is over.
type visitLog struct {
	t    *testing.T
	arr  *Array // the float64 array whose blocks arrive
	seen []byte
	sum  uint32
	next int // the row the next float block must start at
}

func (l *visitLog) visit(b []byte, a *Array, lo, hi int) {
	t := l.t
	l.seen = append(l.seen, b...)
	l.sum = crc32.Update(l.sum, crc32.IEEETable, b)
	if a == nil {
		return
	}
	rows, rowBytes := int(l.arr.Dims[0]), 8*int(l.arr.Dims[1])
	switch {
	case a != l.arr:
		t.Fatalf("block of %p, which is not the float64 array", a)
	case lo != l.next || hi <= lo || hi > rows:
		t.Fatalf("block [%d, %d) after row %d of %d", lo, hi, l.next, rows)
	case len(b) != (hi-lo)*rowBytes:
		t.Fatalf("block [%d, %d) holds %d bytes, rows are %d bytes", lo, hi, len(b), rowBytes)
	case len(b) > VisitBlockBytes && hi-lo > 1:
		t.Fatalf("block [%d, %d) of %d bytes exceeds the %d-byte cap", lo, hi, len(b), VisitBlockBytes)
	case hi < rows && len(b)+rowBytes <= VisitBlockBytes:
		t.Fatalf("block [%d, %d) of %d bytes stops short of the cap", lo, hi, len(b))
	}
	l.next = hi
}

func (l *visitLog) check(want []byte) {
	t := l.t
	if !bytes.Equal(l.seen, want) {
		t.Fatalf("visited %d bytes, not the %d-byte encoding", len(l.seen), len(want))
	}
	if l.sum != crc32.ChecksumIEEE(want) {
		t.Fatalf("running CRC %08x, encoding's %08x", l.sum, crc32.ChecksumIEEE(want))
	}
	if l.next != int(l.arr.Dims[0]) {
		t.Fatalf("float blocks covered rows [0, %d) of %d", l.next, l.arr.Dims[0])
	}
}

// visitSeeds are the record shapes FuzzAppendEncodeVisit and
// FuzzDecodeExtents start from.
func visitSeeds(f *testing.F) {
	f.Add(uint32(65536), uint32(8), uint8(3), uint32(100), true, int64(1)) // 4 MiB: 16 blocks
	f.Add(uint32(0), uint32(8), uint8(0), uint32(0), false, int64(2))      // no rows
	f.Add(uint32(2), uint32(40000), uint8(5), uint32(3), true, int64(3))   // rows larger than a block
	f.Add(uint32(32769), uint32(1), uint8(7), uint32(40000), false, int64(4))
	f.Add(uint32(33000), uint32(8), uint8(1), uint32(7), true, int64(5))
	f.Add(uint32(5), uint32(0), uint8(2), uint32(1), false, int64(6)) // rows of no words
}

// fuzzRecord builds the record a visitor fuzzer draws: every field kind, a
// [rows, rowWords] float64 array arr (bounded to 8 MiB) and an int64 array.
func fuzzRecord(rows, rowWords uint32, nameLen uint8, sliceLen uint32, global bool, seed int64) (*Schema, Record, *Array) {
	rows, rowWords, sliceLen = rows%70000, rowWords%40000, sliceLen%40000
	if rowWords > 0 && uint64(rows)*uint64(rowWords) > 1<<20 {
		rows = 1 << 20 / rowWords
	}
	value := func(i int) float64 { return float64(int64(i)*(seed|1)%1000003) / 8 }
	floats := make([]float64, int(rows)*int(rowWords))
	for i := range floats {
		floats[i] = value(i)
	}
	ints := make([]int64, sliceLen)
	for i := range ints {
		ints[i] = int64(i) * seed
	}
	arr := &Array{Dims: []uint64{uint64(rows), uint64(rowWords)}, Float64: floats}
	if global {
		arr.Global, arr.Offsets = []uint64{uint64(rows) + 3, uint64(rowWords)}, []uint64{3, 0}
	}
	schema := &Schema{Name: strings.Repeat("n", int(nameLen%payloadAlign)), Fields: []Field{
		{Name: "i", Kind: KindInt64},
		{Name: "s", Kind: KindString},
		{Name: "I", Kind: KindInt64Slice},
		{Name: "F", Kind: KindFloat64Slice},
		{Name: "a", Kind: KindArray},
		{Name: "A", Kind: KindArray},
	}}
	rec := Record{
		"i": seed, "s": strings.Repeat("s", int(nameLen%5)), "I": ints, "F": floats[:min(len(floats), int(sliceLen%70))],
		"a": arr, "A": &Array{Dims: []uint64{3, 2}, Int64: []int64{1, -2, 3, -4, 5, -6}},
	}
	return schema, rec, arr
}

// encodeOrNil is Encode's buffer, or nil when it fails.
func encodeOrNil(schema *Schema, rec Record) []byte {
	buf, err := Encode(schema, rec)
	if err != nil {
		return nil
	}
	return buf
}
