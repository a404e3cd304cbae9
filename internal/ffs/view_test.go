package ffs

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// hostLittleEndian mirrors package wire's probe: views exist only there.
var hostLittleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// extent returns the address range of slice's backing store, any slice
// kind, out to its capacity.
func extent(slice any) (lo, hi uintptr) {
	v := reflect.ValueOf(slice)
	lo = v.Pointer()
	return lo, lo + uintptr(v.Cap())*v.Type().Elem().Size()
}

// within reports whether a non-empty slice lies, capacity included,
// entirely inside buf — the address check behind every aliasing assertion.
func within(slice any, buf []byte) bool {
	lo, hi := extent(slice)
	base, end := extent(buf[:len(buf):len(buf)])
	return hi > lo && lo >= base && hi <= end
}

// TestPadWidths pins where pads fall: the payload of a numeric slice starts
// at the next 64-byte offset after its count, whatever precedes it, and
// names of every length mod 64 force every pad width.
func TestPadWidths(t *testing.T) {
	payload := []float64{1, 2, 3}
	seen := map[int]bool{}
	for n := 0; n < 128; n++ {
		schema := &Schema{Name: strings.Repeat("s", n), Fields: []Field{{Name: "f", Kind: KindFloat64Slice}}}
		buf, err := Encode(schema, Record{"f": payload})
		if err != nil {
			t.Fatal(err)
		}
		// magic, name, field count, field (name, kind), element count.
		cursor := 4 + 4 + n + 4 + (4 + 1 + 1) + 8
		pad := -cursor & 63
		seen[pad] = true
		if want := cursor + pad + 8*len(payload); len(buf) != want {
			t.Fatalf("name length %d: encoded %d bytes, want %d (pad %d)", n, len(buf), want, pad)
		}
		for _, b := range buf[cursor : cursor+pad] {
			if b != 0 {
				t.Fatalf("name length %d: pad bytes % x not zero", n, buf[cursor:cursor+pad])
			}
		}
		if got := math.Float64frombits(binary.LittleEndian.Uint64(buf[cursor+pad:])); got != payload[0] {
			t.Fatalf("name length %d: payload does not start at offset %d", n, cursor+pad)
		}
		if size, err := Size(schema, Record{"f": payload}); err != nil || size != len(buf) {
			t.Fatalf("name length %d: Size = %d, %v; Encode wrote %d", n, size, err, len(buf))
		}
		// A non-zero pad byte is damage, not slack.
		if pad > 0 {
			bad := append([]byte(nil), buf...)
			bad[cursor] = 1
			if _, _, err := Decode(bad); err == nil || !strings.Contains(err.Error(), "pad") {
				t.Fatalf("name length %d: non-zero pad decoded: %v", n, err)
			}
		}
	}
	for pad := 0; pad < 64; pad++ {
		if !seen[pad] {
			t.Errorf("pad width %d never exercised", pad)
		}
	}
}

// everyKindSchema has one field of every Kind, the array last, with names
// nameLen bytes long so the pads ahead of the three numeric payloads move.
func everyKindSchema(nameLen int) *Schema {
	name := func(tag byte) string { return string(tag) + strings.Repeat("x", nameLen) }
	return &Schema{
		Name: strings.Repeat("g", nameLen),
		Fields: []Field{
			{Name: name('i'), Kind: KindInt64},
			{Name: name('u'), Kind: KindUint64},
			{Name: name('f'), Kind: KindFloat64},
			{Name: name('s'), Kind: KindString},
			{Name: name('b'), Kind: KindBytes},
			{Name: name('I'), Kind: KindInt64Slice},
			{Name: name('F'), Kind: KindFloat64Slice},
			{Name: name('a'), Kind: KindArray},
			{Name: name('A'), Kind: KindArray},
		},
	}
}

func everyKindRecord(schema *Schema, rng *rand.Rand) Record {
	floats := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = rng.NormFloat64()
		}
		return out
	}
	ints := func(n int) []int64 {
		out := make([]int64, n)
		for i := range out {
			out[i] = rng.Int63() - rng.Int63()
		}
		return out
	}
	raw := make([]byte, rng.Intn(19))
	rng.Read(raw)
	rows := uint64(rng.Intn(5))
	f := schema.Fields
	return Record{
		f[0].Name: rng.Int63() - rng.Int63(),
		f[1].Name: rng.Uint64(),
		f[2].Name: rng.NormFloat64(),
		f[3].Name: strings.Repeat("é", rng.Intn(7)),
		f[4].Name: raw,
		f[5].Name: ints(rng.Intn(6)),
		f[6].Name: floats(rng.Intn(6)),
		f[7].Name: &Array{Dims: []uint64{rows, 3}, Global: []uint64{rows + 2, 3}, Offsets: []uint64{2, 0}, Float64: floats(int(rows) * 3)},
		f[8].Name: &Array{Dims: []uint64{4}, Int64: ints(4)},
	}
}

// TestRoundTripEveryKindEveryPad round-trips random records holding every
// Kind, with schema and field names of every length mod 64 ahead of the
// numeric payloads, from an aligned buffer (views) and from the same bytes
// at an odd address (the portable loop): both must give the record back.
func TestRoundTripEveryKindEveryPad(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for nameLen := 0; nameLen < payloadAlign; nameLen++ {
		for trial := 0; trial < 8; trial++ {
			schema := everyKindSchema(nameLen)
			rec := everyKindRecord(schema, rng)
			buf, err := Encode(schema, rec)
			if err != nil {
				t.Fatal(err)
			}
			if n, err := Size(schema, rec); err != nil || n != len(buf) || cap(buf) != n {
				t.Fatalf("Size %d, %v; Encode len %d cap %d", n, err, len(buf), cap(buf))
			}
			odd := make([]byte, len(buf)+1)
			copy(odd[1:], buf)
			for _, in := range [][]byte{buf, odd[1:]} {
				gotSchema, got, err := Decode(in)
				if err != nil {
					t.Fatalf("name length %d: %v", nameLen, err)
				}
				if !reflect.DeepEqual(gotSchema, schema) {
					t.Fatalf("schema %+v, want %+v", gotSchema, schema)
				}
				for _, f := range schema.Fields {
					if !reflect.DeepEqual(got[f.Name], rec[f.Name]) {
						t.Fatalf("name length %d field %s (%s): got %v want %v", nameLen, f.Name, f.Kind, got[f.Name], rec[f.Name])
					}
				}
			}
		}
	}
}

// TestDecodeViewsAliasAlignedInput is the ownership rule of Decode: numeric
// and byte payloads are views into an aligned input and equal copies when
// the same bytes sit at an odd address.
func TestDecodeViewsAliasAlignedInput(t *testing.T) {
	schema := particleSchema()
	rec := sampleRecord()
	rec["field"].(*Array).Float64 = []float64{1, 2, 3, math.Inf(-1), 5, math.MaxFloat64}
	buf, err := Encode(schema, rec)
	if err != nil {
		t.Fatal(err)
	}
	odd := make([]byte, len(buf)+1)
	copy(odd[1:], buf)

	_, aligned, err := Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	_, copied, err := Decode(odd[1:])
	if err != nil {
		t.Fatal(err)
	}
	numeric := map[string]func(Record) any{
		"ids":     func(r Record) any { return r["ids"] },
		"weights": func(r Record) any { return r["weights"] },
		"field":   func(r Record) any { return r["field"].(*Array).Float64 },
	}
	for name, get := range numeric {
		a, c := get(aligned), get(copied)
		if !reflect.DeepEqual(a, c) {
			t.Errorf("%s: aligned decode %v, odd-offset decode %v", name, a, c)
		}
		if hostLittleEndian && !within(a, buf) {
			t.Errorf("%s decoded from an aligned buffer is a copy, want a view", name)
		}
		if within(c, odd) {
			t.Errorf("%s decoded from an odd address is a view of misaligned words", name)
		}
		if v := reflect.ValueOf(a); v.Cap() != v.Len() {
			t.Errorf("%s view has cap %d beyond its len %d", name, v.Cap(), v.Len())
		}
	}
	// Bytes need no alignment: a view either way, capped at its length.
	for _, in := range []struct {
		rec Record
		buf []byte
	}{{aligned, buf}, {copied, odd}} {
		raw := in.rec["raw"].([]byte)
		if !within(raw, in.buf) || cap(raw) != len(raw) {
			t.Errorf("raw bytes: view %v, len %d cap %d", within(raw, in.buf), len(raw), cap(raw))
		}
		if !reflect.DeepEqual(raw, rec["raw"]) {
			t.Errorf("raw bytes %v", raw)
		}
	}
}

// TestLengthPrefixOverflow drives the size check with a synthetic length:
// a 4 GiB string cannot be allocated here, the check it would trip can.
func TestLengthPrefixOverflow(t *testing.T) {
	if !fitsLen32(math.MaxUint32) || fitsLen32(math.MaxUint32+1) {
		t.Fatal("fitsLen32 boundary is not MaxUint32")
	}
	w := &writer{sizing: true}
	w.len32(math.MaxUint32)
	if w.err != nil {
		t.Fatalf("MaxUint32-byte field rejected: %v", w.err)
	}
	w.len32(math.MaxUint32 + 1)
	if !errors.Is(w.err, ErrTooLarge) {
		t.Fatalf("4 GiB field: err = %v, want ErrTooLarge", w.err)
	}
}

// TestEncodeAllocatesOnce: the encoding is sized first, so a 4 MiB record
// costs one buffer, not a writer grown by doubling.
func TestEncodeAllocatesOnce(t *testing.T) {
	schema := &Schema{Name: "p", Fields: []Field{{Name: "arr", Kind: KindArray}}}
	rec := Record{"arr": &Array{Dims: []uint64{1 << 16, 8}, Float64: make([]float64, 1<<19)}}
	if n := testing.AllocsPerRun(10, func() {
		if _, err := Encode(schema, rec); err != nil {
			t.Fatal(err)
		}
	}); n > 3 {
		t.Errorf("Encode makes %v allocations, want the buffer and two writers", n)
	}
}
