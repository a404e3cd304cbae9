package ffs

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
)

func particleSchema() *Schema {
	return &Schema{
		Name: "particles",
		Fields: []Field{
			{Name: "timestep", Kind: KindInt64},
			{Name: "nparticles", Kind: KindUint64},
			{Name: "dt", Kind: KindFloat64},
			{Name: "label", Kind: KindString},
			{Name: "raw", Kind: KindBytes},
			{Name: "ids", Kind: KindInt64Slice},
			{Name: "weights", Kind: KindFloat64Slice},
			{Name: "field", Kind: KindArray},
		},
	}
}

func sampleRecord() Record {
	return Record{
		"timestep":   int64(-7),
		"nparticles": uint64(1 << 40),
		"dt":         0.125,
		"label":      "electron",
		"raw":        []byte{0, 1, 2, 255},
		"ids":        []int64{5, -5, math.MaxInt64},
		"weights":    []float64{1.5, -2.25, math.Inf(1)},
		"field": &Array{
			Dims:    []uint64{2, 3},
			Global:  []uint64{4, 6},
			Offsets: []uint64{2, 3},
			Float64: []float64{1, 2, 3, 4, 5, 6},
		},
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	schema := particleSchema()
	rec := sampleRecord()
	buf, err := Encode(schema, rec)
	if err != nil {
		t.Fatal(err)
	}
	gotSchema, gotRec, err := Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if gotSchema.Name != "particles" || len(gotSchema.Fields) != len(schema.Fields) {
		t.Fatalf("schema mismatch: %+v", gotSchema)
	}
	if gotSchema.FieldIndex("weights") != 6 {
		t.Errorf("FieldIndex(weights) = %d", gotSchema.FieldIndex("weights"))
	}
	if gotSchema.FieldIndex("nope") != -1 {
		t.Errorf("FieldIndex(nope) = %d", gotSchema.FieldIndex("nope"))
	}
	for i, f := range schema.Fields {
		if gotSchema.Fields[i] != f {
			t.Errorf("field %d: got %+v want %+v", i, gotSchema.Fields[i], f)
		}
	}
	for _, name := range []string{"timestep", "nparticles", "dt", "label"} {
		if !reflect.DeepEqual(gotRec[name], rec[name]) {
			t.Errorf("%s: got %v want %v", name, gotRec[name], rec[name])
		}
	}
	if !reflect.DeepEqual(gotRec["ids"], rec["ids"]) {
		t.Errorf("ids: got %v", gotRec["ids"])
	}
	if !reflect.DeepEqual(gotRec["weights"], rec["weights"]) {
		t.Errorf("weights: got %v", gotRec["weights"])
	}
	a := gotRec["field"].(*Array)
	want := rec["field"].(*Array)
	if !reflect.DeepEqual(a, want) {
		t.Errorf("array: got %+v want %+v", a, want)
	}
}

func TestEncodeMissingField(t *testing.T) {
	schema := &Schema{Name: "g", Fields: []Field{{Name: "x", Kind: KindInt64}}}
	_, err := Encode(schema, Record{})
	if err == nil || !strings.Contains(err.Error(), "missing field") {
		t.Fatalf("err = %v", err)
	}
}

func TestEncodeTypeMismatch(t *testing.T) {
	schema := &Schema{Name: "g", Fields: []Field{{Name: "x", Kind: KindFloat64}}}
	_, err := Encode(schema, Record{"x": "not a float"})
	if err == nil || !strings.Contains(err.Error(), "expects float64") {
		t.Fatalf("err = %v", err)
	}
}

func TestEncodeBadArray(t *testing.T) {
	schema := &Schema{Name: "g", Fields: []Field{{Name: "a", Kind: KindArray}}}
	cases := []*Array{
		{Dims: []uint64{2}, Float64: []float64{1, 2, 3}}, // wrong elem count
		{Dims: []uint64{2}}, // no payload
		{Dims: []uint64{2}, Float64: []float64{1, 2}, Int64: []int64{1, 2}},                         // both payloads
		{Dims: []uint64{2}, Global: []uint64{3}, Offsets: []uint64{2}, Float64: []float64{1, 2}},    // chunk exceeds global
		{Dims: []uint64{2}, Global: []uint64{4, 4}, Offsets: []uint64{0}, Float64: []float64{1, 2}}, // rank mismatch
	}
	for i, a := range cases {
		if _, err := Encode(schema, Record{"a": a}); err == nil {
			t.Errorf("case %d: invalid array accepted", i)
		}
	}
}

func TestDecodeBadMagic(t *testing.T) {
	if _, _, err := Decode([]byte{1, 2, 3, 4, 5, 6, 7, 8}); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestDecodeTruncated(t *testing.T) {
	schema := particleSchema()
	buf, err := Encode(schema, sampleRecord())
	if err != nil {
		t.Fatal(err)
	}
	// Every strict prefix must fail cleanly rather than panic.
	for n := 0; n < len(buf); n += 7 {
		if _, _, err := Decode(buf[:n]); err == nil {
			t.Fatalf("prefix of %d bytes decoded successfully", n)
		}
	}
}

// TestDecodeImplausibleFieldCount feeds Decode 12 bytes: the magic, an
// empty schema name and a field count of 2^20. The count must be refused
// against the bytes left before anything is sized by it.
func TestDecodeImplausibleFieldCount(t *testing.T) {
	buf := binary.LittleEndian.AppendUint32(nil, Magic)
	buf = binary.LittleEndian.AppendUint32(buf, 0)
	buf = binary.LittleEndian.AppendUint32(buf, 1<<20)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := Decode(buf)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "implausible field count") {
		t.Fatalf("err = %v, want an implausible field count", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<10 {
		t.Fatalf("decoding %d bytes allocated %d bytes", len(buf), got)
	}
}

func TestDecodeTrailingGarbage(t *testing.T) {
	schema := &Schema{Name: "g", Fields: []Field{{Name: "x", Kind: KindInt64}}}
	buf, err := Encode(schema, Record{"x": int64(1)})
	if err != nil {
		t.Fatal(err)
	}
	buf = append(buf, 0xFF)
	if _, _, err := Decode(buf); err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Fatalf("err = %v", err)
	}
}

func TestArrayElems(t *testing.T) {
	a := &Array{Dims: []uint64{3, 4, 5}}
	if a.Elems() != 60 {
		t.Errorf("elems %d", a.Elems())
	}
	empty := &Array{}
	if empty.Elems() != 0 {
		t.Errorf("empty elems %d", empty.Elems())
	}
}

// TestValidateOffsetWrap: an offset whose sum with its extent wraps
// uint64 lands the box nowhere in the global array, though the wrapped
// end (here 1) is inside it. Neither Validate nor Decode may take it.
func TestValidateOffsetWrap(t *testing.T) {
	a := &Array{Dims: []uint64{2, 4}, Global: []uint64{4, 4}, Offsets: []uint64{math.MaxUint64, 0}, Float64: make([]float64, 8)}
	if err := a.Validate(); err == nil || !strings.Contains(err.Error(), "wraps") {
		t.Errorf("Validate = %v, want the offset wrap", err)
	}
	// Encode validates first, so write the box at offset 2 and patch the
	// offset list's first entry (count 2, then 2 and 0) to 2^64-1.
	schema := &Schema{Name: "w", Fields: []Field{{Name: "a", Kind: KindArray}}}
	a.Offsets[0] = 2
	buf, err := Encode(schema, Record{"a": a})
	if err != nil {
		t.Fatal(err)
	}
	offsets := binary.LittleEndian.AppendUint32(nil, 2)
	offsets = binary.LittleEndian.AppendUint64(offsets, 2)
	offsets = binary.LittleEndian.AppendUint64(offsets, 0)
	at := bytes.Index(buf, offsets)
	if at < 0 || bytes.Index(buf[at+1:], offsets) >= 0 {
		t.Fatal("offset list not found once in the encoding")
	}
	binary.LittleEndian.PutUint64(buf[at+4:], math.MaxUint64)
	if _, _, err := Decode(buf); err == nil || !strings.Contains(err.Error(), "wraps") {
		t.Errorf("Decode = %v, want the offset wrap", err)
	}
}

// TestValidateElemCountWrap: dims whose element count wraps uint64 (2^33 x
// 2^31 = 2^64, which wraps to 0) must not pass for an empty array.
func TestValidateElemCountWrap(t *testing.T) {
	a := &Array{Dims: []uint64{1 << 33, 1 << 31}, Float64: []float64{}}
	if err := a.Validate(); err == nil || !strings.Contains(err.Error(), "2^64") {
		t.Errorf("Validate = %v, want the element-count overflow", err)
	}
}

func TestKindString(t *testing.T) {
	if KindFloat64.String() != "float64" {
		t.Errorf("got %s", KindFloat64)
	}
	if !strings.Contains(Kind(99).String(), "99") {
		t.Errorf("got %s", Kind(99))
	}
}

// TestRoundTripProperty checks Encode/Decode over randomized scalar and
// slice payloads.
func TestRoundTripProperty(t *testing.T) {
	schema := &Schema{
		Name: "q",
		Fields: []Field{
			{Name: "i", Kind: KindInt64},
			{Name: "u", Kind: KindUint64},
			{Name: "f", Kind: KindFloat64},
			{Name: "s", Kind: KindString},
			{Name: "b", Kind: KindBytes},
			{Name: "is", Kind: KindInt64Slice},
			{Name: "fs", Kind: KindFloat64Slice},
		},
	}
	f := func(i int64, u uint64, fl float64, s string, b []byte, is []int64, fs []float64) bool {
		if math.IsNaN(fl) {
			return true // NaN != NaN; representation still round-trips
		}
		for _, x := range fs {
			if math.IsNaN(x) {
				return true
			}
		}
		rec := Record{"i": i, "u": u, "f": fl, "s": s, "b": b, "is": is, "fs": fs}
		buf, err := Encode(schema, rec)
		if err != nil {
			return false
		}
		_, got, err := Decode(buf)
		if err != nil {
			return false
		}
		if got["i"] != i || got["u"] != u || got["f"] != fl || got["s"] != s {
			return false
		}
		gb := got["b"].([]byte)
		if len(gb) != len(b) {
			return false
		}
		for k := range b {
			if gb[k] != b[k] {
				return false
			}
		}
		gi := got["is"].([]int64)
		if len(gi) != len(is) {
			return false
		}
		for k := range is {
			if gi[k] != is[k] {
				return false
			}
		}
		gf := got["fs"].([]float64)
		if len(gf) != len(fs) {
			return false
		}
		for k := range fs {
			if gf[k] != fs[k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestDecodeFuzzedCorruption flips bytes in a valid buffer and requires
// Decode to either succeed or fail with an error — never panic.
func TestDecodeFuzzedCorruption(t *testing.T) {
	schema := particleSchema()
	orig, err := Encode(schema, sampleRecord())
	if err != nil {
		t.Fatal(err)
	}
	for pos := 0; pos < len(orig); pos++ {
		buf := append([]byte(nil), orig...)
		buf[pos] ^= 0x5A
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("Decode panicked with byte %d corrupted: %v", pos, p)
				}
			}()
			_, _, _ = Decode(buf)
		}()
	}
}

func BenchmarkEncode1MParticleChunk(b *testing.B) {
	schema := &Schema{Name: "p", Fields: []Field{{Name: "arr", Kind: KindArray}}}
	data := make([]float64, 1<<17)
	rec := Record{"arr": &Array{Dims: []uint64{1 << 17}, Float64: data}}
	b.ReportAllocs()
	b.SetBytes(int64(len(data) * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Encode(schema, rec); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecode1MParticleChunk(b *testing.B) {
	schema := &Schema{Name: "p", Fields: []Field{{Name: "arr", Kind: KindArray}}}
	data := make([]float64, 1<<17)
	buf, err := Encode(schema, Record{"arr": &Array{Dims: []uint64{1 << 17}, Float64: data}})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(int64(len(data) * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Decode(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// TestScatterRandom: a random 2-D tiling into row bands reassembles the
// global array exactly.
func TestScatterRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		nx := 1 + rng.Intn(8)
		ny := 1 + rng.Intn(8)
		ref := make([]float64, nx*ny)
		for i := range ref {
			ref[i] = rng.Float64()
		}
		out := make([]float64, nx*ny)
		for x := 0; x < nx; {
			w := 1 + rng.Intn(nx-x)
			block := make([]float64, w*ny)
			for dx := 0; dx < w; dx++ {
				copy(block[dx*ny:(dx+1)*ny], ref[(x+dx)*ny:(x+dx+1)*ny])
			}
			Scatter(out, []uint64{uint64(nx), uint64(ny)}, block,
				[]uint64{uint64(w), uint64(ny)}, []uint64{uint64(x), 0})
			x += w
		}
		for i := range ref {
			if out[i] != ref[i] {
				t.Fatalf("trial %d elem %d mismatch", trial, i)
			}
		}
	}
}

// TestDecoderReusesSchema: a Decoder hands every buffer whose schema bytes
// repeat the last ones the very *Schema it decoded from them, and decodes
// the record as Decode does; bytes that differ in a field's name or kind,
// or in the group name at the same length, get a schema of their own, which
// the next repeat then shares. Overwriting the first buffer afterwards, as
// a writer reusing its frame does, changes no schema.
func TestDecoderReusesSchema(t *testing.T) {
	encode := func(s *Schema) []byte {
		t.Helper()
		rec := sampleRecord()
		rec["lebal"] = rec["label"]
		if s.Fields[0].Kind == KindUint64 {
			rec["timestep"] = uint64(7)
		}
		buf, err := Encode(s, rec)
		if err != nil {
			t.Fatal(err)
		}
		return buf
	}
	var d Decoder
	decode := func(buf []byte) *Schema {
		t.Helper()
		s, rec, ext, err := d.DecodeExtents(buf)
		if err != nil {
			t.Fatal(err)
		}
		ws, wrec, wext, err := DecodeExtents(buf)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(s, ws) || !reflect.DeepEqual(rec, wrec) || len(ext) != len(wext) {
			t.Fatalf("the Decoder's result differs from DecodeExtents'")
		}
		return s
	}
	first := encode(particleSchema())
	a := decode(first)
	if b := decode(encode(particleSchema())); b != a {
		t.Error("the same schema bytes gave a new *Schema")
	}
	renamed := particleSchema()
	renamed.Fields[3].Name = "lebal"
	rekinded := particleSchema()
	rekinded.Fields[0].Kind = KindUint64
	regrouped := particleSchema()
	regrouped.Name = "particleZ"
	for _, s := range []*Schema{renamed, rekinded, regrouped} {
		got := decode(encode(s))
		if got == a || !reflect.DeepEqual(got, s) {
			t.Fatalf("schema %+v decoded as %+v (the cached one: %t)", s, got, got == a)
		}
		if again := decode(encode(s)); again != got {
			t.Errorf("schema %q: a repeat gave a new *Schema", s.Name)
		}
	}
	for i := range first {
		first[i] = 0xA5
	}
	if !reflect.DeepEqual(a, particleSchema()) || !reflect.DeepEqual(decode(encode(regrouped)), regrouped) {
		t.Error("overwriting a decoded buffer changed a schema")
	}
}
