// Package ffs implements a self-describing binary wire format in the
// spirit of FFS ("native data representation"): every encoded buffer
// carries its own schema, so a receiver can decode data whose structure it
// has never seen, and metadata (array dimensions, global-array placement)
// rides along with the payload.
//
// PreDatA packs each compute process's output into one contiguous buffer —
// a "packed partial data chunk" — using this format (Stage 1b of the data
// flow) and staging-node operators introspect the chunks as they stream by.
package ffs

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sync/atomic"

	"predata/internal/wire"
)

// Magic identifies an FFS-encoded buffer. "FFS2" pads numeric payloads to
// 8-byte offsets; there is one format and no FFS1 reader — encoded buffers
// (chunks, journals, pass logs) do not outlive a run's binary.
const Magic = 0x46465332 // "FFS2"

// Kind enumerates the value types a field can carry.
type Kind uint8

// Field kinds. Scalars are fixed-width little-endian; slices and strings
// are length-prefixed; arrays carry dimension metadata. The payload of a
// numeric slice or array starts at an 8-byte offset of the buffer, behind
// zero padding both sides derive from the cursor.
const (
	KindInvalid Kind = iota
	KindInt64
	KindUint64
	KindFloat64
	KindString
	KindBytes
	KindInt64Slice
	KindFloat64Slice
	KindArray // multi-dimensional array with placement metadata
)

var kindNames = map[Kind]string{
	KindInt64:        "int64",
	KindUint64:       "uint64",
	KindFloat64:      "float64",
	KindString:       "string",
	KindBytes:        "bytes",
	KindInt64Slice:   "[]int64",
	KindFloat64Slice: "[]float64",
	KindArray:        "array",
}

// String returns the human-readable name of the kind.
func (k Kind) String() string {
	if n, ok := kindNames[k]; ok {
		return n
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Field describes one named value in a schema.
type Field struct {
	Name string
	Kind Kind
}

// Schema is an ordered list of fields with a group name. It corresponds to
// an ADIOS output "data group" definition.
type Schema struct {
	Name   string
	Fields []Field
}

// FieldIndex returns the position of the named field, or -1.
func (s *Schema) FieldIndex(name string) int {
	for i, f := range s.Fields {
		if f.Name == name {
			return i
		}
	}
	return -1
}

// Array is a multi-dimensional numeric array with optional global-array
// placement metadata: a partial chunk of a global array records the global
// dimensions and this chunk's offsets within them, exactly the metadata an
// ADIOS global array write provides.
type Array struct {
	Dims    []uint64 // local dimensions of this chunk
	Global  []uint64 // global array dimensions; nil for purely local arrays
	Offsets []uint64 // chunk offset in the global array; nil for local
	Float64 []float64
	Int64   []int64
}

// Elems returns the number of elements implied by Dims: 0 when there are
// none, or when their count would not fit in 64 bits.
func (a *Array) Elems() uint64 {
	n, _ := count(a.Dims)
	return n
}

// Validate checks that the array is a valid chunk (Box) whose one payload
// holds as many elements as its dims imply.
func (a *Array) Validate() error {
	want, err := Box(a.Dims, a.Global, a.Offsets)
	if err != nil {
		return err
	}
	var have uint64
	switch {
	case a.Float64 != nil && a.Int64 != nil:
		return fmt.Errorf("ffs: array has both float64 and int64 payloads")
	case a.Float64 != nil:
		have = uint64(len(a.Float64))
	case a.Int64 != nil:
		have = uint64(len(a.Int64))
	default:
		return fmt.Errorf("ffs: array has no payload")
	}
	if have != want {
		return fmt.Errorf("ffs: array dims %v imply %d elements, payload has %d", a.Dims, want, have)
	}
	return nil
}

// Box is the one definition of a valid chunk: what the BP file format, the
// staging reorg and FFS arrays all accept. It checks a chunk of the given
// dims — placed at offsets in a global array of the given dims when global
// is non-nil — and returns its element count. A chunk has at least one
// dimension and fewer than 2^64 elements; a global chunk has the rank of
// its global array, which also has fewer than 2^64 elements, and lies
// inside it in every dimension. All of it is uint64 arithmetic that must
// not wrap, so a chunk that passes can be handed to Scatter.
func Box(dims, global, offsets []uint64) (uint64, error) {
	n, err := count(dims)
	if err != nil || global == nil {
		return n, err
	}
	if len(global) != len(dims) || len(offsets) != len(dims) {
		return 0, fmt.Errorf("ffs: global/offset rank mismatch: dims %v global %v offsets %v",
			dims, global, offsets)
	}
	if _, err := count(global); err != nil {
		return 0, err
	}
	for i := range dims {
		end, carry := bits.Add64(offsets[i], dims[i], 0)
		if carry != 0 {
			return 0, fmt.Errorf("ffs: chunk offset %d + extent %d in dim %d wraps", offsets[i], dims[i], i)
		}
		if end > global[i] {
			return 0, fmt.Errorf("ffs: chunk [%d:%d) exceeds global dim %d of %d",
				offsets[i], end, i, global[i])
		}
	}
	return n, nil
}

// count returns the element count of dims, of which there must be some.
func count(dims []uint64) (uint64, error) {
	if len(dims) == 0 {
		return 0, fmt.Errorf("ffs: array has no dimensions")
	}
	n := uint64(1)
	for _, d := range dims {
		hi, lo := bits.Mul64(n, d)
		if hi != 0 {
			return 0, fmt.Errorf("ffs: array dims %v imply more than 2^64-1 elements", dims)
		}
		n = lo
	}
	return n, nil
}

// Scatter places a row-major chunk into its position within the row-major
// global array, one innermost-dimension run at a time: where the chunk's
// rows land for the BP reader and the staging reorg alike. The chunk's
// geometry must pass Box, dst must hold the global array and src the
// chunk's elements.
func Scatter(dst []float64, global []uint64, src []float64, dims, offsets []uint64) {
	rank := len(dims)
	if rank == 0 || len(src) == 0 {
		return
	}
	rowLen := dims[rank-1]
	if rowLen == 0 {
		return
	}
	rows := uint64(len(src)) / rowLen
	// The index stays off the heap up to rank 8: the reorg calls Scatter
	// once per chunk per slab.
	var stack [8]uint64
	idx := stack[:min(rank, len(stack))]
	if rank > len(stack) {
		idx = make([]uint64, rank)
	}
	for row := uint64(0); row < rows; row++ {
		var dstOff uint64
		stride := uint64(1)
		for d := rank - 1; d >= 0; d-- {
			coord := offsets[d]
			if d < rank-1 {
				coord += idx[d]
			}
			dstOff += coord * stride
			stride *= global[d]
		}
		copy(dst[dstOff:dstOff+rowLen], src[row*rowLen:(row+1)*rowLen])
		for d := rank - 2; d >= 0; d-- {
			idx[d]++
			if idx[d] < dims[d] {
				break
			}
			idx[d] = 0
		}
	}
}

// Record maps field names to values. Value types must match the schema:
// int64, uint64, float64, string, []byte, []int64, []float64, or *Array.
type Record map[string]any

// ErrTooLarge marks a string, byte or dimension field longer than the
// format's 32-bit length prefix can carry.
var ErrTooLarge = errors.New("ffs: field exceeds the 32-bit length prefix")

// fitsLen32 reports whether a length fits the u32 length prefix.
func fitsLen32(n int) bool { return uint64(n) <= math.MaxUint32 }

// Visitor receives the ranges AppendEncode appends, in order, each exactly
// once. A block of a float64 array's payload arrives as (wrote, a, lo, hi):
// the bytes of rows [lo, hi) of a's leading dimension. Every other range —
// headers, scalars, dims, other payloads — arrives as (wrote, nil, 0, 0).
// wrote aliases the buffer being built and is valid to read during the call.
type Visitor func(wrote []byte, a *Array, lo, hi int)

// VisitBlockBytes caps the numeric payload block handed to a Visitor: small
// enough that the block is still in a core's L2 cache when the visitor reads
// it, and below the size where a bulk copy bypasses the cache. A float64
// array's block is as many whole rows as fit, or one row when a row is
// larger.
const VisitBlockBytes = 256 << 10

// BlockRows returns the rows of perRow float64 words each (perRow > 0) that
// make one visited block: as many whole rows as fit in VisitBlockBytes, or
// one row when a row is larger. A kernel that walks an array in blocks of
// BlockRows rows reads it in the blocks AppendEncode visits.
func BlockRows(perRow int) int { return max(VisitBlockBytes/(8*perRow), 1) }

// SoleFloat64Array returns the field name and array of rec's float64 array
// when it has exactly one, and nil otherwise: the array whose rows
// AppendEncode's visitor, and the staging engine's walk, take block by
// block.
func SoleFloat64Array(rec Record) (string, *Array) {
	var (
		field string
		sole  *Array
	)
	for name, v := range rec {
		if a, ok := v.(*Array); ok && a.Float64 != nil {
			if sole != nil {
				return "", nil
			}
			field, sole = name, a
		}
	}
	return field, sole
}

// arrayBlocks returns how a float64 array of n words is cut into visited
// blocks: rows of per words, step rows to a block. An array with no leading
// rows counts its words as rows; rows of no words all go in one block.
func arrayBlocks(a *Array, n int) (rows, per, step int) {
	rows, per = n, 1
	if a.Dims[0] != 0 {
		rows, per = int(a.Dims[0]), n/int(a.Dims[0])
	}
	if per == 0 {
		return rows, 0, rows
	}
	return rows, per, BlockRows(per)
}

// writer lays a record out in the wire format. The same field walk runs
// twice: once sizing (nothing is written, n counts the bytes a write would
// add), once appending into a buffer presized to that measure — so the size
// and the bytes can never disagree. n is the cursor relative to the start of
// the FFS buffer; alignment pads are derived from it.
type writer struct {
	buf    []byte
	n      int
	sizing bool
	err    error
	visit  Visitor // nil: nothing is visited
	seen   int     // buf[:seen] has been visited (or is the caller's prefix)
}

// flush visits the bytes appended since the last visited range.
func (w *writer) flush() {
	if w.visit != nil && len(w.buf) > w.seen {
		w.visit(w.buf[w.seen:len(w.buf):len(w.buf)], nil, 0, 0)
		w.seen = len(w.buf)
	}
}

func (w *writer) u8(v uint8) {
	if !w.sizing {
		w.buf = append(w.buf, v)
	}
	w.n++
}

func (w *writer) u32(v uint32) {
	if !w.sizing {
		w.buf = binary.LittleEndian.AppendUint32(w.buf, v)
	}
	w.n += 4
}

func (w *writer) u64(v uint64) {
	if !w.sizing {
		w.buf = binary.LittleEndian.AppendUint64(w.buf, v)
	}
	w.n += 8
}

func (w *writer) f64(v float64) { w.u64(math.Float64bits(v)) }
func (w *writer) i64(v int64)   { w.u64(uint64(v)) }

// len32 writes a u32 length prefix, failing the walk when n does not fit.
func (w *writer) len32(n int) {
	if !fitsLen32(n) && w.err == nil {
		w.err = fmt.Errorf("%w: %d bytes or elements", ErrTooLarge, n)
	}
	w.u32(uint32(n))
}

func (w *writer) str(s string) {
	w.len32(len(s))
	if !w.sizing {
		w.buf = append(w.buf, s...)
	}
	w.n += len(s)
}

func (w *writer) bytes(b []byte) {
	w.len32(len(b))
	if !w.sizing {
		w.buf = append(w.buf, b...)
	}
	w.n += len(b)
}

func (w *writer) u64s(v []uint64) {
	w.len32(len(v))
	for _, x := range v {
		w.u64(x)
	}
}

// words writes the header of a numeric payload of count 8-byte elements:
// the count, then zero bytes up to the next 8-byte offset of the FFS
// buffer, so a receiver holding the buffer at an aligned address can read
// the payload in place. The caller appends the payload itself.
func (w *writer) words(count int) {
	w.u64(uint64(count))
	for w.n&7 != 0 {
		w.u8(0)
	}
}

// f64s writes a float64 payload; a is the array it belongs to, or nil.
func (w *writer) f64s(v []float64, a *Array) {
	w.words(len(v))
	appendPayload(w, v, a, wire.AppendFloat64s)
}

func (w *writer) i64s(v []int64) {
	w.words(len(v))
	appendPayload(w, v, nil, wire.AppendInt64s)
}

// appendPayload appends the words of a numeric payload. With a visitor it
// appends them in blocks of at most VisitBlockBytes and visits each block as
// it lands, while it is still in cache: whole leading-dimension rows when a
// is a float64 array, plain ranges otherwise.
func appendPayload[T float64 | int64](w *writer, v []T, a *Array, put func([]byte, []T) []byte) {
	w.n += 8 * len(v)
	if w.sizing {
		return
	}
	if w.visit == nil {
		w.buf = put(w.buf, v)
		return
	}
	w.flush()
	rows, per, step := len(v), 1, BlockRows(1)
	if a != nil {
		rows, per, step = arrayBlocks(a, len(v))
	}
	for lo := 0; lo < rows; lo += step {
		hi := min(lo+step, rows)
		at := len(w.buf)
		w.buf = put(w.buf, v[lo*per:hi*per])
		if wrote := w.buf[at:len(w.buf):len(w.buf)]; a != nil {
			w.visit(wrote, a, lo, hi)
		} else {
			w.visit(wrote, nil, 0, 0)
		}
	}
	w.seen = len(w.buf)
}

// words reads the header writer.words wrote and returns the payload's
// bytes: the count, the alignment pad (which must be zero bytes), then
// count 8-byte elements, all bounds-checked against the buffer.
func words(r *wire.Cursor, what string) []byte {
	n := r.U64()
	at := r.Off()
	for _, b := range r.Next(-at & 7) {
		if b != 0 {
			r.Fail("non-zero alignment pad before %s payload at offset %d", what, at)
			return nil
		}
	}
	if n > uint64(r.Left())/8 {
		r.Fail("%s slice length %d exceeds buffer", what, n)
		return nil
	}
	return r.Next(int(n) * 8)
}

// f64s and i64s return the payload as a view over the buffer when the host
// can read it in place (see package wire), else as a converted copy.
func f64s(r *wire.Cursor) []float64 {
	p := words(r, "float64")
	if r.Err() != nil {
		return nil
	}
	return wire.Float64s(p)
}

func i64s(r *wire.Cursor) []int64 {
	p := words(r, "int64")
	if r.Err() != nil {
		return nil
	}
	return wire.Int64s(p)
}

// Size returns the exact length of the record's encoding under the schema,
// validating the record on the way: it fails exactly where Encode would.
func Size(schema *Schema, rec Record) (int, error) {
	w := &writer{sizing: true}
	if err := w.record(schema, rec); err != nil {
		return 0, err
	}
	return w.n, nil
}

// AppendEncode appends the record's encoding to dst and returns the
// extended slice. The FFS buffer starts at len(dst): alignment pads are
// measured from there, so a caller that wants the numeric payloads
// decodable in place keeps len(dst) a multiple of 8 (a reserved frame
// header, say) in a buffer with Size bytes of spare capacity. Each byte is
// written once; application arrays are copied, never retained.
//
// A non-nil visit is called on every appended range, in order, so it sees
// each byte of the encoding exactly once and never dst's prefix: a running
// checksum of the visited ranges is the checksum of the encoding. Numeric
// payloads are appended and visited in blocks of at most VisitBlockBytes,
// so the visitor reads each block while the copy has left it in cache.
// An array is validated before any of it is written or visited.
func AppendEncode(dst []byte, schema *Schema, rec Record, visit Visitor) ([]byte, error) {
	w := &writer{buf: dst, visit: visit, seen: len(dst)}
	if err := w.record(schema, rec); err != nil {
		return nil, err
	}
	w.flush()
	return w.buf, nil
}

// Encode serializes the record under the schema into a self-describing
// buffer of exactly Size bytes: header, schema description, then field
// values in schema order.
func Encode(schema *Schema, rec Record) ([]byte, error) {
	n, err := Size(schema, rec)
	if err != nil {
		return nil, err
	}
	return AppendEncode(make([]byte, 0, n), schema, rec, nil)
}

// record walks the whole encoding: header, schema, values.
func (w *writer) record(schema *Schema, rec Record) error {
	w.u32(Magic)
	w.str(schema.Name)
	w.u32(uint32(len(schema.Fields)))
	for _, f := range schema.Fields {
		w.str(f.Name)
		w.u8(uint8(f.Kind))
	}
	for _, f := range schema.Fields {
		v, ok := rec[f.Name]
		if !ok {
			return fmt.Errorf("ffs: record missing field %q", f.Name)
		}
		if err := encodeValue(w, f, v); err != nil {
			return err
		}
	}
	return w.err
}

func encodeValue(w *writer, f Field, v any) error {
	mismatch := func() error {
		return fmt.Errorf("ffs: field %q expects %s, got %T", f.Name, f.Kind, v)
	}
	switch f.Kind {
	case KindInt64:
		x, ok := v.(int64)
		if !ok {
			return mismatch()
		}
		w.i64(x)
	case KindUint64:
		x, ok := v.(uint64)
		if !ok {
			return mismatch()
		}
		w.u64(x)
	case KindFloat64:
		x, ok := v.(float64)
		if !ok {
			return mismatch()
		}
		w.f64(x)
	case KindString:
		x, ok := v.(string)
		if !ok {
			return mismatch()
		}
		w.str(x)
	case KindBytes:
		x, ok := v.([]byte)
		if !ok {
			return mismatch()
		}
		w.bytes(x)
	case KindInt64Slice:
		x, ok := v.([]int64)
		if !ok {
			return mismatch()
		}
		w.i64s(x)
	case KindFloat64Slice:
		x, ok := v.([]float64)
		if !ok {
			return mismatch()
		}
		w.f64s(x, nil)
	case KindArray:
		a, ok := v.(*Array)
		if !ok {
			return mismatch()
		}
		if err := a.Validate(); err != nil {
			return fmt.Errorf("field %q: %w", f.Name, err)
		}
		w.u64s(a.Dims)
		w.u64s(a.Global)
		w.u64s(a.Offsets)
		if a.Float64 != nil {
			w.u8(1)
			w.f64s(a.Float64, a)
		} else {
			w.u8(2)
			w.i64s(a.Int64)
		}
	default:
		return fmt.Errorf("ffs: field %q has unsupported kind %v", f.Name, f.Kind)
	}
	return nil
}

// Decode parses a self-describing buffer produced by Encode, returning the
// embedded schema and the field values. Array, slice and []byte values are
// views over buf wherever the host can read them in place (package wire),
// so the cost is O(fields), not O(bytes): the caller must not write buf
// afterwards, and a value keeps buf alive for as long as it is referenced.
func Decode(buf []byte) (*Schema, Record, error) {
	schema, rec, _, err := (*Decoder)(nil).decode(buf, false)
	return schema, rec, err
}

// Extent is where one float64 array's payload lies in the buffer it was
// decoded from: its little-endian words are buf[Off : Off+Len].
type Extent struct {
	Array    *Array
	Off, Len int
}

// DecodeExtents is Decode that also says where each float64 array's
// payload lies in buf, found by the same parse: one Extent per array, in
// buffer order, so the extents ascend and are disjoint. A reader that
// slices buf by them reads exactly the bytes each array was decoded from.
func DecodeExtents(buf []byte) (*Schema, Record, []Extent, error) {
	return (*Decoder)(nil).decode(buf, true)
}

// A Decoder decodes a stream of buffers that mostly carry one schema, as a
// staging rank's chunks do: it keeps the last schema it decoded, and a
// buffer whose schema bytes are that schema's gets the same *Schema, which
// its readers must not change, instead of a new one. It keeps one schema
// at most, so no input grows it. The zero value is ready for use, also by
// concurrent goroutines.
type Decoder struct {
	last atomic.Pointer[wireSchema]
}

// wireSchema is a decoded schema and the bytes it was decoded from.
type wireSchema struct {
	wire   []byte
	schema *Schema
	arrays int // fields of KindArray
}

// DecodeExtents is DecodeExtents through d's schema.
func (d *Decoder) DecodeExtents(buf []byte) (*Schema, Record, []Extent, error) {
	return d.decode(buf, true)
}

// decode parses buf, recording the float64 arrays' extents when extents
// is set. d may be nil: every schema is then decoded afresh.
func (d *Decoder) decode(buf []byte, extents bool) (*Schema, Record, []Extent, error) {
	r := wire.NewCursor(buf, "ffs")
	if m := r.U32(); r.Err() == nil && m != Magic {
		return nil, nil, nil, fmt.Errorf("ffs: bad magic 0x%08x", m)
	}
	schema, arrays, err := d.schema(buf, r)
	if err != nil {
		return nil, nil, nil, err
	}
	var ext []Extent
	if extents {
		ext = make([]Extent, 0, arrays)
	}
	rec := make(Record, len(schema.Fields))
	for _, f := range schema.Fields {
		v, err := decodeValue(r, f)
		if err != nil {
			return nil, nil, nil, err
		}
		rec[f.Name] = v
		// A float64 array's payload is the last thing its value reads.
		if a, ok := v.(*Array); ok && extents && a.Float64 != nil {
			n := 8 * len(a.Float64)
			ext = append(ext, Extent{Array: a, Off: r.Off() - n, Len: n})
		}
	}
	if r.Err() != nil {
		return nil, nil, nil, r.Err()
	}
	if r.Left() != 0 {
		return nil, nil, nil, fmt.Errorf("ffs: %d trailing bytes after record", r.Left())
	}
	return schema, rec, ext, nil
}

// schema reads the schema at r's offset in buf, and how many of its
// fields are arrays. When those bytes start with the ones d decoded last,
// it steps over them and returns that schema: the encoding delimits
// itself, so the same bytes parse to the same schema and end at the same
// place.
func (d *Decoder) schema(buf []byte, r *wire.Cursor) (*Schema, int, error) {
	start := r.Off()
	if d != nil && r.Err() == nil {
		if ws := d.last.Load(); ws != nil && bytes.HasPrefix(buf[start:], ws.wire) {
			r.Skip(len(ws.wire))
			return ws.schema, ws.arrays, nil
		}
	}
	schema := &Schema{Name: r.Str()}
	nf, err := fieldCount(r)
	if err != nil {
		return nil, 0, err
	}
	schema.Fields = make([]Field, nf)
	arrays := 0
	for i := range schema.Fields {
		schema.Fields[i] = Field{Name: r.Str(), Kind: Kind(r.U8())}
		if schema.Fields[i].Kind == KindArray {
			arrays++
		}
	}
	if r.Err() != nil {
		return nil, 0, r.Err()
	}
	if d != nil {
		d.last.Store(&wireSchema{wire: bytes.Clone(buf[start:r.Off()]), schema: schema, arrays: arrays})
	}
	return schema, arrays, nil
}

// fieldCount reads the schema's field count. Each field descriptor takes
// at least a name length and a kind byte, so the bytes left bound the count
// before anything is sized by it.
func fieldCount(r *wire.Cursor) (int, error) {
	nf := int(r.U32())
	if r.Err() != nil {
		return 0, r.Err()
	}
	if left := r.Left(); nf > left/5 {
		return 0, fmt.Errorf("ffs: implausible field count %d for %d bytes left", nf, left)
	}
	return nf, nil
}

func decodeValue(r *wire.Cursor, f Field) (any, error) {
	switch f.Kind {
	case KindInt64:
		return int64(r.U64()), r.Err()
	case KindUint64:
		return r.U64(), r.Err()
	case KindFloat64:
		return math.Float64frombits(r.U64()), r.Err()
	case KindString:
		return r.Str(), r.Err()
	case KindBytes:
		return r.Bytes(), r.Err()
	case KindInt64Slice:
		return i64s(r), r.Err()
	case KindFloat64Slice:
		return f64s(r), r.Err()
	case KindArray:
		a := &Array{Dims: r.U64s(), Global: r.U64s(), Offsets: r.U64s()}
		switch tag := r.U8(); tag {
		case 1:
			a.Float64 = f64s(r)
		case 2:
			a.Int64 = i64s(r)
		default:
			if r.Err() == nil {
				return nil, fmt.Errorf("ffs: field %q has bad array payload tag %d", f.Name, tag)
			}
		}
		if r.Err() != nil {
			return nil, r.Err()
		}
		if err := a.Validate(); err != nil {
			return nil, err
		}
		return a, nil
	default:
		return nil, fmt.Errorf("ffs: field %q has unsupported kind %v", f.Name, f.Kind)
	}
}
