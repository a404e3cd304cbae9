// Package wire moves numeric payloads between []float64/[]int64 and their
// little-endian byte form in bulk. It is the one place in the tree that
// imports unsafe: on a little-endian host a float64 slice already is its
// wire form, so encoding is one memmove and decoding is a view over the
// received bytes (FFS's "receiver makes right": convert only when the host
// needs it). Host byte order is probed once at init and the address
// alignment of a view is checked per call; whenever either does not hold the
// portable element loop runs instead, so results never depend on the host.
// Float64Frame goes the other way: it allocates the words first and exposes
// their bytes, so a producer can compute straight into its output buffer;
// Float64FrameIn lays the same frame out inside a buffer being reused.
package wire

import (
	"encoding/binary"
	"math"
	"unsafe"
)

// hostLittleEndian reports whether the host stores the low byte first.
var hostLittleEndian = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// word is an element type whose in-memory form on a little-endian host is
// its wire form.
type word interface{ float64 | int64 }

// bytesOf returns v's memory as bytes. Bytes have no alignment, so this
// direction needs no address check.
func bytesOf[T word](v []T) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(v))), len(v)*8)
}

// viewOf returns b's words in place when the host is little-endian and b
// starts on an 8-byte boundary.
func viewOf[T word](b []byte) ([]T, bool) {
	if !hostLittleEndian || len(b) < 8 {
		return nil, false
	}
	p := unsafe.Pointer(unsafe.SliceData(b))
	if uintptr(p)%8 != 0 {
		return nil, false
	}
	return unsafe.Slice((*T)(p), len(b)/8), true
}

// AppendFloat64s appends v to b as little-endian IEEE-754 doubles.
func AppendFloat64s(b []byte, v []float64) []byte {
	if hostLittleEndian {
		return append(b, bytesOf(v)...)
	}
	return appendFloat64sPortable(b, v)
}

// AppendInt64s appends v to b as little-endian two's-complement words.
func AppendInt64s(b []byte, v []int64) []byte {
	if hostLittleEndian {
		return append(b, bytesOf(v)...)
	}
	return appendInt64sPortable(b, v)
}

// Float64s returns the len(b)/8 doubles encoded in b: a view sharing b's
// memory when the host is little-endian and b is 8-byte aligned, otherwise
// a converted copy. The result is never nil and never extends past b. A
// caller that receives a view must treat b as read-only for as long as the
// result is in use.
func Float64s(b []byte) []float64 {
	if v, ok := viewOf[float64](b); ok {
		return v
	}
	return float64sPortable(b)
}

// Int64s is Float64s for two's-complement words.
func Int64s(b []byte) []int64 {
	if v, ok := viewOf[int64](b); ok {
		return v
	}
	return int64sPortable(b)
}

// Float64Frame allocates one buffer of header bytes followed by n doubles and
// returns it with the doubles. On a little-endian host the storage is
// allocated as words and the header is packed against the front of the first
// payload word, so words is frame[header:] itself — aligned by construction,
// no padding in the frame — and filling words fills the frame. On any other
// host words is separate storage. Either way the caller finishes with
// PutFloat64s(frame[header:], words).
func Float64Frame(header, n int) (frame []byte, words []float64) {
	if !hostLittleEndian {
		return make([]byte, header+8*n), make([]float64, n)
	}
	lead := (header + 7) / 8 // words the header occupies, the first one partly
	store := make([]float64, lead+n)
	return bytesOf(store)[lead*8-header:], store[lead:]
}

// Float64FrameIn is Float64Frame inside a buffer the caller already has:
// it skips the 0-7 leading bytes of buf that put the first payload word on
// an 8-byte boundary, and returns the frame of header bytes and n doubles
// that follows them, with words as frame[header:] itself. Nothing is
// cleared: the frame holds whatever buf held. It reports false, and places
// nothing, when buf is too short for that or the host is not
// little-endian.
func Float64FrameIn(buf []byte, header, n int) (frame []byte, words []float64, ok bool) {
	if !hostLittleEndian {
		return nil, nil, false
	}
	skip := int(-(uintptr(unsafe.Pointer(unsafe.SliceData(buf))) + uintptr(header)) & 7)
	end := skip + header + 8*n
	if end > len(buf) {
		return nil, nil, false
	}
	frame, words = buf[skip:end:end], []float64{}
	if n > 0 {
		words, _ = viewOf[float64](frame[header:])
	}
	return frame, words, true
}

// PutFloat64s writes v over dst[:8*len(v)] as little-endian IEEE-754 doubles.
// When dst already is v's memory (a Float64Frame on a little-endian host)
// there is nothing to do.
func PutFloat64s(dst []byte, v []float64) {
	if len(v) == 0 {
		return
	}
	if !hostLittleEndian {
		putFloat64sPortable(dst, v)
		return
	}
	if src := bytesOf(v); &src[0] != &dst[0] {
		copy(dst[:len(src)], src)
	}
}

func putFloat64sPortable(dst []byte, v []float64) {
	for i, x := range v {
		binary.LittleEndian.PutUint64(dst[i*8:], math.Float64bits(x))
	}
}

func appendFloat64sPortable(b []byte, v []float64) []byte {
	for _, x := range v {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
	}
	return b
}

func appendInt64sPortable(b []byte, v []int64) []byte {
	for _, x := range v {
		b = binary.LittleEndian.AppendUint64(b, uint64(x))
	}
	return b
}

func float64sPortable(b []byte) []float64 {
	out := make([]float64, len(b)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return out
}

func int64sPortable(b []byte) []int64 {
	out := make([]int64, len(b)/8)
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return out
}
