package wire

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

func samples(n int) ([]float64, []int64) {
	rng := rand.New(rand.NewSource(int64(n)))
	f := make([]float64, n)
	i := make([]int64, n)
	for k := range f {
		f[k] = rng.NormFloat64()
		i[k] = rng.Int63() - rng.Int63()
	}
	if n > 3 {
		f[0], f[1], f[2], f[3] = math.Inf(1), math.Inf(-1), math.NaN(), math.Copysign(0, -1)
		i[0], i[1] = math.MinInt64, math.MaxInt64
	}
	return f, i
}

// TestBulkMatchesPortable: the bulk encoders write, and the views read, the
// bytes the portable element loops define — NaN payloads and signed zeros
// included, which is why floats are compared as bits.
func TestBulkMatchesPortable(t *testing.T) {
	for _, n := range []int{0, 1, 7, 64, 1000} {
		f, i := samples(n)
		prefix := []byte("hdr")
		fb := AppendFloat64s(append([]byte(nil), prefix...), f)
		if want := appendFloat64sPortable(append([]byte(nil), prefix...), f); !bytes.Equal(fb, want) {
			t.Fatalf("n=%d: AppendFloat64s differs from the portable encoding", n)
		}
		ib := AppendInt64s(append([]byte(nil), prefix...), i)
		if want := appendInt64sPortable(append([]byte(nil), prefix...), i); !bytes.Equal(ib, want) {
			t.Fatalf("n=%d: AppendInt64s differs from the portable encoding", n)
		}

		// Decode the same words from an aligned and from an odd address.
		words := make([]byte, 8*n+1)
		for _, off := range []int{0, 1} {
			in := words[off : off+8*n]
			copy(in, fb[len(prefix):])
			got, want := Float64s(in), float64sPortable(in)
			if len(got) != n || got == nil {
				t.Fatalf("n=%d off=%d: Float64s returned %d elements (nil %v)", n, off, len(got), got == nil)
			}
			for k := range want {
				if math.Float64bits(got[k]) != math.Float64bits(want[k]) || math.Float64bits(got[k]) != math.Float64bits(f[k]) {
					t.Fatalf("n=%d off=%d: float64 %d decoded %x, portable %x, encoded %x", n, off, k,
						math.Float64bits(got[k]), math.Float64bits(want[k]), math.Float64bits(f[k]))
				}
			}
			copy(in, ib[len(prefix):])
			gi := Int64s(in)
			if len(gi) != n || gi == nil || (n > 0 && !reflect.DeepEqual(gi, int64sPortable(in))) || (n > 0 && !reflect.DeepEqual(gi, i)) {
				t.Fatalf("n=%d off=%d: Int64s decoded %v, want %v", n, off, gi, i)
			}
		}
	}
}

// TestViewOnlyWhenAligned: a view shares the input's memory and stops at
// its end; a misaligned input is converted into fresh memory instead.
func TestViewOnlyWhenAligned(t *testing.T) {
	words := make([]byte, 8*4+1)
	base := reflect.ValueOf(words).Pointer()
	if base%8 != 0 {
		t.Skipf("allocator returned a misaligned buffer at %#x", base)
	}
	aligned, odd := Float64s(words[:32]), Float64s(words[1:33])
	if got := reflect.ValueOf(aligned).Pointer(); hostLittleEndian && got != base {
		t.Errorf("aligned input decoded into a copy at %#x, want a view at %#x", got, base)
	}
	if cap(aligned) != 4 {
		t.Errorf("view capacity %d reaches past its 4 elements", cap(aligned))
	}
	if got := reflect.ValueOf(odd).Pointer(); got >= base && got < base+uintptr(len(words)) {
		t.Errorf("misaligned input decoded as a view at %#x", got)
	}
	if ints := Int64s(words[:32]); hostLittleEndian && reflect.ValueOf(ints).Pointer() != base {
		t.Error("aligned int64 input decoded into a copy")
	}
}

// TestFloat64FrameIsItsWords: filling the words of a frame fills the frame —
// header packed against the payload at every header length modulo 8, no
// padding — and on a host that cannot share the memory PutFloat64s encodes
// the same bytes.
func TestFloat64FrameIsItsWords(t *testing.T) {
	defer func(le bool) { hostLittleEndian = le }(hostLittleEndian)
	for _, le := range []bool{hostLittleEndian, false} {
		hostLittleEndian = le
		for header := 0; header <= 17; header++ {
			for _, n := range []int{0, 1, 5} {
				f, _ := samples(n)
				frame, words := Float64Frame(header, n)
				if len(frame) != header+8*n || len(words) != n {
					t.Fatalf("header %d n %d: frame of %d bytes, %d words", header, n, len(frame), len(words))
				}
				for i := range frame[:header] {
					frame[i] = byte(i + 1)
				}
				copy(words, f)
				PutFloat64s(frame[header:], words)
				want := make([]byte, header)
				for i := range want {
					want[i] = byte(i + 1)
				}
				if want = appendFloat64sPortable(want, f); !bytes.Equal(frame, want) {
					t.Fatalf("little-endian %v header %d n %d: frame % x, want % x", le, header, n, frame, want)
				}
				shared := n > 0 && reflect.ValueOf(words).Pointer() == reflect.ValueOf(frame[header:]).Pointer()
				if n > 0 && shared != le {
					t.Errorf("little-endian %v header %d: words share the frame's memory: %v", le, header, shared)
				}
			}
		}
	}
	// Encoding into a buffer that is not the words' own memory copies.
	f, _ := samples(9)
	dst := make([]byte, 8*len(f))
	PutFloat64s(dst, f)
	if !bytes.Equal(dst, appendFloat64sPortable(nil, f)) {
		t.Error("PutFloat64s into separate memory differs from the portable encoding")
	}
}

// TestFloat64FrameInReusesTheBuffer: a frame placed inside a buffer that
// ends on a word boundary — every Float64Frame does — fits whenever the
// buffer is long enough, whatever header the buffer was laid out for. It
// lies inside the buffer, its words are its own aligned memory, and the
// bytes it holds are the buffer's, not cleared. A host that cannot share
// the memory places nothing.
func TestFloat64FrameInReusesTheBuffer(t *testing.T) {
	defer func(le bool) { hostLittleEndian = le }(hostLittleEndian)
	for old := 0; old <= 9; old++ {
		for header := 0; header <= 17; header++ {
			for _, n := range []int{0, 1, 5} {
				buf, _ := Float64Frame(old, 6)
				for i := range buf {
					buf[i] = 0xA5
				}
				hostLittleEndian = false
				if _, _, ok := Float64FrameIn(buf, header, n); ok {
					t.Fatal("a big-endian host placed a frame inside a buffer")
				}
				hostLittleEndian = true
				frame, words, ok := Float64FrameIn(buf, header, n)
				if ok != (header+8*n <= len(buf)) {
					t.Fatalf("buffer of %d bytes (header %d) for header %d n %d: placed %v", len(buf), old, header, n, ok)
				}
				if !ok {
					continue
				}
				start := reflect.ValueOf(frame).Pointer() - reflect.ValueOf(buf).Pointer()
				if len(frame) != header+8*n || len(words) != n || start > 7 || int(start)+len(frame) > len(buf) {
					t.Fatalf("header %d n %d: frame of %d bytes at %d in a %d-byte buffer, %d words", header, n, len(frame), start, len(buf), len(words))
				}
				if n > 0 && (reflect.ValueOf(words).Pointer() != reflect.ValueOf(frame[header:]).Pointer() || reflect.ValueOf(words).Pointer()%8 != 0) {
					t.Fatalf("header %d n %d: words are not the frame's aligned payload", header, n)
				}
				if !bytes.Equal(frame, bytes.Repeat([]byte{0xA5}, len(frame))) {
					t.Fatalf("header %d n %d: the frame does not hold the buffer's bytes", header, n)
				}
			}
		}
	}
}
