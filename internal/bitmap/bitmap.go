// Package bitmap implements word-aligned hybrid (WAH) compressed bitmaps
// and binned bitmap indexes over floating-point attributes, the technique
// the paper adopts (via Sinha & Winslett) for GTC's range queries: instead
// of scanning the whole particle array, a query ORs the bitmaps of the
// bins overlapping the range and re-checks only the particles in the
// boundary bins.
package bitmap

import (
	"fmt"
	"math/bits"
)

// Word layout: a literal word has its top bit clear and carries groupBits
// payload bits. A fill word has its top bit set, bit 62 carries the fill
// value, and the low 62 bits count how many groupBits-sized groups the
// fill spans.
const (
	groupBits = 63
	fillFlag  = uint64(1) << 63
	fillValue = uint64(1) << 62
	countMask = fillValue - 1
)

// Bitmap is an immutable WAH-compressed bitmap over a fixed number of bits.
type Bitmap struct {
	words []uint64
	nbits uint64
}

// Builder constructs a Bitmap by appending set-bit positions in strictly
// increasing order. Bits [0, nbits) are flushed into words; the group
// being filled covers [nbits, nbits+groupBits).
type Builder struct {
	words   []uint64
	current uint64 // literal group being filled
	nbits   uint64 // bits flushed so far
	lastSet int64
}

// NewBuilder returns an empty builder.
func NewBuilder() *Builder { return &Builder{lastSet: -1} }

// flushGroup appends the current full group, merging into fills.
func (b *Builder) flushGroup() {
	g := b.current
	b.current = 0
	switch g {
	case 0:
		b.appendFill(0, 1)
	case (uint64(1) << groupBits) - 1:
		b.appendFill(1, 1)
	default:
		b.words = append(b.words, g)
	}
}

func (b *Builder) appendFill(val uint64, n uint64) {
	if len(b.words) > 0 {
		last := b.words[len(b.words)-1]
		if last&fillFlag != 0 {
			lastVal := uint64(0)
			if last&fillValue != 0 {
				lastVal = 1
			}
			if lastVal == val && last&countMask+n <= countMask {
				b.words[len(b.words)-1] = last + n
				return
			}
		}
	}
	w := fillFlag | n
	if val == 1 {
		w |= fillValue
	}
	b.words = append(b.words, w)
}

// Set appends a set bit at position pos; positions must strictly increase.
func (b *Builder) Set(pos uint64) error {
	if int64(pos) <= b.lastSet {
		return fmt.Errorf("bitmap: Set(%d) after %d; positions must strictly increase", pos, b.lastSet)
	}
	b.lastSet = int64(pos)
	// Flush whole groups until pos falls inside the current one.
	for pos >= b.nbits+groupBits {
		b.flushGroup()
		b.nbits += groupBits
	}
	b.current |= uint64(1) << (pos - b.nbits)
	return nil
}

// Finish fixes the total bit count and returns the bitmap. n must be
// greater than the last set position.
func (b *Builder) Finish(n uint64) (*Bitmap, error) {
	if int64(n) <= b.lastSet {
		return nil, fmt.Errorf("bitmap: Finish(%d) with bit %d set", n, b.lastSet)
	}
	// Pad with zero groups to n bits.
	for b.nbits+groupBits <= n {
		b.flushGroup()
		b.nbits += groupBits
	}
	if n > b.nbits {
		// Partial final group, stored as a literal.
		b.words = append(b.words, b.current)
		b.current = 0
		b.nbits = n
	}
	bm := &Bitmap{words: b.words, nbits: n}
	b.words = nil
	return bm, nil
}

// FromIndices builds an n-bit bitmap with the given strictly-increasing
// set positions.
func FromIndices(n uint64, idx []uint64) (*Bitmap, error) {
	b := NewBuilder()
	for _, i := range idx {
		if i >= n {
			return nil, fmt.Errorf("bitmap: index %d outside %d bits", i, n)
		}
		if err := b.Set(i); err != nil {
			return nil, err
		}
	}
	return b.Finish(n)
}

// Bits returns the bitmap's length in bits.
func (bm *Bitmap) Bits() uint64 { return bm.nbits }

// Words returns the compressed size in 64-bit words.
func (bm *Bitmap) Words() int { return len(bm.words) }

// runIter iterates a bitmap as a sequence of literal groups.
type runIter struct {
	words []uint64
	pos   int
	// pending fill
	fillLeft uint64
	fillVal  uint64
}

func (it *runIter) next() (group uint64, ok bool) {
	if it.fillLeft > 0 {
		it.fillLeft--
		return it.fillVal, true
	}
	if it.pos >= len(it.words) {
		return 0, false
	}
	w := it.words[it.pos]
	it.pos++
	if w&fillFlag == 0 {
		return w, true
	}
	n := w & countMask
	val := uint64(0)
	if w&fillValue != 0 {
		val = (uint64(1) << groupBits) - 1
	}
	it.fillLeft = n - 1
	it.fillVal = val
	return val, true
}

// Or returns the union of two equal-length bitmaps, combined group-wise.
func (bm *Bitmap) Or(o *Bitmap) (*Bitmap, error) {
	if bm.nbits != o.nbits {
		return nil, fmt.Errorf("bitmap: length mismatch %d vs %d", bm.nbits, o.nbits)
	}
	ita := &runIter{words: bm.words}
	itb := &runIter{words: o.words}
	out := &Builder{lastSet: -1}
	var produced uint64
	for produced < bm.nbits {
		ga, oka := ita.next()
		gb, okb := itb.next()
		if !oka || !okb {
			return nil, fmt.Errorf("bitmap: internal: ran out of groups at bit %d of %d", produced, bm.nbits)
		}
		g := ga | gb
		if produced+groupBits <= bm.nbits {
			out.current = g
			out.flushGroup()
			out.nbits += groupBits
			produced += groupBits
		} else {
			// Final partial group.
			width := bm.nbits - produced
			g &= (uint64(1) << width) - 1
			out.words = append(out.words, g)
			out.nbits += width
			produced += width
		}
	}
	return &Bitmap{words: out.words, nbits: bm.nbits}, nil
}

// Count returns the number of set bits. Fill words are counted wholesale,
// so counting is proportional to the compressed size.
func (bm *Bitmap) Count() uint64 {
	var n uint64
	for _, w := range bm.words {
		if w&fillFlag != 0 {
			if w&fillValue != 0 {
				n += (w & countMask) * groupBits
			}
		} else {
			n += uint64(bits.OnesCount64(w))
		}
	}
	return n
}

// Indices returns the positions of all set bits, ascending.
func (bm *Bitmap) Indices() []uint64 {
	var out []uint64
	it := &runIter{words: bm.words}
	var base uint64
	for base < bm.nbits {
		g, ok := it.next()
		if !ok {
			break
		}
		for g != 0 {
			tz := uint64(bits.TrailingZeros64(g))
			pos := base + tz
			if pos < bm.nbits {
				out = append(out, pos)
			}
			g &= g - 1
		}
		base += groupBits
	}
	return out
}

// Get reports whether bit pos is set.
func (bm *Bitmap) Get(pos uint64) (bool, error) {
	if pos >= bm.nbits {
		return false, fmt.Errorf("bitmap: Get(%d) outside %d bits", pos, bm.nbits)
	}
	it := &runIter{words: bm.words}
	var base uint64
	for {
		g, ok := it.next()
		if !ok {
			return false, fmt.Errorf("bitmap: internal: ran out of groups at %d", base)
		}
		if pos < base+groupBits {
			return g&(uint64(1)<<(pos-base)) != 0, nil
		}
		base += groupBits
	}
}
