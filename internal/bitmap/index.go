package bitmap

import (
	"fmt"
	"math"
)

// Index is a binned bitmap index over one float64 attribute: bin i holds a
// bitmap of the rows whose value falls in the i-th equal-width sub-range
// of [Range[0], Range[1]].
type Index struct {
	Bins    int
	Range   [2]float64
	N       uint64
	bitmaps []*Bitmap
}

// Bin maps x to one of bins equal-width bins over the range r, clamping
// to the edge bins: below the range (and NaN) to bin 0, at or above its
// top (and +Inf) to bin bins-1. It clamps as a float, before converting:
// an out-of-range float-to-int conversion is implementation-defined (on
// amd64 it gives math.MinInt64, which would land +Inf in bin 0).
func Bin(x float64, r [2]float64, bins int) int {
	b := float64(bins) * (x - r[0]) / (r[1] - r[0])
	if !(b > 0) {
		return 0
	}
	if b >= float64(bins) {
		return bins - 1
	}
	return int(b)
}

// binFor maps a value to its bin, clamping to the edge bins.
func (ix *Index) binFor(x float64) int { return Bin(x, ix.Range, ix.Bins) }

// BuildIndex builds a binned index over values.
func BuildIndex(values []float64, bins int, r [2]float64) (*Index, error) {
	if bins < 1 {
		return nil, fmt.Errorf("bitmap: index bins %d must be >= 1", bins)
	}
	if !(r[1] > r[0]) || math.IsNaN(r[0]) || math.IsNaN(r[1]) {
		return nil, fmt.Errorf("bitmap: index range %v must satisfy lo < hi", r)
	}
	ix := &Index{Bins: bins, Range: r, N: uint64(len(values))}
	builders := make([]*Builder, bins)
	for i := range builders {
		builders[i] = NewBuilder()
	}
	for row, x := range values {
		if err := builders[ix.binFor(x)].Set(uint64(row)); err != nil {
			return nil, err
		}
	}
	ix.bitmaps = make([]*Bitmap, bins)
	for i, b := range builders {
		bm, err := b.Finish(uint64(len(values)))
		if err != nil {
			return nil, err
		}
		ix.bitmaps[i] = bm
	}
	return ix, nil
}

// Bin returns the bitmap of one bin.
func (ix *Index) Bin(i int) (*Bitmap, error) {
	if i < 0 || i >= ix.Bins {
		return nil, fmt.Errorf("bitmap: bin %d outside [0,%d)", i, ix.Bins)
	}
	return ix.bitmaps[i], nil
}

// CompressedWords reports the total compressed size of the index in
// 64-bit words.
func (ix *Index) CompressedWords() int {
	var n int
	for _, b := range ix.bitmaps {
		n += b.Words()
	}
	return n
}

// RangeQuery describes a half-open value range [Lo, Hi) over the indexed
// attribute.
type RangeQuery struct {
	Lo, Hi float64
}

// Candidates returns a bitmap of the rows that *may* satisfy the query:
// the union of all bins overlapping [Lo, Hi). Rows in strictly interior
// bins are definite matches; rows in the two boundary bins require a
// re-check against the raw values.
func (ix *Index) Candidates(q RangeQuery) (*Bitmap, error) {
	if q.Hi <= q.Lo {
		return FromIndices(ix.N, nil)
	}
	first := ix.binFor(q.Lo)
	last := ix.binFor(math.Nextafter(q.Hi, math.Inf(-1)))
	out := ix.bitmaps[first]
	for b := first + 1; b <= last; b++ {
		var err error
		out, err = out.Or(ix.bitmaps[b])
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Query returns the exact row set satisfying [Lo, Hi): bitmap candidates
// plus a re-check of boundary-bin rows against values (the same slice the
// index was built from).
func (ix *Index) Query(values []float64, q RangeQuery) ([]uint64, error) {
	if uint64(len(values)) != ix.N {
		return nil, fmt.Errorf("bitmap: query values length %d, index built over %d", len(values), ix.N)
	}
	cand, err := ix.Candidates(q)
	if err != nil {
		return nil, err
	}
	rows := cand.Indices()
	out := rows[:0]
	for _, r := range rows {
		if values[r] >= q.Lo && values[r] < q.Hi {
			out = append(out, r)
		}
	}
	return out, nil
}
