// Package ops implements the PreDatA operators evaluated in the paper:
//
//   - SortOperator: global sort of particle rows by their label
//     (communication-intensive, all-to-all dominated) — GTC task 1;
//   - HistogramOperator: histograms over particle attributes
//     (computation-dominant) — GTC task 3. NewHistogramOperator bins
//     selected columns in 1D; NewHistogram2DOperator bins attribute pairs
//     in 2D, for parallel-coordinate visualization;
//   - ReorgOperator: array-layout reorganization merging partial chunks of
//     global arrays into contiguous ones — the Pixie3D operation;
//   - BitmapIndexOperator: builds a compressed bitmap index over particle
//     attributes to accelerate range queries — GTC task 2.
//
// Each operator plugs into the staging engine (package staging) and is
// written against the chunk schema the predata compute client produces.
//
// Sort and reorg compute their output straight into a process group
// reserved from their bp.Writer (bp.ReservePG, filled and checksummed block
// by block in Reduce, committed in Finalize), so the bytes they write exist
// once on the staging side; a KeepResult array is a read-only view of the
// committed group, valid until its file is dropped (pfs Remove, or a Create
// over its name), which hands the group's buffer to the next one. Operators
// that write several chunks write them in a fixed order — reorg in Vars
// order, the histograms by ascending column or pair — so one input gives
// byte-identical files.
package ops

import (
	"fmt"
	"math"
	"runtime"
	"slices"

	"predata/internal/ffs"
	"predata/internal/staging"
)

// yieldBlock ends each output block of a Reduce kernel (fillSlabs,
// gather). Staging ranks are goroutines on GOMAXPROCS Ps, and the last rank
// into a shuffle readies its peers onto its own P, where they would wait
// out its whole Reduce: yielding after every block, at most
// ffs.VisitBlockBytes of output, lets a readied peer run within one block
// (DESIGN.md §5, "Ranks share the box").
func yieldBlock() { runtime.Gosched() }

// matrixVar extracts a [rows, cols] float64 array variable from a chunk.
func matrixVar(chunk *staging.Chunk, name string) (*ffs.Array, int, int, error) {
	v, ok := chunk.Record[name]
	if !ok {
		return nil, 0, 0, fmt.Errorf("ops: chunk from rank %d has no variable %q", chunk.WriterRank, name)
	}
	arr, ok := v.(*ffs.Array)
	if !ok {
		return nil, 0, 0, fmt.Errorf("ops: variable %q is %T, want *ffs.Array", name, v)
	}
	if len(arr.Dims) != 2 {
		return nil, 0, 0, fmt.Errorf("ops: variable %q has rank %d, want 2", name, len(arr.Dims))
	}
	if arr.Float64 == nil {
		return nil, 0, 0, fmt.Errorf("ops: variable %q is not a float64 array", name)
	}
	return arr, int(arr.Dims[0]), int(arr.Dims[1]), nil
}

// checkBinned validates what a binning operator (the histograms, the
// bitmap index) is given: a variable, at least one bin, and at least one
// group of dim columns, none negative and none repeated — a repeated group
// would be counted twice and written twice under one name.
func checkBinned(what, v string, bins int, cols []int, dim int) error {
	if v == "" {
		return fmt.Errorf("ops: %s needs a variable name", what)
	}
	if bins < 1 {
		return fmt.Errorf("ops: %s bins %d must be >= 1", what, bins)
	}
	if len(cols) == 0 {
		return fmt.Errorf("ops: %s needs at least one column", what)
	}
	seen := make(map[[2]int]bool, len(cols))
	for i := 0; i < len(cols); i += dim {
		g := cols[i : i+dim]
		if slices.Min(g) < 0 {
			return fmt.Errorf("ops: %s columns %v: negative column", what, g)
		}
		key := [2]int{g[0], g[dim-1]}
		if seen[key] {
			return fmt.Errorf("ops: %s columns %v repeated", what, g)
		}
		seen[key] = true
	}
	return nil
}

// binRanges resolves each column's binning range, the rule the histograms
// and the bitmap index share: the static range, [0, 1] when absent; with
// aggRanges, each finite aggregate bound in its place (rangeFromAgg); and
// an empty range widened to [lo, lo+1].
func binRanges(cols []int, static map[int][2]float64, aggRanges bool, agg map[string]any) map[int][2]float64 {
	if !aggRanges {
		agg = nil
	}
	out := make(map[int][2]float64, len(cols))
	for _, c := range cols {
		r, ok := static[c]
		if !ok {
			r = [2]float64{0, 1}
		}
		r = rangeFromAgg(agg, c, r)
		if r[1] <= r[0] {
			r[1] = r[0] + 1
		}
		out[c] = r
	}
	return out
}

// rangeFromAgg reads a [2]float64 range for a column from the aggregate
// map under keys "min:<col>" and "max:<col>" (as produced by
// MinMaxAggregate), falling back to the provided static range for a bound
// that is absent, infinite or NaN: a dump whose writers wrote no rows
// aggregates to [+Inf, -Inf], and one -Inf in a column would otherwise
// put every value in the first bin.
func rangeFromAgg(agg map[string]any, col int, static [2]float64) [2]float64 {
	r := static
	if lo, ok := agg[fmt.Sprintf("min:%d", col)].(float64); ok && math.Abs(lo) <= math.MaxFloat64 {
		r[0] = lo
	}
	if hi, ok := agg[fmt.Sprintf("max:%d", col)].(float64); ok && math.Abs(hi) <= math.MaxFloat64 {
		r[1] = hi
	}
	return r
}
