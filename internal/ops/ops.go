// Package ops implements the PreDatA operators evaluated in the paper:
//
//   - SortOperator: global sort of particle rows by their label
//     (communication-intensive, all-to-all dominated) — GTC task 1;
//   - HistogramOperator: 1D histograms over selected particle attributes
//     (computation-dominant) — GTC task 3;
//   - Histogram2DOperator: 2D histograms over attribute pairs, for
//     parallel-coordinate visualization — GTC task 3;
//   - ReorgOperator: array-layout reorganization merging partial chunks of
//     global arrays into contiguous ones — the Pixie3D operation;
//   - BitmapIndexOperator: builds a compressed bitmap index over particle
//     attributes to accelerate range queries — GTC task 2.
//
// Each operator plugs into the staging engine (package staging) and is
// written against the chunk schema the predata compute client produces.
//
// Sort and reorg compute their output straight into a process group
// reserved from their bp.Writer (bp.ReservePG, filled in Reduce, committed
// in Finalize), so the bytes they write exist once on the staging side;
// a KeepResult array is a read-only view of the committed group. Operators
// that write several chunks write them in a fixed order — reorg in Vars
// order, the histograms by ascending column or pair — so one input gives
// byte-identical files.
package ops

import (
	"fmt"

	"predata/internal/ffs"
	"predata/internal/staging"
)

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

// rangeFromAgg reads a [2]float64 range for a column from the aggregate
// map under keys "min:<col>" and "max:<col>" (as produced by
// MinMaxAggregate), falling back to the provided static range.
func rangeFromAgg(agg map[string]any, col int, static [2]float64) [2]float64 {
	r := static
	if agg == nil {
		return r
	}
	if lo, ok := agg[fmt.Sprintf("min:%d", col)].(float64); ok {
		r[0] = lo
	}
	if hi, ok := agg[fmt.Sprintf("max:%d", col)].(float64); ok {
		r[1] = hi
	}
	return r
}
