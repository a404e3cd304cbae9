package ops

import (
	"encoding/gob"
	"fmt"
	"math"

	"predata/internal/ffs"
	"predata/internal/predata"
)

// Partials ride inside FetchRequest's any-typed field, which the staging
// write-ahead journal persists with gob; the concrete type must be
// registered or a journaled request cannot round-trip a restart.
func init() {
	gob.Register(ColumnMinMax{})
}

// ColumnMinMax is the piggybacked partial result of MinMaxPartial: the
// local min and max of each requested column.
type ColumnMinMax struct {
	Cols []int
	Min  []float64
	Max  []float64
	Rows int
}

// Combine folds next, the partial of the rows that follow m's, into m:
// per column it keeps m's value on ties and never adopts a NaN, exactly as
// the one pass does, so folding the partials of consecutive row blocks in
// order gives the one pass's result bit for bit. It reuses m's storage.
func (m ColumnMinMax) Combine(next any) any {
	n := next.(ColumnMinMax)
	for i := range m.Min {
		if n.Min[i] < m.Min[i] {
			m.Min[i] = n.Min[i]
		}
		if n.Max[i] > m.Max[i] {
			m.Max[i] = n.Max[i]
		}
	}
	m.Rows += n.Rows
	return m
}

// MinMaxPartial returns a PartialCalculate hook computing the local
// min/max of the given columns of the [N, K] array variable varName —
// the paper's Stage-1a example ("calculating local min/max values of
// partial array chunks"). Its ColumnMinMax result is a predata.Combiner,
// so Client.Write runs it block by block inside the packing walk.
func MinMaxPartial(varName string, cols []int) predata.PartialFunc {
	return func(schema *ffs.Schema, rec ffs.Record) (any, error) {
		v, ok := rec[varName].(*ffs.Array)
		if !ok {
			return nil, fmt.Errorf("ops: record has no array variable %q", varName)
		}
		if err := v.Validate(); err != nil {
			return nil, fmt.Errorf("ops: variable %q: %w", varName, err)
		}
		if len(v.Dims) != 2 || v.Float64 == nil {
			return nil, fmt.Errorf("ops: variable %q is not a 2D float64 array", varName)
		}
		rows, k := int(v.Dims[0]), int(v.Dims[1])
		out := ColumnMinMax{
			Cols: append([]int(nil), cols...),
			Min:  make([]float64, len(cols)),
			Max:  make([]float64, len(cols)),
			Rows: rows,
		}
		for i := range out.Min {
			out.Min[i] = math.Inf(1)
			out.Max[i] = math.Inf(-1)
		}
		for _, c := range cols {
			if c < 0 || c >= k {
				return nil, fmt.Errorf("ops: column %d outside [0,%d)", c, k)
			}
		}
		// One pass over the chunk, in cache-sized blocks of whole rows: this
		// hook runs inside the application's visible write, and a pass per
		// column over the whole array would stream it from memory once for
		// each. Within a block (in cache) the loop is per column, with the
		// column's min and max in locals; per column the rows are still
		// seen in order, so ties keep the earlier value as one scan would.
		step := ffs.BlockRows(max(k, 1))
		for lo := 0; lo < rows; lo += step {
			block := v.Float64[lo*k : min(lo+step, rows)*k]
			for ci, c := range cols {
				mn, mx := out.Min[ci], out.Max[ci]
				for j := c; j < len(block); j += k {
					x := block[j]
					if x < mn {
						mn = x
					}
					if x > mx {
						mx = x
					}
				}
				out.Min[ci], out.Max[ci] = mn, mx
			}
		}
		return out, nil
	}
}

// MinMaxAggregate returns an Aggregate hook folding ColumnMinMax partials
// into global per-column ranges under keys "min:<col>"/"max:<col>", plus
// the total row count under "rows" and per-writer row counts under
// "rowsByRank" (a map[int]int) — the global knowledge Stage 2 produces.
func MinMaxAggregate() predata.AggregateFunc {
	return func(partials []predata.RankPartial) map[string]any {
		agg := make(map[string]any)
		var total int64
		byRank := make(map[int]int)
		for _, p := range partials {
			mm, ok := p.Partial.(ColumnMinMax)
			if !ok {
				continue
			}
			total += int64(mm.Rows)
			byRank[p.Rank] = mm.Rows
			for i, c := range mm.Cols {
				loKey := fmt.Sprintf("min:%d", c)
				hiKey := fmt.Sprintf("max:%d", c)
				if cur, ok := agg[loKey].(float64); !ok || mm.Min[i] < cur {
					agg[loKey] = mm.Min[i]
				}
				if cur, ok := agg[hiKey].(float64); !ok || mm.Max[i] > cur {
					agg[hiKey] = mm.Max[i]
				}
			}
		}
		agg["rows"] = total
		agg["rowsByRank"] = byRank
		return agg
	}
}
