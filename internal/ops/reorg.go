package ops

import (
	"fmt"
	"slices"
	"time"

	"predata/internal/bp"
	"predata/internal/ffs"
	"predata/internal/staging"
)

// ReorgConfig configures a ReorgOperator.
type ReorgConfig struct {
	// Vars lists the global-array variables to merge (Pixie3D's eight 3D
	// arrays). Each must appear in every chunk as *ffs.Array with Global
	// and Offsets set.
	Vars []string
	// Output, when non-nil, receives each merged contiguous global array
	// as one chunk in a process group of its own — producing the "merged"
	// BP layout whose read performance Fig. 11 measures.
	Output *bp.Writer
	// KeepResult stores the merged arrays in the dump result under the
	// variable names; with Output set they are the written groups' data,
	// read-only. Intended for tests and small runs.
	KeepResult bool
}

// ReorgOperator merges the scattered partial chunks of global arrays into
// larger contiguous arrays: the paper's Pixie3D array-layout
// reorganization. Map routes each variable's partial chunks to the staging
// rank owning that variable; Reduce checks that they tile the global array
// exactly and scatters them into it — straight into a reserved process
// group when the operator writes one, so the array exists exactly once;
// Finalize commits the groups in Vars order.
type ReorgOperator struct {
	cfg    ReorgConfig
	varIdx map[string]int

	// Per-dump state, reset by Initialize. The engine reduces one tag at a
	// time, so merged and pgs, indexed by tag (position in Vars), need no
	// lock.
	merged []*ffs.Array // nil where another rank owns the variable
	pgs    []*bp.PG     // the reserved group each merged array lies in, if writing
}

// NewReorgOperator validates the configuration and returns the operator.
func NewReorgOperator(cfg ReorgConfig) (*ReorgOperator, error) {
	if len(cfg.Vars) == 0 {
		return nil, fmt.Errorf("ops: reorg needs at least one variable")
	}
	idx := make(map[string]int, len(cfg.Vars))
	for i, v := range cfg.Vars {
		if v == "" {
			return nil, fmt.Errorf("ops: reorg variable %d has empty name", i)
		}
		if _, dup := idx[v]; dup {
			return nil, fmt.Errorf("ops: reorg variable %q repeated", v)
		}
		idx[v] = i
	}
	return &ReorgOperator{cfg: cfg, varIdx: idx}, nil
}

// Name implements staging.Operator.
func (o *ReorgOperator) Name() string { return "reorg" }

// Initialize resets per-dump state.
func (o *ReorgOperator) Initialize(ctx *staging.Context, agg map[string]any) error {
	o.merged = make([]*ffs.Array, len(o.cfg.Vars))
	o.pgs = make([]*bp.PG, len(o.cfg.Vars))
	return nil
}

// Map emits each variable's partial chunk under the variable's tag.
func (o *ReorgOperator) Map(ctx *staging.Context, chunk *staging.Chunk) error {
	for _, name := range o.cfg.Vars {
		v, ok := chunk.Record[name]
		if !ok {
			return fmt.Errorf("ops: chunk from rank %d missing variable %q", chunk.WriterRank, name)
		}
		arr, ok := v.(*ffs.Array)
		if !ok {
			return fmt.Errorf("ops: variable %q is %T, want *ffs.Array", name, v)
		}
		if arr.Global == nil {
			return fmt.Errorf("ops: variable %q is not a global array", name)
		}
		if arr.Float64 == nil {
			return fmt.Errorf("ops: variable %q is not a float64 array", name)
		}
		// Decode validated arrays it built, but a chunk need not come from
		// Decode, and Reduce scatters by these dims and offsets.
		if err := arr.Validate(); err != nil {
			return fmt.Errorf("ops: variable %q: %w", name, err)
		}
		ctx.Emit(o.varIdx[name], arr)
	}
	return nil
}

// Reduce assembles one variable's contiguous global array from its
// partial chunks, once they are shown to tile it exactly: pairwise
// disjoint, and together as many elements as the array has.
func (o *ReorgOperator) Reduce(ctx *staging.Context, tag int, values []any) error {
	if tag < 0 || tag >= len(o.cfg.Vars) {
		return fmt.Errorf("ops: reorg reduce got tag %d", tag)
	}
	name := o.cfg.Vars[tag]
	var global []uint64
	var covered uint64
	for i, v := range values {
		arr := v.(*ffs.Array)
		if global == nil {
			global = arr.Global
		} else if !slices.Equal(global, arr.Global) {
			return fmt.Errorf("ops: variable %q chunks disagree on global dims (%v vs %v)",
				name, global, arr.Global)
		}
		// Pairwise: O(k²) box tests for the k writers' chunks, negligible
		// beside the scatter at tens of writers; thousands would want a
		// sort-and-sweep instead.
		for _, w := range values[:i] {
			if prev := w.(*ffs.Array); overlap(arr, prev) {
				return fmt.Errorf("ops: variable %q chunks at offsets %v and %v overlap",
					name, prev.Offsets, arr.Offsets)
			}
		}
		covered += arr.Elems()
	}
	if global == nil {
		return nil
	}
	merged := &ffs.Array{Dims: global, Global: global, Offsets: make([]uint64, len(global))}
	n := merged.Elems()
	if covered != n {
		return fmt.Errorf("ops: variable %q chunks cover %d of %d elements", name, covered, n)
	}
	if o.cfg.Output == nil {
		merged.Float64 = make([]float64, n)
	} else {
		pg, err := o.cfg.Output.ReservePG(ctx.Rank(), ctx.Step(), []bp.VarChunk{{
			Name: name, Dims: global, Global: global, Offsets: merged.Offsets,
		}})
		if err != nil {
			return fmt.Errorf("ops: reorg output: %w", err)
		}
		o.pgs[tag], merged.Float64 = pg, pg.Chunks[0].Data
	}
	for _, v := range values {
		arr := v.(*ffs.Array)
		ffs.Scatter(merged.Float64, global, arr.Float64, arr.Dims, arr.Offsets)
	}
	o.merged[tag] = merged
	return nil
}

// Finalize publishes the merged arrays this rank owns and commits their
// process groups, both in Vars order.
func (o *ReorgOperator) Finalize(ctx *staging.Context) error {
	var names []string
	for tag, arr := range o.merged {
		if arr == nil {
			continue
		}
		names = append(names, o.cfg.Vars[tag])
		if o.cfg.KeepResult {
			// After Commit the array belongs to the file system; a result
			// holder may read it and nothing more.
			ctx.SetResult(o.cfg.Vars[tag], arr)
		}
	}
	ctx.SetResult("merged_vars", names)
	if o.cfg.Output == nil || names == nil {
		return nil
	}
	if err := o.cfg.Output.SetAttribute("layout", "merged contiguous global arrays"); err != nil {
		return fmt.Errorf("ops: reorg attribute: %w", err)
	}
	var modeled time.Duration
	for _, pg := range o.pgs {
		if pg == nil {
			continue
		}
		d, err := pg.Commit()
		if err != nil {
			return fmt.Errorf("ops: reorg output: %w", err)
		}
		modeled += d
	}
	ctx.SetResult("write_modeled_seconds", modeled.Seconds())
	return nil
}

// overlap reports whether two chunks' boxes share an element. A box with
// an empty dimension overlaps nothing.
func overlap(a, b *ffs.Array) bool {
	for d := range a.Dims {
		if max(a.Offsets[d], b.Offsets[d]) >= min(a.Offsets[d]+a.Dims[d], b.Offsets[d]+b.Dims[d]) {
			return false
		}
	}
	return true
}

var _ staging.Operator = (*ReorgOperator)(nil)
