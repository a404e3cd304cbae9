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
	// read-only, and valid until their file is dropped (pfs Remove, or a
	// Create over its name), which recycles the group. Intended for tests
	// and small runs.
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

// Initialize resets per-dump state. When the engine redoes a pass whose
// check failed, it drops the groups that pass reserved, uncommitted
// (bp.PG: an abandoned group costs only its memory).
func (o *ReorgOperator) Initialize(ctx *staging.Context, agg map[string]any) error {
	o.merged = make([]*ffs.Array, len(o.cfg.Vars))
	o.pgs = make([]*bp.PG, len(o.cfg.Vars))
	return nil
}

// VerifiesInReduce implements staging.VerifyingReducer: Reduce reads every
// payload byte of the arrays Map emits once, in the slab scatter, and folds
// each chunk's rows into its check right after scattering them.
func (o *ReorgOperator) VerifiesInReduce() {}

// Map emits each variable's partial chunk, as a view carrying its part of
// the chunk's check, under the variable's tag.
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
		view, err := ctx.View(chunk, arr)
		if err != nil {
			return fmt.Errorf("ops: variable %q: %w", name, err)
		}
		staging.Emit(ctx, o.varIdx[name], view)
	}
	return nil
}

// Reduce assembles one variable's contiguous global array from its
// partial chunks, once they are shown to tile it exactly: pairwise
// disjoint, and together as many elements as the array has. So every
// element is written, and a reserved group needs no clearing.
func (o *ReorgOperator) Reduce(ctx *staging.Context, tag int, values []*staging.View) error {
	name := o.cfg.Vars[tag]
	var global []uint64
	var covered uint64
	for i, v := range values {
		arr := v.Array
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
			if prev := w.Array; overlap(arr, prev) {
				return fmt.Errorf("ops: variable %q chunks at offsets %v and %v overlap",
					name, prev.Offsets, arr.Offsets)
			}
		}
		covered += arr.Elems()
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
	if n > 0 {
		if err := fillSlabs(ctx, merged.Float64, global, values, o.pgs[tag]); err != nil {
			return fmt.Errorf("ops: reorg output: %w", err)
		}
	}
	o.merged[tag] = merged
	return nil
}

// fillSlabs scatters the chunks in views into out, the global array of
// dims global (n > 0 elements), one slab at a time: a run of leading rows
// of at most one visited block (ffs.BlockRows). A chunk's rows inside a
// slab are one contiguous stretch of its payload, scattered by one call at
// offsets shifted to the slab and folded into the chunk's check through
// ctx right after, while they are in cache; across the slabs each chunk's
// rows come in payload order. When out lies in pg, each slab is folded
// into pg's checksum while it is still in cache. Each slab ends with a
// yield (yieldBlock).
func fillSlabs(ctx *staging.Context, out []float64, global []uint64, views []*staging.View, pg *bp.PG) error {
	per := uint64(len(out)) / global[0] // elements in a leading row
	step := uint64(ffs.BlockRows(int(per)))
	slab := slices.Clone(global)
	dims, offsets := make([]uint64, len(global)), make([]uint64, len(global))
	for g0 := uint64(0); g0 < global[0]; g0 += step {
		g1 := min(g0+step, global[0])
		slab[0] = g1 - g0
		for _, view := range views {
			arr := view.Array
			lo, hi := max(arr.Offsets[0], g0), min(arr.Offsets[0]+arr.Dims[0], g1)
			if lo >= hi {
				continue
			}
			src := arr.Elems() / arr.Dims[0] // elements in one of the chunk's rows
			copy(dims, arr.Dims)
			copy(offsets, arr.Offsets)
			dims[0], offsets[0] = hi-lo, lo-g0
			rows := arr.Float64[(lo-arr.Offsets[0])*src : (hi-arr.Offsets[0])*src]
			ffs.Scatter(out[g0*per:g1*per], slab, rows, dims, offsets)
			ctx.Fold(view, int(lo-arr.Offsets[0]), int(hi-arr.Offsets[0]))
		}
		if pg != nil {
			if err := pg.Fold(0, int(g0*per), int(g1*per)); err != nil {
				return err
			}
		}
		yieldBlock()
	}
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

var (
	_ staging.Reducer[*staging.View] = (*ReorgOperator)(nil)
	_ staging.VerifyingReducer       = (*ReorgOperator)(nil)
)
