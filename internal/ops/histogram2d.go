package ops

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"predata/internal/bitmap"
	"predata/internal/bp"
	"predata/internal/ffs"
	"predata/internal/staging"
)

// Histogram2DConfig configures a Histogram2DOperator.
type Histogram2DConfig struct {
	// Var names the [N, K] array variable holding particle rows.
	Var string
	// Pairs lists the attribute column pairs to histogram jointly — the
	// inputs to parallel-coordinate visualization of GTC particles.
	Pairs [][2]int
	// Bins is the bin count per axis (each histogram is Bins x Bins).
	Bins int
	// Ranges gives the static [lo, hi] per column; AggRanges refines from
	// the aggregates.
	Ranges    map[int][2]float64
	AggRanges bool
	// Output, when non-nil, receives the finished matrices at Finalize.
	Output *bp.Writer
}

// Histogram2DOperator computes 2D histograms over attribute pairs. Its
// structure mirrors HistogramOperator with Bins² counters per pair, making
// both its computation and its shuffle volume proportionally heavier —
// the relationship the paper's Fig. 7(b,c) exhibits.
type Histogram2DOperator struct {
	cfg Histogram2DConfig

	mu     sync.Mutex
	ranges map[int][2]float64
	counts map[[2]int][]int64
}

// NewHistogram2DOperator validates the configuration and returns the
// operator.
func NewHistogram2DOperator(cfg Histogram2DConfig) (*Histogram2DOperator, error) {
	if cfg.Var == "" {
		return nil, fmt.Errorf("ops: 2D histogram needs a variable name")
	}
	if cfg.Bins < 1 {
		return nil, fmt.Errorf("ops: 2D histogram bins %d must be >= 1", cfg.Bins)
	}
	if len(cfg.Pairs) == 0 {
		return nil, fmt.Errorf("ops: 2D histogram needs at least one column pair")
	}
	seen := map[[2]int]bool{}
	for _, p := range cfg.Pairs {
		if p[0] < 0 || p[1] < 0 {
			return nil, fmt.Errorf("ops: 2D histogram pair %v has negative column", p)
		}
		if seen[p] {
			return nil, fmt.Errorf("ops: 2D histogram pair %v repeated", p)
		}
		seen[p] = true
	}
	return &Histogram2DOperator{cfg: cfg}, nil
}

// Optional implements staging.Optional: histograms are descriptive
// analytics the overload ladder may degrade to sampled input, unlike
// data-integrity operators (sorting, reorganization).
func (h *Histogram2DOperator) Optional() bool { return true }

// Name implements staging.Operator.
func (h *Histogram2DOperator) Name() string { return "histogram2d" }

// Initialize resolves binning ranges.
func (h *Histogram2DOperator) Initialize(ctx *staging.Context, agg map[string]any) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.ranges = make(map[int][2]float64)
	h.counts = make(map[[2]int][]int64)
	for _, p := range h.cfg.Pairs {
		for _, c := range [2]int{p[0], p[1]} {
			r, ok := h.cfg.Ranges[c]
			if !ok {
				r = [2]float64{0, 1}
			}
			if h.cfg.AggRanges {
				r = rangeFromAgg(agg, c, r)
			}
			if r[1] <= r[0] {
				r[1] = r[0] + 1
			}
			h.ranges[c] = r
		}
	}
	return nil
}

// Map bins the chunk's rows into one Bins x Bins matrix per pair: the
// block kernel of StartMap, run over the whole array.
func (h *Histogram2DOperator) Map(ctx *staging.Context, chunk *staging.Chunk) error {
	m, arr, err := h.startMap(ctx, chunk)
	if err != nil {
		return err
	}
	staging.MapInBlocks(m, arr)
	return nil
}

// StartMap implements staging.BlockMapper: the chunk's matrices, filled
// block by block.
func (h *Histogram2DOperator) StartMap(ctx *staging.Context, chunk *staging.Chunk) (staging.RowMapper, error) {
	m, _, err := h.startMap(ctx, chunk)
	return m, err
}

func (h *Histogram2DOperator) startMap(ctx *staging.Context, chunk *staging.Chunk) (*hist2DRows, *ffs.Array, error) {
	arr, _, k, err := matrixVar(chunk, h.cfg.Var)
	if err != nil {
		return nil, nil, err
	}
	pairs, bins := h.cfg.Pairs, h.cfg.Bins
	m := &hist2DRows{ctx: ctx, data: arr.Float64, k: k, bins: bins, pairs: pairs,
		counts: make([][]int64, len(pairs)), ranges: make([][2][2]float64, len(pairs))}
	cells := bins * bins
	all := make([]int64, len(pairs)*cells)
	for i, p := range pairs {
		if p[0] >= k || p[1] >= k {
			return nil, nil, fmt.Errorf("ops: 2D histogram pair %v outside %d columns", p, k)
		}
		m.counts[i] = all[i*cells : (i+1)*cells : (i+1)*cells]
		m.ranges[i] = [2][2]float64{h.ranges[p[0]], h.ranges[p[1]]}
	}
	return m, arr, nil
}

// hist2DRows is one chunk's matrices: tag i counts the pair pairs[i].
type hist2DRows struct {
	ctx    *staging.Context
	data   []float64 // the [rows, k] array, row-major
	k      int
	bins   int
	pairs  [][2]int
	counts [][]int64
	ranges [][2][2]float64
}

// MapRows bins rows [lo, hi) one pair at a time over the cached block.
func (m *hist2DRows) MapRows(lo, hi int) {
	k, bins := m.k, m.bins
	block := m.data[lo*k : hi*k]
	for i, p := range m.pairs {
		counts, rx, ry := m.counts[i], m.ranges[i][0], m.ranges[i][1]
		for j := 0; j < len(block); j += k {
			bx := bitmap.Bin(block[j+p[0]], rx, bins)
			by := bitmap.Bin(block[j+p[1]], ry, bins)
			counts[bx*bins+by]++
		}
	}
}

// Emit emits one matrix per pair.
func (m *hist2DRows) Emit() {
	for tag, counts := range m.counts {
		m.ctx.Emit(tag, counts)
	}
}

// Combine sums matrices bound for the same pair.
func (h *Histogram2DOperator) Combine(tag int, values []any) ([]any, error) {
	if len(values) <= 1 {
		return values, nil
	}
	sum := make([]int64, h.cfg.Bins*h.cfg.Bins)
	for _, v := range values {
		counts, ok := v.([]int64)
		if !ok || len(counts) != len(sum) {
			return nil, fmt.Errorf("ops: 2D histogram combine: bad value %T", v)
		}
		for i, n := range counts {
			sum[i] += n
		}
	}
	return []any{sum}, nil
}

// Reduce sums the per-rank matrices of one pair.
func (h *Histogram2DOperator) Reduce(ctx *staging.Context, tag int, values []any) error {
	if tag < 0 || tag >= len(h.cfg.Pairs) {
		return fmt.Errorf("ops: 2D histogram reduce got tag %d", tag)
	}
	sum := make([]int64, h.cfg.Bins*h.cfg.Bins)
	for _, v := range values {
		counts, ok := v.([]int64)
		if !ok || len(counts) != len(sum) {
			return fmt.Errorf("ops: 2D histogram reduce: bad value %T", v)
		}
		for i, n := range counts {
			sum[i] += n
		}
	}
	h.mu.Lock()
	h.counts[h.cfg.Pairs[tag]] = sum
	h.mu.Unlock()
	return nil
}

// Finalize publishes the matrices this rank owns and optionally writes
// them out, by ascending pair.
func (h *Histogram2DOperator) Finalize(ctx *staging.Context) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make(map[[2]int][]int64, len(h.counts))
	pairs := make([][2]int, 0, len(h.counts))
	for p := range h.counts {
		pairs = append(pairs, p)
	}
	slices.SortFunc(pairs, func(a, b [2]int) int { return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1])) })
	var chunks []bp.VarChunk
	for _, p := range pairs {
		counts := h.counts[p]
		out[p] = counts
		data := make([]float64, len(counts))
		for i, n := range counts {
			data[i] = float64(n)
		}
		chunks = append(chunks, bp.VarChunk{
			Name: fmt.Sprintf("%s_hist2d_%d_%d", h.cfg.Var, p[0], p[1]),
			Dims: []uint64{uint64(h.cfg.Bins), uint64(h.cfg.Bins)},
			Data: data,
		})
	}
	ctx.SetResult("histograms2d", out)
	if h.cfg.Output != nil && len(chunks) > 0 {
		d, err := h.cfg.Output.WritePG(ctx.Rank(), ctx.Step(), chunks)
		if err != nil {
			return fmt.Errorf("ops: 2D histogram output: %w", err)
		}
		ctx.SetResult("write_modeled_seconds", d.Seconds())
	}
	return nil
}

var (
	_ staging.Operator    = (*Histogram2DOperator)(nil)
	_ staging.Combiner    = (*Histogram2DOperator)(nil)
	_ staging.BlockMapper = (*Histogram2DOperator)(nil)
)
