package ops

import (
	"fmt"
	"maps"
	"slices"
	"sync"

	"predata/internal/bitmap"
	"predata/internal/bp"
	"predata/internal/ffs"
	"predata/internal/staging"
)

// HistogramConfig configures a 1-D HistogramOperator.
type HistogramConfig struct {
	// Var names the [N, K] array variable holding particle rows.
	Var string
	// Columns lists the attribute columns to histogram, one histogram per
	// column (GTC histograms every particle attribute for monitoring).
	Columns []int
	// Bins is the bin count of each histogram.
	Bins int
	// Ranges gives the static [lo, hi] per column, [0, 1] for a column it
	// omits. When AggRanges is true, each finite aggregate bound
	// (MinMaxAggregate's "min:<col>"/"max:<col>") replaces the static one;
	// an infinite or NaN bound — a dump with no rows, or a column holding
	// ±Inf — is ignored. A range that ends up empty (hi <= lo) widens to
	// [lo, lo+1]. Values outside the range count in the edge bins.
	Ranges    map[int][2]float64
	AggRanges bool
	// Output, when non-nil, receives the finished histograms as a process
	// group at Finalize — the paper's "8 MB histogram files" whose write
	// variability perturbs the In-Compute-Node configuration.
	Output *bp.Writer
}

// Histogram2DConfig configures a 2-D HistogramOperator.
type Histogram2DConfig struct {
	// Var names the [N, K] array variable holding particle rows.
	Var string
	// Pairs lists the attribute column pairs to histogram jointly — the
	// inputs to parallel-coordinate visualization of GTC particles.
	Pairs [][2]int
	// Bins is the bin count per axis (each histogram is Bins x Bins).
	Bins int
	// Ranges and AggRanges resolve each column's range as in
	// HistogramConfig.
	Ranges    map[int][2]float64
	AggRanges bool
	// Output, when non-nil, receives the finished matrices at Finalize.
	Output *bp.Writer
}

// HistogramOperator computes histograms over particle attributes: 1-D
// histograms of single columns (NewHistogramOperator) or Bins x Bins
// histograms of column pairs (NewHistogram2DOperator). It is
// computation-dominant: Map bins locally, the combiner collapses counts to
// one vector per tag, and the shuffle moves only the counters — Bins per
// column, Bins² per pair, the relationship the paper's Fig. 7(b,c)
// exhibits. Each tag bins one group of columns, so histograms spread
// across staging ranks.
type HistogramOperator struct {
	name string
	cfg  HistogramConfig // Columns holds the groups, dim columns per tag
	dim  int

	mu     sync.Mutex
	ranges map[int][2]float64
	counts map[int][]int64 // tag -> final counts (on the owning rank)
}

// NewHistogramOperator validates the configuration and returns an
// operator histogramming each column.
func NewHistogramOperator(cfg HistogramConfig) (*HistogramOperator, error) {
	return newHistogram("histogram", cfg, 1)
}

// NewHistogram2DOperator validates the configuration and returns an
// operator histogramming each pair jointly.
func NewHistogram2DOperator(cfg Histogram2DConfig) (*HistogramOperator, error) {
	cols := make([]int, 0, 2*len(cfg.Pairs))
	for _, p := range cfg.Pairs {
		cols = append(cols, p[0], p[1])
	}
	return newHistogram("histogram2d", HistogramConfig{Var: cfg.Var, Columns: cols, Bins: cfg.Bins,
		Ranges: cfg.Ranges, AggRanges: cfg.AggRanges, Output: cfg.Output}, 2)
}

func newHistogram(name string, cfg HistogramConfig, dim int) (*HistogramOperator, error) {
	if err := checkBinned(name, cfg.Var, cfg.Bins, cfg.Columns, dim); err != nil {
		return nil, err
	}
	return &HistogramOperator{name: name, cfg: cfg, dim: dim}, nil
}

// group returns the columns tag bins.
func (h *HistogramOperator) group(tag int) []int {
	return h.cfg.Columns[tag*h.dim : (tag+1)*h.dim]
}

// cells is the counter count of one tag's histogram.
func (h *HistogramOperator) cells() int {
	if h.dim == 2 {
		return h.cfg.Bins * h.cfg.Bins
	}
	return h.cfg.Bins
}

// Optional implements staging.Optional: histograms are descriptive
// analytics the overload ladder may degrade to sampled input, unlike
// data-integrity operators (sorting, reorganization).
func (h *HistogramOperator) Optional() bool { return true }

// Name implements staging.Operator.
func (h *HistogramOperator) Name() string { return h.name }

// Initialize resolves binning ranges.
func (h *HistogramOperator) Initialize(ctx *staging.Context, agg map[string]any) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.ranges = binRanges(h.cfg.Columns, h.cfg.Ranges, h.cfg.AggRanges, agg)
	h.counts = make(map[int][]int64)
	return nil
}

// Map bins the chunk's rows locally and emits one count vector per tag:
// the block kernel of StartMap, run over the whole array.
func (h *HistogramOperator) Map(ctx *staging.Context, chunk *staging.Chunk) error {
	m, arr, err := h.startMap(ctx, chunk)
	if err != nil {
		return err
	}
	staging.MapInBlocks(m, arr)
	return nil
}

// StartMap implements staging.BlockMapper: the chunk's counts, filled
// block by block.
func (h *HistogramOperator) StartMap(ctx *staging.Context, chunk *staging.Chunk) (staging.RowMapper, error) {
	m, _, err := h.startMap(ctx, chunk)
	return m, err
}

func (h *HistogramOperator) startMap(ctx *staging.Context, chunk *staging.Chunk) (*histRows, *ffs.Array, error) {
	arr, _, k, err := matrixVar(chunk, h.cfg.Var)
	if err != nil {
		return nil, nil, err
	}
	cols, cells := h.cfg.Columns, h.cells()
	m := &histRows{ctx: ctx, data: arr.Float64, k: k, bins: h.cfg.Bins, dim: h.dim, cols: cols,
		counts: make([][]int64, len(cols)/h.dim), ranges: make([][2]float64, len(cols))}
	all := make([]int64, len(m.counts)*cells)
	for i := range m.counts {
		m.counts[i] = all[i*cells : (i+1)*cells : (i+1)*cells]
	}
	for i, c := range cols {
		if c >= k {
			return nil, nil, fmt.Errorf("ops: %s column %d outside %d columns", h.name, c, k)
		}
		m.ranges[i] = h.ranges[c]
	}
	return m, arr, nil
}

// histRows is one chunk's counts: tag i bins the columns
// cols[i*dim:(i+1)*dim] over the matching ranges.
type histRows struct {
	ctx          *staging.Context
	data         []float64 // the [rows, k] array, row-major
	k, bins, dim int
	cols         []int
	counts       [][]int64
	ranges       [][2]float64
}

// MapRows bins rows [lo, hi) one tag at a time: the block is in cache, so
// each tag's pass costs no memory traffic, and the tag's counts and ranges
// stay in registers across the loop. The loop is chosen per tag, never per
// row.
func (m *histRows) MapRows(lo, hi int) {
	k, bins := m.k, m.bins
	block := m.data[lo*k : hi*k]
	for i, counts := range m.counts {
		if m.dim == 1 {
			c, r := m.cols[i], m.ranges[i]
			for j := c; j < len(block); j += k {
				counts[bitmap.Bin(block[j], r, bins)]++
			}
			continue
		}
		cx, cy, rx, ry := m.cols[2*i], m.cols[2*i+1], m.ranges[2*i], m.ranges[2*i+1]
		for j := 0; j < len(block); j += k {
			counts[bitmap.Bin(block[j+cx], rx, bins)*bins+bitmap.Bin(block[j+cy], ry, bins)]++
		}
	}
}

// Emit emits one count vector per tag.
func (m *histRows) Emit() {
	for tag, counts := range m.counts {
		staging.Emit(m.ctx, tag, counts)
	}
}

// sum adds up the count vectors of one tag.
func (h *HistogramOperator) sum(values [][]int64) []int64 {
	sum := make([]int64, h.cells())
	for _, counts := range values {
		for i, n := range counts {
			sum[i] += n
		}
	}
	return sum
}

// Combine sums the local count vectors per tag before the shuffle.
func (h *HistogramOperator) Combine(tag int, values [][]int64) ([][]int64, error) {
	if len(values) <= 1 {
		return values, nil
	}
	return [][]int64{h.sum(values)}, nil
}

// Reduce sums the per-rank count vectors of one tag.
func (h *HistogramOperator) Reduce(ctx *staging.Context, tag int, values [][]int64) error {
	h.mu.Lock()
	h.counts[tag] = h.sum(values)
	h.mu.Unlock()
	return nil
}

// Finalize publishes the histograms this rank owns and optionally writes
// them to the output file, by ascending column or pair.
func (h *HistogramOperator) Finalize(ctx *staging.Context) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	tags := make([]int, 0, len(h.counts))
	for tag := range h.counts {
		tags = append(tags, tag)
	}
	slices.SortFunc(tags, func(a, b int) int { return slices.Compare(h.group(a), h.group(b)) })
	hists, hists2d := make(map[int][]int64), make(map[[2]int][]int64)
	var chunks []bp.VarChunk
	for _, tag := range tags {
		g, counts := h.group(tag), h.counts[tag]
		data := make([]float64, len(counts))
		for i, n := range counts {
			data[i] = float64(n)
		}
		name, dims := fmt.Sprintf("%s_hist_col%d", h.cfg.Var, g[0]), []uint64{uint64(h.cfg.Bins)}
		if h.dim == 1 {
			hists[g[0]] = counts
		} else {
			hists2d[[2]int(g)] = counts
			name, dims = fmt.Sprintf("%s_hist2d_%d_%d", h.cfg.Var, g[0], g[1]), append(dims, uint64(h.cfg.Bins))
		}
		chunks = append(chunks, bp.VarChunk{Name: name, Dims: dims, Data: data})
	}
	if h.dim == 1 {
		ctx.SetResult("histograms", hists)
		ctx.SetResult("ranges", maps.Clone(h.ranges))
	} else {
		ctx.SetResult("histograms2d", hists2d)
	}
	if h.cfg.Output != nil && len(chunks) > 0 {
		d, err := h.cfg.Output.WritePG(ctx.Rank(), ctx.Step(), chunks)
		if err != nil {
			return fmt.Errorf("ops: %s output: %w", h.name, err)
		}
		ctx.SetResult("write_modeled_seconds", d.Seconds())
	}
	return nil
}

var (
	_ staging.Reducer[[]int64]  = (*HistogramOperator)(nil)
	_ staging.Combiner[[]int64] = (*HistogramOperator)(nil)
	_ staging.BlockMapper       = (*HistogramOperator)(nil)
)
