package ops

import (
	"fmt"
	"slices"
	"sync"

	"predata/internal/bitmap"
	"predata/internal/bp"
	"predata/internal/ffs"
	"predata/internal/staging"
)

// HistogramConfig configures a HistogramOperator.
type HistogramConfig struct {
	// Var names the [N, K] array variable holding particle rows.
	Var string
	// Columns lists the attribute columns to histogram, one histogram per
	// column (GTC histograms every particle attribute for monitoring).
	Columns []int
	// Bins is the bin count of each histogram.
	Bins int
	// Ranges gives the static [lo, hi] per column. When AggRanges is true,
	// ranges are refined from the aggregates (MinMaxAggregate keys).
	Ranges    map[int][2]float64
	AggRanges bool
	// Output, when non-nil, receives the finished histograms as a process
	// group at Finalize — the paper's "8 MB histogram files" whose write
	// variability perturbs the In-Compute-Node configuration.
	Output *bp.Writer
}

// HistogramOperator computes 1D histograms over particle attributes. It is
// computation-dominant: Map bins locally, the combiner collapses counts to
// one vector per column, and the shuffle moves only Bins counters per
// column. Tags are column positions, so histograms spread across staging
// ranks.
type HistogramOperator struct {
	cfg HistogramConfig

	mu     sync.Mutex
	ranges map[int][2]float64
	counts map[int][]int64 // column -> final counts (on the owning rank)
}

// NewHistogramOperator validates the configuration and returns the operator.
func NewHistogramOperator(cfg HistogramConfig) (*HistogramOperator, error) {
	if cfg.Var == "" {
		return nil, fmt.Errorf("ops: histogram needs a variable name")
	}
	if cfg.Bins < 1 {
		return nil, fmt.Errorf("ops: histogram bins %d must be >= 1", cfg.Bins)
	}
	if len(cfg.Columns) == 0 {
		return nil, fmt.Errorf("ops: histogram needs at least one column")
	}
	seen := map[int]bool{}
	for _, c := range cfg.Columns {
		if c < 0 {
			return nil, fmt.Errorf("ops: histogram column %d is negative", c)
		}
		if seen[c] {
			return nil, fmt.Errorf("ops: histogram column %d repeated", c)
		}
		seen[c] = true
	}
	return &HistogramOperator{cfg: cfg}, nil
}

// Optional implements staging.Optional: histograms are descriptive
// analytics the overload ladder may degrade to sampled input, unlike
// data-integrity operators (sorting, reorganization).
func (h *HistogramOperator) Optional() bool { return true }

// Name implements staging.Operator.
func (h *HistogramOperator) Name() string { return "histogram" }

// Initialize resolves binning ranges.
func (h *HistogramOperator) Initialize(ctx *staging.Context, agg map[string]any) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.ranges = make(map[int][2]float64, len(h.cfg.Columns))
	h.counts = make(map[int][]int64)
	for _, c := range h.cfg.Columns {
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
	return nil
}

// Map bins the chunk's rows locally and emits one count vector per column:
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
	cols, bins := h.cfg.Columns, h.cfg.Bins
	m := &histRows{ctx: ctx, data: arr.Float64, k: k, cols: cols,
		counts: make([][]int64, len(cols)), ranges: make([][2]float64, len(cols))}
	all := make([]int64, len(cols)*bins)
	for i, c := range cols {
		if c >= k {
			return nil, nil, fmt.Errorf("ops: histogram column %d outside %d columns", c, k)
		}
		m.counts[i], m.ranges[i] = all[i*bins:(i+1)*bins:(i+1)*bins], h.ranges[c]
	}
	return m, arr, nil
}

// histRows is one chunk's 1-D counts: tag i counts column cols[i].
type histRows struct {
	ctx    *staging.Context
	data   []float64 // the [rows, k] array, row-major
	k      int
	cols   []int
	counts [][]int64
	ranges [][2]float64
}

// MapRows bins rows [lo, hi) one column at a time: the block is in cache,
// so each column's pass costs no memory traffic, and the column's counts
// and range stay in registers across the loop.
func (m *histRows) MapRows(lo, hi int) {
	k := m.k
	block := m.data[lo*k : hi*k]
	for i, c := range m.cols {
		counts, r := m.counts[i], m.ranges[i]
		for j := c; j < len(block); j += k {
			counts[bitmap.Bin(block[j], r, len(counts))]++
		}
	}
}

// Emit emits one count vector per column.
func (m *histRows) Emit() {
	for tag, counts := range m.counts {
		m.ctx.Emit(tag, counts)
	}
}

// Combine sums the local count vectors per column before the shuffle.
func (h *HistogramOperator) Combine(tag int, values []any) ([]any, error) {
	if len(values) <= 1 {
		return values, nil
	}
	sum := make([]int64, h.cfg.Bins)
	for _, v := range values {
		counts, ok := v.([]int64)
		if !ok || len(counts) != h.cfg.Bins {
			return nil, fmt.Errorf("ops: histogram combine: bad value %T", v)
		}
		for i, n := range counts {
			sum[i] += n
		}
	}
	return []any{sum}, nil
}

// Reduce sums the per-rank count vectors of one column.
func (h *HistogramOperator) Reduce(ctx *staging.Context, tag int, values []any) error {
	if tag < 0 || tag >= len(h.cfg.Columns) {
		return fmt.Errorf("ops: histogram reduce got tag %d", tag)
	}
	sum := make([]int64, h.cfg.Bins)
	for _, v := range values {
		counts, ok := v.([]int64)
		if !ok || len(counts) != h.cfg.Bins {
			return fmt.Errorf("ops: histogram reduce: bad value %T", v)
		}
		for i, n := range counts {
			sum[i] += n
		}
	}
	h.mu.Lock()
	h.counts[h.cfg.Columns[tag]] = sum
	h.mu.Unlock()
	return nil
}

// Finalize publishes the histograms this rank owns and optionally writes
// them to the output file, by ascending column.
func (h *HistogramOperator) Finalize(ctx *staging.Context) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make(map[int][]int64, len(h.counts))
	cols := make([]int, 0, len(h.counts))
	for c := range h.counts {
		cols = append(cols, c)
	}
	slices.Sort(cols)
	var chunks []bp.VarChunk
	for _, c := range cols {
		counts := h.counts[c]
		out[c] = counts
		data := make([]float64, len(counts))
		for i, n := range counts {
			data[i] = float64(n)
		}
		chunks = append(chunks, bp.VarChunk{
			Name: fmt.Sprintf("%s_hist_col%d", h.cfg.Var, c),
			Dims: []uint64{uint64(len(data))},
			Data: data,
		})
	}
	ctx.SetResult("histograms", out)
	ranges := make(map[int][2]float64, len(h.ranges))
	for c, r := range h.ranges {
		ranges[c] = r
	}
	ctx.SetResult("ranges", ranges)
	if h.cfg.Output != nil && len(chunks) > 0 {
		d, err := h.cfg.Output.WritePG(ctx.Rank(), ctx.Step(), chunks)
		if err != nil {
			return fmt.Errorf("ops: histogram output: %w", err)
		}
		ctx.SetResult("write_modeled_seconds", d.Seconds())
	}
	return nil
}

var (
	_ staging.Operator    = (*HistogramOperator)(nil)
	_ staging.Combiner    = (*HistogramOperator)(nil)
	_ staging.BlockMapper = (*HistogramOperator)(nil)
)
