package ops

import (
	"fmt"
	"sync"

	"predata/internal/bitmap"
	"predata/internal/staging"
)

// BitmapIndexConfig configures a BitmapIndexOperator.
type BitmapIndexConfig struct {
	// Var names the [N, K] array variable holding particle rows.
	Var string
	// Columns lists the attribute columns to index (GTC range queries
	// filter on particle coordinates).
	Columns []int
	// Bins is the bin count of each index.
	Bins int
	// Each column bins over [0, 1]. When AggRanges is true, each finite
	// aggregate bound (MinMaxAggregate keys) replaces that default; an
	// infinite or NaN bound — a dump with no rows, or a column holding
	// ±Inf — is ignored. A range that ends up empty (hi <= lo) widens to
	// [lo, lo+1]. This is the histograms' rule with no static ranges.
	AggRanges bool
}

// BitmapIndexOperator builds binned WAH bitmap indexes over the particle
// rows each staging rank receives, merging all of the rank's chunks into
// one bulk-loaded row set first (the paper's "multiple array chunks are
// merged to speed up bulk loading"). Rows stay on the rank that pulled
// them — indexing needs no shuffle, so Map emits nothing and the operator
// has no Reduce — and Finalize publishes, per rank, the per-column indexes
// plus the column values needed for boundary-bin re-checks.
type BitmapIndexOperator struct {
	cfg BitmapIndexConfig

	mu     sync.Mutex
	ranges map[int][2]float64
	cols   map[int][]float64 // merged column values on this rank
	rows   int
}

// NewBitmapIndexOperator validates the configuration and returns the
// operator.
func NewBitmapIndexOperator(cfg BitmapIndexConfig) (*BitmapIndexOperator, error) {
	if err := checkBinned("bitmap index", cfg.Var, cfg.Bins, cfg.Columns, 1); err != nil {
		return nil, err
	}
	return &BitmapIndexOperator{cfg: cfg}, nil
}

// Name implements staging.Operator.
func (b *BitmapIndexOperator) Name() string { return "bitmapindex" }

// Initialize resolves ranges and resets per-dump state.
func (b *BitmapIndexOperator) Initialize(ctx *staging.Context, agg map[string]any) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.ranges = binRanges(b.cfg.Columns, nil, b.cfg.AggRanges, agg)
	b.cols = make(map[int][]float64, len(b.cfg.Columns))
	b.rows = 0
	return nil
}

// Map accumulates the chunk's column values locally (bulk loading).
func (b *BitmapIndexOperator) Map(ctx *staging.Context, chunk *staging.Chunk) error {
	arr, rows, k, err := matrixVar(chunk, b.cfg.Var)
	if err != nil {
		return err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, c := range b.cfg.Columns {
		if c >= k {
			return fmt.Errorf("ops: bitmap index column %d outside %d columns", c, k)
		}
		col := b.cols[c]
		for row := 0; row < rows; row++ {
			col = append(col, arr.Float64[row*k+c])
		}
		b.cols[c] = col
	}
	b.rows += rows
	return nil
}

// Finalize builds and publishes the indexes.
func (b *BitmapIndexOperator) Finalize(ctx *staging.Context) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	indexes := make(map[int]*bitmap.Index, len(b.cfg.Columns))
	for _, c := range b.cfg.Columns {
		ix, err := bitmap.BuildIndex(b.cols[c], b.cfg.Bins, b.ranges[c])
		if err != nil {
			return fmt.Errorf("ops: bitmap index column %d: %w", c, err)
		}
		indexes[c] = ix
	}
	ctx.SetResult("indexes", indexes)
	ctx.SetResult("columns", b.cols)
	ctx.SetResult("rows", int64(b.rows))
	return nil
}

var _ staging.Operator = (*BitmapIndexOperator)(nil)
