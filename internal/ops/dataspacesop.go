package ops

import (
	"fmt"
	"sync"

	"predata/internal/dataspaces"
	"predata/internal/staging"
)

// DataSpacesConfig configures a DataSpacesOperator.
type DataSpacesConfig struct {
	// Var names the [N, K] array variable holding particle rows.
	Var string
	// Space is the shared space to populate. All staging ranks share one
	// Space instance (its servers are internally sharded).
	Space *dataspaces.Space
	// Object is the space object name receiving the data.
	Object string
	// ValueCol is the attribute column stored as the cell value.
	ValueCol int
	// IDCol and RankCol are the label columns forming the 2D domain
	// coordinates (local id, writer rank) — the paper's
	// 2·10⁶ x 256 indexing domain.
	IDCol, RankCol int
}

// DataSpacesOperator implements the paper's Section IV-D integration:
// after particles are staged, it inserts them into the DataSpaces shared
// space, indexed by their (local id, writer rank) label, so concurrently
// running applications can issue geometric and aggregation queries while
// the simulation continues. The dump's timestep becomes the object
// version.
type DataSpacesOperator struct {
	cfg DataSpacesConfig

	mu       sync.Mutex
	inserted int64
}

// NewDataSpacesOperator validates the configuration and returns the
// operator.
func NewDataSpacesOperator(cfg DataSpacesConfig) (*DataSpacesOperator, error) {
	if cfg.Var == "" {
		return nil, fmt.Errorf("ops: dataspaces operator needs a variable name")
	}
	if cfg.Space == nil {
		return nil, fmt.Errorf("ops: dataspaces operator needs a space")
	}
	if cfg.Object == "" {
		return nil, fmt.Errorf("ops: dataspaces operator needs an object name")
	}
	if cfg.ValueCol < 0 || cfg.IDCol < 0 || cfg.RankCol < 0 {
		return nil, fmt.Errorf("ops: dataspaces operator columns must be >= 0")
	}
	return &DataSpacesOperator{cfg: cfg}, nil
}

// Name implements staging.Operator.
func (d *DataSpacesOperator) Name() string { return "dataspaces" }

// Initialize resets per-dump state.
func (d *DataSpacesOperator) Initialize(ctx *staging.Context, agg map[string]any) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.inserted = 0
	return nil
}

// Map inserts each particle row into the space at its label coordinate.
// Rows are grouped into per-writer strips (one contiguous id run per
// chunk) to amortize put() overhead.
func (d *DataSpacesOperator) Map(ctx *staging.Context, chunk *staging.Chunk) error {
	arr, rows, k, err := matrixVar(chunk, d.cfg.Var)
	if err != nil {
		return err
	}
	if d.cfg.ValueCol >= k || d.cfg.IDCol >= k || d.cfg.RankCol >= k {
		return fmt.Errorf("ops: dataspaces operator columns outside %d columns", k)
	}
	var n int64
	for r := 0; r < rows; r++ {
		row := arr.Float64[r*k : (r+1)*k]
		id := uint64(row[d.cfg.IDCol])
		rank := uint64(row[d.cfg.RankCol])
		err := d.cfg.Space.Put(d.cfg.Object, int(chunk.Timestep),
			[]uint64{id, rank}, []uint64{id + 1, rank + 1},
			[]float64{row[d.cfg.ValueCol]})
		if err != nil {
			return fmt.Errorf("ops: dataspaces put: %w", err)
		}
		n++
	}
	d.mu.Lock()
	d.inserted += n
	d.mu.Unlock()
	return nil
}

// Finalize publishes the insert count and the version: the dump's
// timestep, on a rank that mapped no chunk too.
func (d *DataSpacesOperator) Finalize(ctx *staging.Context) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	ctx.SetResult("inserted", d.inserted)
	ctx.SetResult("version", ctx.Step())
	return nil
}

var _ staging.Operator = (*DataSpacesOperator)(nil)
