// Package dataspaces implements the DataSpaces global data knowledge
// service integrated into PreDatA: a virtual, semantically-specialized
// shared space over the staging area that applications access with
// location-agnostic put/get operators on multi-dimensional regions.
//
// Services provided, following the paper's Section IV-D:
//
//   - data sharing and redistribution: put() a region from any
//     decomposition, get() any other region — the space reassembles it;
//   - data indexing: the domain is split into blocks linearized with a
//     Hilbert space-filling curve, so geometrically close blocks land on
//     the same server and region queries touch few servers;
//   - data querying: region gets, aggregation queries (min/max/avg/sum),
//     and continuous queries with notification when new data intersects a
//     registered region of interest;
//   - coherency: objects are immutable per (name, version); a per-object
//     reader/writer lock service coordinates concurrent frameworks;
//   - load balancing: block placement follows the SFC, spreading storage
//     evenly; Stats exposes the per-server occupancy for verification.
package dataspaces

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"sync"

	"predata/internal/hilbert"
)

// Domain describes the global discretization of the application data,
// e.g. a 2·10⁶ × 256 grid of (particle local id, writer rank) for GTC.
type Domain struct {
	// Dims are the global grid dimensions (1, 2, or 3 supported).
	Dims []uint64
	// BlockSize is the per-dimension block edge used for distribution;
	// zero selects a default that yields a few thousand blocks.
	BlockSize []uint64
}

// Config configures a Space.
type Config struct {
	// Servers is the number of staging cores serving the space.
	Servers int
	Domain  Domain
}

// vec is a point or an extent of the domain, padded in front to three
// dimensions (a missing outer dimension has extent 1). The innermost,
// contiguous dimension is then always index 2, and every walk below is
// the same three loops whatever the domain's rank.
type vec [3]uint64

// box is the region [lb, ub).
type box struct{ lb, ub vec }

// Space is the shared-space frontend. All methods are safe for concurrent
// use by any number of client goroutines.
type Space struct {
	cfg Config
	nd  int // the domain's own rank, before padding
	// dims is the domain, block the resolved block size and nblk the
	// blocks per dimension.
	dims, block, nblk vec
	curve2            *hilbert.Curve2D
	curve3            *hilbert.Curve3D

	// smu guards the servers slice: every public operation reads the
	// current shard layout under RLock; Resize swaps in a rehashed layout
	// under the write lock, so an operation never sees a half-moved
	// space.
	smu     sync.RWMutex
	servers []*server

	mu   sync.Mutex
	subs []*subscription
	// locks is the per-object reader/writer lock service.
	locks map[string]*objLock
}

// server is one shard of the space. Everything in it, the cells of its
// slabs included, is read and written only under mu: Put copies in, Get
// copies out, and no slab pointer outlives the lock it was found under.
// That is what makes handing an evicted slab to the next Put safe.
type server struct {
	mu sync.Mutex
	// objects maps (name, version, blockID) to the block's slab.
	objects map[objKey]*blockData
	// versions indexes the same slabs by (name, version): the head of the
	// version's blocks on this shard, chained through blockData.next, so
	// evicting or listing a version never scans another tenant's blocks.
	versions map[objVer]*blockData
	// free holds evicted slabs by cell count, chained the same way, for
	// the next Put of a block that size. EvictVersion bounds it by the
	// cells the shard stored when the eviction began, and Resize drops it.
	free map[int]*blockData
	// cells and freeCells count the cells in objects and in free.
	cells, freeCells int64
	// queries counts Get/Reduce block lookups served by this shard — the
	// paper's claim that the index "distribute[s] incoming queries across
	// these nodes" is checked against this counter.
	queries int64
}

func newServer() *server {
	return &server{
		objects:  make(map[objKey]*blockData),
		versions: make(map[objVer]*blockData),
		free:     make(map[int]*blockData),
	}
}

type objVer struct {
	name    string
	version int
}

type objKey struct {
	objVer
	block uint64
}

// blockData is one block's slab: the block's cells in row-major order
// (edge blocks are clipped to the domain) and which of them have been
// put. The block's bounds are not stored; they follow from its id.
type blockData struct {
	id   uint64
	next *blockData // next block of the version, or next free slab
	data []float64
	// valid has bit i set once cell i has been put, and set counts those
	// bits. A block with set == len(data) is full: every cell is valid,
	// and valid is neither consulted nor kept up any more.
	valid []uint64
	set   int
}

// install files a slab under (ov, id) on this shard.
func (srv *server) install(ov objVer, id uint64, bd *blockData) {
	bd.id, bd.next = id, srv.versions[ov]
	srv.versions[ov] = bd
	srv.objects[objKey{ov, id}] = bd
	srv.cells += int64(len(bd.data))
}

// slab returns the slab of block id of ov, making the block if the
// version has none yet: from the free list when a slab of that many cells
// waits there — it comes back with no cell valid, whatever it held —
// and from the heap otherwise.
func (srv *server) slab(ov objVer, id uint64, cells int) *blockData {
	if bd := srv.objects[objKey{ov, id}]; bd != nil {
		return bd
	}
	bd := srv.free[cells]
	if bd != nil {
		srv.free[cells] = bd.next
		srv.freeCells -= int64(cells)
		clear(bd.valid)
		bd.set = 0
	} else {
		bd = &blockData{data: make([]float64, cells), valid: make([]uint64, (cells+63)/64)}
	}
	srv.install(ov, id, bd)
	return bd
}

type subscription struct {
	name    string
	lb, ub  []uint64
	ch      chan Notification
	space   *Space
	removed bool
}

// Notification reports a put intersecting a registered region of interest.
type Notification struct {
	Name    string
	Version int
	// Lb and Ub bound the newly inserted region (inclusive lower,
	// exclusive upper).
	Lb, Ub []uint64
}

// New builds a space over the given domain.
func New(cfg Config) (*Space, error) {
	if cfg.Servers < 1 {
		return nil, fmt.Errorf("dataspaces: Servers %d must be >= 1", cfg.Servers)
	}
	nd := len(cfg.Domain.Dims)
	if nd < 1 || nd > 3 {
		return nil, fmt.Errorf("dataspaces: domain rank %d unsupported (want 1-3)", nd)
	}
	for i, d := range cfg.Domain.Dims {
		if d == 0 {
			return nil, fmt.Errorf("dataspaces: domain dim %d is zero", i)
		}
	}
	s := &Space{cfg: cfg, nd: nd, locks: make(map[string]*objLock),
		dims: vec{1, 1, 1}, block: vec{1, 1, 1}}
	copy(s.dims[3-nd:], cfg.Domain.Dims)
	// Resolve block sizes: aim for ~4096 blocks total by default.
	if cfg.Domain.BlockSize != nil {
		if len(cfg.Domain.BlockSize) != nd {
			return nil, fmt.Errorf("dataspaces: block size rank %d != domain rank %d",
				len(cfg.Domain.BlockSize), nd)
		}
		for i, b := range cfg.Domain.BlockSize {
			if b == 0 {
				return nil, fmt.Errorf("dataspaces: block size dim %d is zero", i)
			}
		}
		copy(s.block[3-nd:], cfg.Domain.BlockSize)
	} else {
		perDim := math.Pow(4096, 1/float64(nd))
		for i, d := range cfg.Domain.Dims {
			s.block[3-nd+i] = max(uint64(math.Ceil(float64(d)/perDim)), 1)
		}
	}
	maxBlocks := uint64(1)
	for i, d := range s.dims {
		s.nblk[i] = (d + s.block[i] - 1) / s.block[i]
		maxBlocks = max(maxBlocks, s.nblk[i])
	}
	// Hilbert order covering the block grid.
	order := uint(1)
	for (uint64(1) << order) < maxBlocks {
		order++
	}
	var err error
	switch nd {
	case 2:
		s.curve2, err = hilbert.NewCurve2D(min(order, 31))
	case 3:
		s.curve3, err = hilbert.NewCurve3D(min(order, 20))
	}
	if err != nil {
		return nil, err
	}
	s.servers = make([]*server, cfg.Servers)
	for i := range s.servers {
		s.servers[i] = newServer()
	}
	return s, nil
}

// unpad is v in the domain's own rank, for messages.
func (s *Space) unpad(v vec) []uint64 { return append([]uint64(nil), v[3-s.nd:]...) }

// blockID linearizes a block coordinate along the SFC.
func (s *Space) blockID(coord vec) uint64 {
	var d uint64
	var err error
	switch s.nd {
	case 1:
		return coord[2]
	case 2:
		d, err = s.curve2.Encode(coord[1], coord[2])
	default:
		d, err = s.curve3.Encode(coord[0], coord[1], coord[2])
	}
	if err != nil {
		// Block grids are padded to powers of two by the curve order,
		// so encoding a valid block coordinate cannot fail.
		panic(fmt.Sprintf("dataspaces: internal: %v", err))
	}
	return d
}

// blockBounds returns block coord's lower bound and its extent, clipped
// at the domain's edge.
func (s *Space) blockBounds(coord vec) (lb, ext vec) {
	for d := range coord {
		lb[d] = coord[d] * s.block[d]
		ext[d] = min(lb[d]+s.block[d], s.dims[d]) - lb[d]
	}
	return lb, ext
}

// serverOf places a block on a server: block id modulo the shard count.
// Ids run along the SFC, so neighbouring blocks land on different shards
// and a region query spreads over all of them.
func (s *Space) serverOf(blockID uint64) int {
	return int(blockID % uint64(len(s.servers)))
}

// region validates (lb, ub) against the domain and pads it.
func (s *Space) region(lb, ub []uint64) (box, error) {
	nd := s.nd
	if len(lb) != nd || len(ub) != nd {
		return box{}, fmt.Errorf("dataspaces: region rank (%d,%d) != domain rank %d", len(lb), len(ub), nd)
	}
	for i := 0; i < nd; i++ {
		if lb[i] >= ub[i] {
			return box{}, fmt.Errorf("dataspaces: region empty in dim %d: [%d,%d)", i, lb[i], ub[i])
		}
		if ub[i] > s.cfg.Domain.Dims[i] {
			return box{}, fmt.Errorf("dataspaces: region exceeds domain in dim %d: %d > %d",
				i, ub[i], s.cfg.Domain.Dims[i])
		}
	}
	r := box{ub: vec{1, 1, 1}}
	copy(r.lb[3-nd:], lb)
	copy(r.ub[3-nd:], ub)
	return r, nil
}

// cells counts the cells in a region.
func (r box) cells() uint64 {
	return (r.ub[0] - r.lb[0]) * (r.ub[1] - r.lb[1]) * (r.ub[2] - r.lb[2])
}

// tile is the part of a region that lies in one block. The intersection
// of two boxes is contiguous along the innermost dimension in both, so a
// tile is n0*n1 runs of n cells, and run (i, j) starts at offset
// slab+i*slab0+j*slab1 of the block's slab and at reg+i*reg0+j*reg1 of
// the region's row-major array.
type tile struct {
	coord vec // the block's coordinate
	cells int // cells in the whole block

	n0, n1, n          int
	slab, slab0, slab1 int
	reg, reg0, reg1    int
}

// whole reports whether the tile is the whole block.
func (t tile) whole() bool { return t.n0*t.n1*t.n == t.cells }

// runs visits the start of every run of the tile, in the slab and in the
// region's array. This is the one traversal under Put, Get and Reduce.
func (t tile) runs(visit func(slab, reg int)) {
	for i := 0; i < t.n0; i++ {
		b, r := t.slab+i*t.slab0, t.reg+i*t.reg0
		for j := 0; j < t.n1; j++ {
			visit(b, r)
			b += t.slab1
			r += t.reg1
		}
	}
}

// forEachBlock visits the tile of every block intersecting r, in
// row-major block order.
func (s *Space) forEachBlock(r box, visit func(t tile) error) error {
	var lo, hi vec
	for d := range lo {
		lo[d] = r.lb[d] / s.block[d]
		hi[d] = (r.ub[d] - 1) / s.block[d]
	}
	var t tile
	t.reg1 = int(r.ub[2] - r.lb[2])
	t.reg0 = int(r.ub[1]-r.lb[1]) * t.reg1
	c := &t.coord
	for c[0] = lo[0]; c[0] <= hi[0]; c[0]++ {
		for c[1] = lo[1]; c[1] <= hi[1]; c[1]++ {
			for c[2] = lo[2]; c[2] <= hi[2]; c[2]++ {
				blb, bext := s.blockBounds(*c)
				// The intersection: where it starts in the block and in
				// the region, and its extent.
				var inBlk, inReg, ext [3]int
				for d := range blb {
					ilb := max(r.lb[d], blb[d])
					inBlk[d] = int(ilb - blb[d])
					inReg[d] = int(ilb - r.lb[d])
					ext[d] = int(min(r.ub[d], blb[d]+bext[d]) - ilb)
				}
				t.slab1 = int(bext[2])
				t.slab0 = int(bext[1]) * t.slab1
				t.cells = int(bext[0]) * t.slab0
				t.n0, t.n1, t.n = ext[0], ext[1], ext[2]
				t.slab = inBlk[0]*t.slab0 + inBlk[1]*t.slab1 + inBlk[2]
				t.reg = inReg[0]*t.reg0 + inReg[1]*t.reg1 + inReg[2]
				if err := visit(t); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// wordRange splits cells [a, a+n) of a validity bitmap into per-word
// masks.
func wordRange(a, n int, visit func(word int, mask uint64)) {
	for n > 0 {
		off := a & 63
		k := min(64-off, n)
		visit(a>>6, ^uint64(0)>>(64-k)<<off)
		a += k
		n -= k
	}
}

// mark records every cell of the tile as put.
func (bd *blockData) mark(t tile) {
	switch {
	case bd.set == len(bd.data):
	case t.whole():
		bd.set = len(bd.data)
	default:
		t.runs(func(slab, _ int) {
			wordRange(slab, t.n, func(w int, mask uint64) {
				bd.set += bits.OnesCount64(mask &^ bd.valid[w])
				bd.valid[w] |= mask
			})
		})
	}
}

// has reports whether every cell of the tile has been put.
func (bd *blockData) has(t tile) bool {
	if bd.set == len(bd.data) {
		return true
	}
	ok := true
	t.runs(func(slab, _ int) {
		wordRange(slab, t.n, func(w int, mask uint64) {
			ok = ok && bd.valid[w]&mask == mask
		})
	})
	return ok
}

// Put inserts the row-major data of region [lb, ub) under (name, version).
// Overlapping cells from a later Put of the same version overwrite.
func (s *Space) Put(name string, version int, lb, ub []uint64, data []float64) error {
	if name == "" {
		return fmt.Errorf("dataspaces: empty object name")
	}
	r, err := s.region(lb, ub)
	if err != nil {
		return err
	}
	if uint64(len(data)) != r.cells() {
		return fmt.Errorf("dataspaces: region holds %d cells, data has %d", r.cells(), len(data))
	}
	ov := objVer{name, version}
	s.smu.RLock()
	defer s.smu.RUnlock()
	err = s.forEachBlock(r, func(t tile) error {
		id := s.blockID(t.coord)
		srv := s.servers[s.serverOf(id)]
		srv.mu.Lock()
		defer srv.mu.Unlock()
		bd := srv.slab(ov, id, t.cells)
		t.runs(func(slab, reg int) {
			copy(bd.data[slab:slab+t.n], data[reg:reg+t.n])
		})
		bd.mark(t)
		return nil
	})
	if err != nil {
		return err
	}
	s.notify(name, version, lb, ub)
	return nil
}

// scan visits, under its shard's lock, the slab of every block of
// (name, version) that region r touches, with the tile r cuts from it.
// Every requested cell must have been put; missing cells are an error.
// The caller holds smu.
func (s *Space) scan(ov objVer, r box, visit func(bd *blockData, t tile)) error {
	return s.forEachBlock(r, func(t tile) error {
		id := s.blockID(t.coord)
		srv := s.servers[s.serverOf(id)]
		srv.mu.Lock()
		defer srv.mu.Unlock()
		srv.queries++
		bd := srv.objects[objKey{ov, id}]
		if bd == nil {
			return fmt.Errorf("dataspaces: %s@%d block %v not in space", ov.name, ov.version, s.unpad(t.coord))
		}
		if !bd.has(t) {
			return fmt.Errorf("dataspaces: %s@%d has unset cells in block %v", ov.name, ov.version, s.unpad(t.coord))
		}
		visit(bd, t)
		return nil
	})
}

// gather copies region r of ov into out, row-major.
func (s *Space) gather(ov objVer, r box, out []float64) error {
	return s.scan(ov, r, func(bd *blockData, t tile) {
		t.runs(func(slab, reg int) {
			copy(out[reg:reg+t.n], bd.data[slab:slab+t.n])
		})
	})
}

// Get retrieves region [lb, ub) of (name, version) as a row-major slice.
// Every requested cell must have been put; missing cells are an error.
func (s *Space) Get(name string, version int, lb, ub []uint64) ([]float64, error) {
	r, err := s.region(lb, ub)
	if err != nil {
		return nil, err
	}
	out := make([]float64, r.cells())
	s.smu.RLock()
	defer s.smu.RUnlock()
	if err := s.gather(objVer{name, version}, r, out); err != nil {
		return nil, err
	}
	return out, nil
}

// ReduceOp selects an aggregation for Reduce queries.
type ReduceOp int

// Aggregation operators.
const (
	ReduceMin ReduceOp = iota
	ReduceMax
	ReduceSum
	ReduceAvg
)

// Reduce evaluates an aggregation query over region [lb, ub) — the
// paper's "max/min/average value for a particular field in a given
// sub-region". The answer is, bit for bit, that of folding Get's
// row-major result from the first cell to the last, without building it:
// min and max do not depend on the order and fold each block's runs in
// place; a floating-point sum does, so sum and avg add in row-major order.
func (s *Space) Reduce(name string, version int, lb, ub []uint64, op ReduceOp) (float64, error) {
	r, err := s.region(lb, ub)
	if err != nil {
		return 0, err
	}
	ov := objVer{name, version}
	s.smu.RLock()
	defer s.smu.RUnlock()
	var out float64
	switch op {
	case ReduceMin, ReduceMax:
		fold := math.Min
		out = math.Inf(1)
		if op == ReduceMax {
			fold, out = math.Max, math.Inf(-1)
		}
		err = s.scan(ov, r, func(bd *blockData, t tile) {
			t.runs(func(slab, _ int) {
				for _, v := range bd.data[slab : slab+t.n] {
					out = fold(out, v)
				}
			})
		})
	case ReduceSum, ReduceAvg:
		out, err = s.sum(ov, r)
		if op == ReduceAvg {
			out /= float64(r.cells())
		}
	default:
		err = fmt.Errorf("dataspaces: unknown reduce op %d", op)
	}
	if err != nil {
		return 0, err
	}
	return out, nil
}

// sumScratch is how many cells sum gathers at a time: 32 KiB of stack,
// and the serve-mixed query in one piece.
const sumScratch = 4096

// sum adds the cells of region r in row-major order. Blocks cut that
// order into runs, so it gathers the region into a fixed scratch array a
// slab of whole rows at a time — the rows' cells are then in order — and
// adds those: one index at a time in the dimensions outside the first
// one, d, whose inner rows fit the scratch, as many of d's as fit, and
// all of those inside it.
func (s *Space) sum(ov objVer, r box) (float64, error) {
	var scratch [sumScratch]float64
	e1, e2 := r.ub[1]-r.lb[1], r.ub[2]-r.lb[2]
	step := vec{1, 1, 1}
	switch {
	case e1*e2 <= sumScratch:
		step = vec{sumScratch / (e1 * e2), e1, e2}
	case e2 <= sumScratch:
		step[1], step[2] = sumScratch/e2, e2
	default:
		step[2] = sumScratch
	}
	var sum float64
	var sub box
	for sub.lb[0] = r.lb[0]; sub.lb[0] < r.ub[0]; sub.lb[0] += step[0] {
		for sub.lb[1] = r.lb[1]; sub.lb[1] < r.ub[1]; sub.lb[1] += step[1] {
			for sub.lb[2] = r.lb[2]; sub.lb[2] < r.ub[2]; sub.lb[2] += step[2] {
				for d := range sub.ub {
					sub.ub[d] = min(sub.lb[d]+step[d], r.ub[d])
				}
				part := scratch[:sub.cells()]
				if err := s.gather(ov, sub, part); err != nil {
					return 0, err
				}
				for _, v := range part {
					sum += v
				}
			}
		}
	}
	return sum, nil
}

// EvictVersion drops every block of (name, version) from the space,
// returning the number of cells released. Staging-node memory is the
// scarce resource the paper's streaming design protects; consumers evict
// versions they have finished with so long runs stay within budget. The
// slabs wait on their shard's free list for the next Put, as long as the
// list holds no more cells than the shard stored before the eviction; the
// rest go to the collector.
func (s *Space) EvictVersion(name string, version int) int64 {
	ov := objVer{name, version}
	var cells int64
	s.smu.RLock()
	defer s.smu.RUnlock()
	for _, srv := range s.servers {
		srv.mu.Lock()
		limit := srv.cells
		for bd := srv.versions[ov]; bd != nil; {
			next, n := bd.next, len(bd.data)
			delete(srv.objects, objKey{ov, bd.id})
			srv.cells -= int64(n)
			cells += int64(n)
			bd.next = nil
			if srv.freeCells+int64(n) <= limit {
				bd.next = srv.free[n]
				srv.free[n] = bd
				srv.freeCells += int64(n)
			}
			bd = next
		}
		delete(srv.versions, ov)
		srv.mu.Unlock()
	}
	return cells
}

// MemoryCells reports the total number of stored cells across all
// servers — the space's in-memory footprint in value units. Slabs
// waiting on a free list are not stored cells.
func (s *Space) MemoryCells() int64 {
	var n int64
	s.smu.RLock()
	defer s.smu.RUnlock()
	for _, srv := range s.servers {
		srv.mu.Lock()
		n += srv.cells
		srv.mu.Unlock()
	}
	return n
}

// Versions lists the stored versions of an object, ascending.
func (s *Space) Versions(name string) []int {
	seen := map[int]bool{}
	s.smu.RLock()
	defer s.smu.RUnlock()
	for _, srv := range s.servers {
		srv.mu.Lock()
		for ov := range srv.versions {
			if ov.name == name {
				seen[ov.version] = true
			}
		}
		srv.mu.Unlock()
	}
	out := make([]int, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

// Subscribe registers a continuous query: the returned channel receives a
// Notification whenever a Put intersects [lb, ub). The channel has a small
// buffer; when it overflows the oldest pending notification is dropped in
// favor of the newest, so a slow subscriber always finds the latest
// version waiting when it drains. Call the cancel func to release it.
func (s *Space) Subscribe(name string, lb, ub []uint64) (<-chan Notification, func(), error) {
	if _, err := s.region(lb, ub); err != nil {
		return nil, nil, err
	}
	sub := &subscription{
		name: name,
		lb:   append([]uint64(nil), lb...),
		ub:   append([]uint64(nil), ub...),
		ch:   make(chan Notification, 16),
	}
	s.mu.Lock()
	s.subs = append(s.subs, sub)
	s.mu.Unlock()
	cancel := func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		if sub.removed {
			return
		}
		sub.removed = true
		for i, x := range s.subs {
			if x == sub {
				s.subs = append(s.subs[:i], s.subs[i+1:]...)
				break
			}
		}
		close(sub.ch)
	}
	return sub.ch, cancel, nil
}

// notify delivers put notifications to intersecting subscriptions.
func (s *Space) notify(name string, version int, lb, ub []uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, sub := range s.subs {
		if sub.name != name || sub.removed {
			continue
		}
		intersects := true
		for i := range lb {
			if ub[i] <= sub.lb[i] || sub.ub[i] <= lb[i] {
				intersects = false
				break
			}
		}
		if !intersects {
			continue
		}
		n := Notification{
			Name:    name,
			Version: version,
			Lb:      append([]uint64(nil), lb...),
			Ub:      append([]uint64(nil), ub...),
		}
		select {
		case sub.ch <- n:
		default:
			// Full buffer: drop the OLDEST pending notification and
			// retry, so a subscriber that falls behind still sees the
			// latest version when it drains — a continuous query that
			// parks during a shard-handoff burst must not permanently
			// miss the newest data. Popping races only other receivers
			// (close is serialized behind s.mu with this send), and if a
			// receiver wins the race the retry slot is free anyway.
			select {
			case <-sub.ch:
			default:
			}
			select {
			case sub.ch <- n:
			default:
			}
		}
	}
}

// Stats reports per-server storage occupancy and query traffic, for
// load-balance checks.
type Stats struct {
	// BlocksPerServer[i] is the number of stored blocks on server i.
	BlocksPerServer []int
	// CellsPerServer[i] is the number of stored cells on server i.
	CellsPerServer []int64
	// QueriesPerServer[i] counts block lookups served by server i.
	QueriesPerServer []int64
}

// Stats snapshots the space's storage and query distribution.
func (s *Space) Stats() Stats {
	s.smu.RLock()
	defer s.smu.RUnlock()
	st := Stats{
		BlocksPerServer:  make([]int, len(s.servers)),
		CellsPerServer:   make([]int64, len(s.servers)),
		QueriesPerServer: make([]int64, len(s.servers)),
	}
	for i, srv := range s.servers {
		srv.mu.Lock()
		st.BlocksPerServer[i] = len(srv.objects)
		st.CellsPerServer[i] = srv.cells
		st.QueriesPerServer[i] = srv.queries
		srv.mu.Unlock()
	}
	return st
}

// Servers returns the number of servers backing the space.
func (s *Space) Servers() int {
	s.smu.RLock()
	defer s.smu.RUnlock()
	return len(s.servers)
}

// ResizeStats reports one shard-handoff pass: the layout change and how
// much data physically moved between shards.
type ResizeStats struct {
	From, To    int
	MovedBlocks int
	MovedCells  int64
}

// Resize rehashes every stored block onto n servers — the shard handoff
// an elastic staging pool runs at a resize epoch. Donors hand blocks to
// joiners on grow; retiring shards hand everything to survivors on
// shrink. The swap is atomic with respect to every other operation
// (they serialize behind the layout lock), no block is lost or
// duplicated, and blocks whose placement is unchanged do not move.
// Per-server query counters restart at zero: they describe shards of
// one layout, not the space's lifetime. The free lists are dropped with
// the old shards: which sizes a shard will be asked for changes with the
// layout.
func (s *Space) Resize(n int) (ResizeStats, error) {
	if n < 1 {
		return ResizeStats{}, fmt.Errorf("dataspaces: Resize to %d servers (want >= 1)", n)
	}
	s.smu.Lock()
	defer s.smu.Unlock()
	st := ResizeStats{From: len(s.servers), To: n}
	if n == len(s.servers) {
		return st, nil
	}
	next := make([]*server, n)
	for i := range next {
		next[i] = newServer()
	}
	for oldIdx, srv := range s.servers {
		srv.mu.Lock()
		for k, bd := range srv.objects {
			dst := int(k.block % uint64(n))
			next[dst].install(k.objVer, k.block, bd)
			if dst != oldIdx {
				st.MovedBlocks++
				st.MovedCells += int64(len(bd.data))
			}
		}
		srv.mu.Unlock()
	}
	s.servers = next
	return st, nil
}
