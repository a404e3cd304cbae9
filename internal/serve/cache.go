// Package serve promotes the PreDatA staging stack to a long-lived
// multi-tenant service: a Daemon wraps one DataSpaces shared space and
// admits a churning set of simulation clients (tenants) that ingest
// dump streams while concurrent consumers issue range and reduction
// queries against versions still in flight. See DESIGN.md §15.
package serve

import (
	"container/list"
	"encoding/binary"
	"sync"

	"predata/internal/trace"
)

// queryOp tags what a cached result is: a range Get or one of the
// Reduce operators. The tag is part of the cache key, so a Reduce over
// a region can never be answered with the region's raw cells (or with a
// different operator's scalar).
type queryOp uint8

const (
	opGet queryOp = iota
	opReduceMin
	opReduceMax
	opReduceSum
	opReduceAvg
)

// cacheKey serializes (tenant, name, version, region, op) into an
// unambiguous byte string. Every variable-length field is length-
// prefixed, so no two distinct tuples share an encoding — the property
// FuzzQueryCacheKey hammers on. The name is the tenant-qualified object
// name, which already embeds the tenant; keeping the tenant's numeric
// session ID out of the key means a rejoining tenant (same name, new
// session) still addresses its own entries and nobody else's.
func cacheKey(name string, version int, lb, ub []uint64, op queryOp) string {
	buf := make([]byte, 0, 1+4+len(name)+8+1+16*len(lb))
	buf = append(buf, byte(op))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(name)))
	buf = append(buf, name...)
	buf = binary.BigEndian.AppendUint64(buf, uint64(version))
	buf = append(buf, byte(len(lb)))
	for _, v := range lb {
		buf = binary.BigEndian.AppendUint64(buf, v)
	}
	for _, v := range ub {
		buf = binary.BigEndian.AppendUint64(buf, v)
	}
	return string(buf)
}

// objVer identifies one epoch counter: a tenant-qualified object name
// at one version. Every Put and every eviction bumps the counter, so
// an entry filled under an older epoch can never be served again.
type objVer struct {
	obj     string
	version int
}

// cacheEntry is one cached query result. For opGet the cells are in
// data; for the reduce ops the answer is the scalar.
type cacheEntry struct {
	key    string
	ov     objVer
	epoch  int64 // epoch the fill observed before reading the space
	data   []float64
	scalar float64
	elem   *list.Element
}

// CacheStats counts cache traffic.
type CacheStats struct {
	Hits          int64
	Misses        int64
	Fills         int64
	Invalidations int64
	Evictions     int64
	Entries       int
}

// queryCache is the serve daemon's result cache with dump-epoch
// invalidation. The coherence protocol: a reader captures the epoch
// BEFORE reading the space (a missed lookup hands it back), and the fill
// is discarded if the epoch moved in between — so a result computed from
// pre-invalidation bytes can never be installed over a newer epoch. A hit
// is valid only while the entry's fill epoch equals the current epoch.
// Trace events are recorded inside the cache mutex, which linearizes
// their timestamps: the cache-coherence Verify rule can then compare hit
// and invalidation times exactly. (Trace appends are lock-free, so
// nothing blocks under the mutex.)
type queryCache struct {
	mu      sync.Mutex
	max     int
	entries map[string]*cacheEntry
	lru     *list.List // front = most recent; values are *cacheEntry
	epochs  map[objVer]int64
	tracer  *trace.Recorder
	stats   CacheStats
}

func newQueryCache(maxEntries int, tracer *trace.Recorder) *queryCache {
	return &queryCache{
		max:     maxEntries,
		entries: make(map[string]*cacheEntry),
		lru:     list.New(),
		epochs:  make(map[objVer]int64),
		tracer:  tracer,
	}
}

// lookup returns the cached result for key if it is coherent: present
// and filled under the current epoch of ov, the key's (obj, version).
// Stale entries are dropped on sight. On a miss it returns that current
// epoch instead: the caller reads the space next and passes the epoch to
// fill, and capturing it under the same lock as the miss keeps it BEFORE
// the read. The returned slice is the cache's own copy — callers must
// not mutate it.
func (c *queryCache) lookup(key string, ov objVer, tenant int, hash int64) (data []float64, scalar float64, e0 int64, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e0 = c.epochs[ov]
	ent, present := c.entries[key]
	if present && ent.epoch == e0 {
		c.lru.MoveToFront(ent.elem)
		c.stats.Hits++
		c.tracer.Instant(trace.PhaseCacheHit, tenant, tenant, int64(ov.version), hash, ent.epoch)
		return ent.data, ent.scalar, e0, true
	}
	if present {
		c.removeLocked(ent)
	}
	c.stats.Misses++
	return nil, 0, e0, false
}

// fill installs a result computed from a space read that began at
// epoch e0. If the epoch moved since, the result may predate a Put or
// an eviction and is discarded — the next query refills.
func (c *queryCache) fill(key string, ov objVer, e0 int64, data []float64, scalar float64, tenant int, hash int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.epochs[ov] != e0 {
		return // raced with an invalidation; result may be stale
	}
	if old, present := c.entries[key]; present {
		c.removeLocked(old)
	}
	ent := &cacheEntry{key: key, ov: ov, epoch: e0, scalar: scalar}
	if data != nil {
		ent.data = append([]float64(nil), data...)
	}
	ent.elem = c.lru.PushFront(ent)
	c.entries[key] = ent
	c.stats.Fills++
	c.tracer.Instant(trace.PhaseCacheFill, tenant, tenant, int64(ov.version), hash, e0)
	for c.max > 0 && len(c.entries) > c.max {
		oldest := c.lru.Back()
		if oldest == nil {
			break
		}
		c.removeLocked(oldest.Value.(*cacheEntry))
		c.stats.Evictions++
	}
}

// invalidate bumps the epoch of (obj, version): every entry filled
// under an older epoch is dead from this moment on. Entries are pruned
// lazily (lookup drops them; LRU pressure reclaims the rest).
func (c *queryCache) invalidate(ov objVer, tenant int, hash int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.epochs[ov]++
	c.stats.Invalidations++
	c.tracer.Instant(trace.PhaseCacheInvalidate, tenant, tenant, int64(ov.version), hash, c.epochs[ov])
}

// dropVersion prunes every entry belonging to an evicted version. The
// epoch counter deliberately survives: resetting it would let a slow
// reader that captured the pre-eviction epoch install bytes for a
// version that no longer exists (begin e0=0 → Put → Get → Evict resets
// to 0 → fill sees 0==e0 and lands). A counter is 8 bytes plus the key;
// the map grows with distinct versions ingested, which the eviction
// cadence of a streaming workload keeps small next to the cells
// themselves.
func (c *queryCache) dropVersion(ov objVer) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, ent := range c.entries {
		if ent.ov == ov {
			c.removeLocked(ent)
			c.stats.Evictions++
		}
	}
}

func (c *queryCache) removeLocked(ent *cacheEntry) {
	delete(c.entries, ent.key)
	c.lru.Remove(ent.elem)
}

// snapshot returns the current counters.
func (c *queryCache) snapshot() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.stats
	st.Entries = len(c.entries)
	return st
}
