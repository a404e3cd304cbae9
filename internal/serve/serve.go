package serve

import (
	"context"
	"encoding/binary"
	"fmt"
	"sort"
	"sync"

	"predata/internal/dataspaces"
	"predata/internal/flowctl"
	"predata/internal/trace"
	"predata/internal/wal"
	"predata/internal/wire"
)

// Config configures a Daemon.
type Config struct {
	// Servers is the baseline DataSpaces shard count; the daemon grows
	// the shard pool by one per additional tenant, up to maxExtraServers
	// more, through the space's atomic shard handoff, and shrinks it back
	// as tenants leave.
	Servers int
	// Domain is the global grid every tenant's objects live on.
	Domain dataspaces.Domain
	// CapacityBytes is the staging admission pot shared by all tenants
	// through fair-share sub-budgets. Zero defaults to 256 MiB.
	CapacityBytes int64
	// CacheEntries bounds the query result cache; zero disables it.
	CacheEntries int
	// WALDir, when set, journals every ingest so a restarted daemon
	// recovers all unevicted versions. Empty disables durability.
	WALDir string
	// Tracer records serve phases; nil disables tracing. Size the rings
	// to hold the full run when the recording will be verified —
	// trace.Verify refuses lossy recordings.
	Tracer *trace.Recorder
}

// Daemon is the long-lived staging service: one shared DataSpaces
// space, a fair-share admission arbiter, an optional query result
// cache, and an optional write-ahead journal, serving any number of
// concurrently joined tenant sessions. All methods are safe for
// concurrent use.
type Daemon struct {
	cfg    Config
	space  *dataspaces.Space
	fair   *flowctl.FairShare
	cache  *queryCache
	tracer *trace.Recorder

	mu       sync.Mutex
	journal  *wal.Log
	sessions map[string]*Session
	nextID   int
	epoch    int64
	closed   bool
}

// Open builds the daemon: space, admission, cache, and — when WALDir is
// set — journal recovery of every version a previous incarnation
// ingested but had not evicted. Recovered bytes are resident in the
// space but not admission-accounted; rejoining tenants re-enter under
// fresh sub-budgets.
func Open(cfg Config) (*Daemon, error) {
	if cfg.Servers <= 0 {
		cfg.Servers = 2
	}
	if cfg.CapacityBytes <= 0 {
		cfg.CapacityBytes = 256 << 20
	}
	space, err := dataspaces.New(dataspaces.Config{Servers: cfg.Servers, Domain: cfg.Domain})
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	budget, err := flowctl.NewBudget(cfg.CapacityBytes, 0.9, 0.5)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	fair, err := flowctl.NewFairShare(budget)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	d := &Daemon{
		cfg:      cfg,
		space:    space,
		fair:     fair,
		tracer:   cfg.Tracer,
		sessions: make(map[string]*Session),
	}
	if cfg.CacheEntries > 0 {
		d.cache = newQueryCache(cfg.CacheEntries, cfg.Tracer)
	}
	if cfg.WALDir != "" {
		if err := d.recover(cfg.WALDir); err != nil {
			return nil, err
		}
		log, err := wal.Open(cfg.WALDir)
		if err != nil {
			return nil, fmt.Errorf("serve: %w", err)
		}
		d.journal = log
	}
	return d, nil
}

// Close shuts the daemon down. Joined sessions become invalid; the
// journal (if any) is flushed and closed so a future Open recovers
// every unevicted version.
func (d *Daemon) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil
	}
	d.closed = true
	if d.journal != nil {
		return d.journal.Close()
	}
	return nil
}

// Space exposes the underlying shared space for read-only inspection
// (stats, memory accounting) — callers must not write through it, or
// the namespace and admission layers are bypassed.
func (d *Daemon) Space() *dataspaces.Space { return d.space }

// Epoch returns the current membership epoch (bumped by every join and
// leave).
func (d *Daemon) Epoch() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.epoch
}

// Tenants lists the joined tenant names, sorted.
func (d *Daemon) Tenants() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	names := make([]string, 0, len(d.sessions))
	for n := range d.sessions {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// CacheStats snapshots the result cache counters (zero value when the
// cache is disabled).
func (d *Daemon) CacheStats() CacheStats {
	if d.cache == nil {
		return CacheStats{}
	}
	return d.cache.snapshot()
}

// maxExtraServers caps how many shards tenants add over Config.Servers.
const maxExtraServers = 7

// targetServersLocked scales the shard pool with the tenant count:
// baseline shards for the first tenant, one more per extra tenant,
// capped at maxExtraServers more.
func (d *Daemon) targetServersLocked() int {
	return d.cfg.Servers + min(max(len(d.sessions)-1, 0), maxExtraServers)
}

// Join admits a tenant and returns its session. The membership epoch
// bumps and the shard pool rescales through the space's atomic handoff;
// concurrent queries and ingests of other tenants proceed throughout.
func (d *Daemon) Join(tenant string, weight int) (*Session, error) {
	if err := validTenant(tenant); err != nil {
		return nil, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil, fmt.Errorf("serve: daemon closed")
	}
	if _, dup := d.sessions[tenant]; dup {
		return nil, fmt.Errorf("serve: tenant %q already joined", tenant)
	}
	id := d.nextID
	if err := d.fair.Register(id, weight); err != nil {
		return nil, err
	}
	d.nextID++
	d.epoch++
	s := &Session{d: d, id: id, tenant: tenant,
		leases: make(map[objVer][]func()), resident: make(map[objVer]int64)}
	s.leaving, s.signalLeave = context.WithCancel(context.Background())
	d.sessions[tenant] = s
	d.tracer.Instant(trace.PhaseTenantJoin, id, id, 0, d.epoch, int64(weight))
	if rs, err := d.space.Resize(d.targetServersLocked()); err == nil && rs.From != rs.To {
		d.tracer.Instant(trace.PhaseHandoff, id, rs.To, 0, d.epoch, rs.MovedCells)
	}
	return s, nil
}

// Session is one tenant's handle on the daemon. All methods are safe
// for concurrent use; a session is invalid after Leave.
type Session struct {
	d      *Daemon
	id     int
	tenant string

	// leaving is cancelled by Leave, failing every ingest still queued
	// for admission; inflight counts ingests from before admission
	// until their lease is recorded, so Leave can wait them out.
	leaving     context.Context
	signalLeave context.CancelFunc
	inflight    sync.WaitGroup

	mu       sync.Mutex
	leases   map[objVer][]func()
	resident map[objVer]int64 // admission-accounted bytes per version
	left     bool
	stats    TenantStats
}

// Tenant returns the tenant name this session serves.
func (s *Session) Tenant() string { return s.tenant }

// ID returns the numeric tenant ID recorded in trace events.
func (s *Session) ID() int { return s.id }

// Ingest stages one region of a dump version: fair-share admission for
// the cells' bytes, journal append (when durable), Put into the shared
// space under the tenant's namespace, and cache invalidation for the
// version. The admission lease is held while the bytes are resident —
// it returns to the pot when the version is evicted. An ingest that
// Leave overtakes before admission fails without journaling or putting.
func (s *Session) Ingest(ctx context.Context, name string, version int, lb, ub []uint64, data []float64) error {
	qual := qualify(s.tenant, name)
	hash := objHash(qual)
	bytes := int64(len(data)) * 8
	s.mu.Lock()
	if s.left {
		s.mu.Unlock()
		return s.errLeft()
	}
	s.inflight.Add(1)
	s.mu.Unlock()
	defer s.inflight.Done()
	ctx, cancel := context.WithCancel(ctx)
	stop := context.AfterFunc(s.leaving, cancel)
	release, err := s.d.fair.Acquire(ctx, s.id, bytes)
	stop()
	cancel()
	if err != nil {
		return err
	}
	if s.leaving.Err() != nil {
		release()
		return s.errLeft()
	}
	if s.d.journal != nil {
		if err := s.d.journal.AppendChunk(s.id, ingestTimestep(qual, version), encodeIngest(qual, version, lb, ub, data)); err != nil {
			release()
			return fmt.Errorf("serve: journal: %w", err)
		}
	}
	if err := s.d.space.Put(qual, version, lb, ub, data); err != nil {
		release()
		return err
	}
	if s.d.cache != nil {
		s.d.cache.invalidate(objVer{qual, version}, s.id, hash)
	}
	s.mu.Lock()
	ov := objVer{qual, version}
	s.leases[ov] = append(s.leases[ov], release)
	s.resident[ov] += bytes
	s.stats.Ingests++
	s.stats.IngestedCells += int64(len(data))
	s.stats.ResidentBytes += bytes
	s.mu.Unlock()
	s.d.tracer.Instant(trace.PhaseServeIngest, s.id, s.id, int64(version), hash, int64(version))
	return nil
}

// Query answers a range Get against the tenant's namespace, consulting
// the result cache when enabled. The returned slice is the caller's to
// keep.
func (s *Session) Query(name string, version int, lb, ub []uint64) ([]float64, error) {
	qual := qualify(s.tenant, name)
	hash := objHash(qual)
	var key string
	var e0 int64
	ov := objVer{qual, version}
	if c := s.d.cache; c != nil {
		key = cacheKey(qual, version, lb, ub, opGet)
		data, _, epoch, ok := c.lookup(key, ov, s.id, hash)
		if ok {
			s.noteQuery()
			return append([]float64(nil), data...), nil
		}
		e0 = epoch
	}
	data, err := s.d.space.Get(qual, version, lb, ub)
	if err != nil {
		return nil, err
	}
	if c := s.d.cache; c != nil {
		c.fill(key, ov, e0, data, 0, s.id, hash)
	}
	s.noteQuery()
	s.d.tracer.Instant(trace.PhaseServeQuery, s.id, s.id, int64(version), hash, int64(version))
	return data, nil
}

// Reduce answers a reduction query against the tenant's namespace,
// consulting the result cache when enabled.
func (s *Session) Reduce(name string, version int, lb, ub []uint64, op dataspaces.ReduceOp) (float64, error) {
	qual := qualify(s.tenant, name)
	hash := objHash(qual)
	var key string
	var e0 int64
	ov := objVer{qual, version}
	if c := s.d.cache; c != nil {
		key = cacheKey(qual, version, lb, ub, opReduceMin+queryOp(op))
		_, scalar, epoch, ok := c.lookup(key, ov, s.id, hash)
		if ok {
			s.noteReduce()
			return scalar, nil
		}
		e0 = epoch
	}
	v, err := s.d.space.Reduce(qual, version, lb, ub, op)
	if err != nil {
		return 0, err
	}
	if c := s.d.cache; c != nil {
		c.fill(key, ov, e0, nil, v, s.id, hash)
	}
	s.noteReduce()
	s.d.tracer.Instant(trace.PhaseServeQuery, s.id, s.id, int64(version), hash, int64(version))
	return v, nil
}

// Subscribe follows new versions of the tenant's object intersecting
// the region, through the shared space's notification fan-out.
func (s *Session) Subscribe(name string, lb, ub []uint64) (<-chan dataspaces.Notification, func(), error) {
	return s.d.space.Subscribe(qualify(s.tenant, name), lb, ub)
}

// Versions lists the resident versions of the tenant's object.
func (s *Session) Versions(name string) []int {
	return s.d.space.Versions(qualify(s.tenant, name))
}

func (s *Session) noteQuery() {
	s.mu.Lock()
	s.stats.Queries++
	s.mu.Unlock()
}

func (s *Session) noteReduce() {
	s.mu.Lock()
	s.stats.Reduces++
	s.mu.Unlock()
}

// EvictVersion retires one object's version: the cells leave the space,
// cached results for it are invalidated, the admission lease returns to
// the pot, and — when durable — a commit record marks the version so a
// recovery will not resurrect it.
func (s *Session) EvictVersion(name string, version int) error {
	qual := qualify(s.tenant, name)
	ov := objVer{qual, version}
	s.mu.Lock()
	releases := s.leases[ov]
	bytes := s.resident[ov]
	delete(s.leases, ov)
	delete(s.resident, ov)
	s.stats.Evictions++
	s.mu.Unlock()
	return s.evict(ov, releases, bytes)
}

func (s *Session) evict(ov objVer, releases []func(), bytes int64) error {
	hash := objHash(ov.obj)
	if c := s.d.cache; c != nil {
		c.invalidate(ov, s.id, hash)
		c.dropVersion(ov)
	}
	s.d.space.EvictVersion(ov.obj, ov.version)
	for _, r := range releases {
		r()
	}
	s.mu.Lock()
	s.stats.ResidentBytes -= bytes
	s.mu.Unlock()
	if s.d.journal != nil {
		if err := s.d.journal.AppendCommit(ingestTimestep(ov.obj, ov.version)); err != nil {
			return fmt.Errorf("serve: journal: %w", err)
		}
	}
	return nil
}

func (s *Session) errLeft() error { return fmt.Errorf("serve: tenant %q left", s.tenant) }

// Leave drains the tenant out of the daemon: ingests still queued for
// admission fail, admitted ones finish, then every resident version is
// evicted (leases return to the pot, durable state is committed away),
// the fair-share registration is removed, the membership epoch bumps,
// and the shard pool rescales down. The session is invalid afterwards.
func (s *Session) Leave() error {
	s.mu.Lock()
	if s.left {
		s.mu.Unlock()
		return fmt.Errorf("serve: tenant %q already left", s.tenant)
	}
	s.left = true
	s.mu.Unlock()
	s.signalLeave()
	s.inflight.Wait()
	s.mu.Lock()
	pending := s.leases
	bytes := s.resident
	s.leases = make(map[objVer][]func())
	s.resident = make(map[objVer]int64)
	s.stats.Evictions += int64(len(pending))
	s.mu.Unlock()
	ovs := make([]objVer, 0, len(pending))
	for ov := range pending {
		ovs = append(ovs, ov)
	}
	sort.Slice(ovs, func(i, j int) bool {
		if ovs[i].obj != ovs[j].obj {
			return ovs[i].obj < ovs[j].obj
		}
		return ovs[i].version < ovs[j].version
	})
	for _, ov := range ovs {
		if err := s.evict(ov, pending[ov], bytes[ov]); err != nil {
			return err
		}
	}
	d := s.d
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.fair.Deregister(s.id); err != nil {
		return err
	}
	delete(d.sessions, s.tenant)
	d.epoch++
	d.tracer.Instant(trace.PhaseTenantLeave, s.id, s.id, 0, d.epoch, 0)
	if rs, err := d.space.Resize(d.targetServersLocked()); err == nil && rs.From != rs.To {
		d.tracer.Instant(trace.PhaseHandoff, s.id, rs.To, 0, d.epoch, rs.MovedCells)
	}
	return nil
}

// Stats snapshots the tenant's serve-side accounting, including the
// fair-share arbiter's admission view.
func (s *Session) Stats() (TenantStats, error) {
	s.mu.Lock()
	st := s.stats
	left := s.left
	s.mu.Unlock()
	if left {
		return st, nil
	}
	fair, err := s.d.fair.Stats(s.id)
	if err != nil {
		return st, err
	}
	st.Admission = fair
	return st, nil
}

// ingestTimestep packs (object, version) into the WAL's int64 timestep
// so each version of each tenant-qualified object commits (and dedupes
// at recovery) independently. The qualified name hashes into the top 31
// bits; versions keep the low 32.
func ingestTimestep(qual string, version int) int64 {
	return (objHash(qual)&0x7fffffff)<<32 | int64(uint32(version))
}

// encodeIngest serializes one ingest for the journal in the wire package's
// little-endian layout: qualified name, version, region bounds and cells,
// each string and vector behind its length.
func encodeIngest(qual string, version int, lb, ub []uint64, data []float64) []byte {
	buf := make([]byte, 0, 4+len(qual)+8+8+16*len(lb)+4+8*len(data))
	buf = wire.AppendString(buf, qual)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(version))
	buf = wire.AppendU64s(buf, lb)
	buf = wire.AppendU64s(buf, ub)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(data)))
	return wire.AppendFloat64s(buf, data)
}

// decodeIngest is encodeIngest's inverse. The cells may be a view over buf;
// the space copies what it is given.
func decodeIngest(buf []byte) (qual string, version int, lb, ub []uint64, data []float64, err error) {
	c := wire.NewCursor(buf, "serve: journal payload")
	qual = c.Str()
	version = int(int64(c.U64()))
	lb, ub = c.U64s(), c.U64s()
	data = wire.Float64s(c.Next(8 * int(c.U32())))
	if c.Err() != nil {
		return "", 0, nil, nil, nil, c.Err()
	}
	return qual, version, lb, ub, data, nil
}

// recover replays a previous incarnation's journal: every chunk whose
// (tenant, version) was not committed away by an eviction re-enters the
// space. Rejoining tenants find their unevicted versions resident.
func (d *Daemon) recover(dir string) error {
	st, err := wal.Recover(dir)
	if err != nil {
		return fmt.Errorf("serve: recover: %w", err)
	}
	for _, rec := range st.Chunks {
		qual, version, lb, ub, data, err := decodeIngest(rec.Payload)
		if err != nil {
			return err
		}
		if err := d.space.Put(qual, version, lb, ub, data); err != nil {
			return fmt.Errorf("serve: recover: %w", err)
		}
	}
	return nil
}
