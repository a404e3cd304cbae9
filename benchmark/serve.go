package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"predata/internal/bp"
	"predata/internal/dataspaces"
	"predata/internal/ffs"
	"predata/internal/serve"
	"predata/internal/trace"
)

// serveSizes is the shape of serve-mixed.
type serveSizes struct {
	side     uint64 // the domain is side x side float64 cells
	block    uint64
	versions int // ingested per tenant per repetition
	qRows    uint64
	qCols    uint64
}

const (
	serveObject       = "field"
	serveServers      = 2
	serveCacheEntries = 1024
	// serveWindow is how many versions of each tenant stay resident: the
	// writer evicts version v-4 after ingesting v. Set-up generates one
	// array per tenant and window slot and cycles through them.
	serveWindow = 5
	serveLag    = serveWindow - 1
	// Of the reader's operations, numbered from 1, every 8th from the 5th
	// is a Reduce and every 4th repeats the one issued three earlier (so
	// repeats cover both kinds): a cache hit unless the tenant's latest
	// version moved in between. That keeps the hit share near a quarter
	// and the median firmly in the miss mode.
	serveRepeatEvery = 4
	serveRepeatBack  = 3
	serveReduceEvery = 8
	serveReducePhase = 5
)

var serveWeights = []int{1, 2, 3, 1}

var serveMixed = workload{
	name: "serve-mixed",
	why:  "ingest beside queries on the same dataspaces shards through serve.Session: the only workload on dataspaces, fair-share admission and the result cache, and none of the pipeline",
	setup: func(seed int64, sc scale, scratch string) (instance, error) {
		sz := serveSizes{side: 512, block: 32, versions: 100, qRows: 32, qCols: 128}
		if sc == scaleTiny {
			sz = serveSizes{side: 64, block: 16, versions: 12, qRows: 8, qCols: 16}
		}
		s := &serveInstance{sz: sz, seed: seed}
		cells := int(sz.side * sz.side)
		rng := rand.New(rand.NewSource(seed))
		// The flat per-tenant, per-version arrays are both the input and
		// the reference: a query result is checked against them directly.
		// Small integers, so a region's sum is exact in any order.
		s.data = make([][][]float64, len(serveWeights))
		for t := range s.data {
			s.data[t] = make([][]float64, serveWindow)
			for k := range s.data[t] {
				a := make([]float64, cells)
				for i := range a {
					a[i] = float64(rng.Intn(1 << 20))
				}
				s.data[t][k] = a
			}
		}
		// The naive reference of the job, one goroutine: keep every version
		// in a flat array of its own and answer a region sum from it.
		t0 := time.Now()
		store := make([]float64, cells)
		for t := range s.data {
			for k := range s.data[t] {
				copy(store, s.data[t][k])
				if sumRegion(store, sz, 0, 0) != s.regionSum(t, k, 0, 0) {
					return nil, errors.New("serve-mixed: reference store disagrees with its input")
				}
			}
		}
		s.refB, s.refD = int64(len(s.data)*serveWindow)*s.versionBytes(), time.Since(t0)
		d, sessions, err := s.open(nil)
		if err != nil {
			return nil, err
		}
		s.daemon, s.sessions = d, sessions
		return s, nil
	},
}

type serveInstance struct {
	sz   serveSizes
	seed int64
	data [][][]float64 // [tenant][version % serveWindow][cell]
	refB int64
	refD time.Duration

	daemon   *serve.Daemon
	sessions []*serve.Session
	// next is the first version the next repetition ingests: the daemon is
	// long-lived, so versions keep counting up across repetitions.
	next int
}

func (s *serveInstance) versionBytes() int64 { return int64(s.sz.side*s.sz.side) * 8 }

func (s *serveInstance) sizes() map[string]any {
	return map[string]any{
		"servers": serveServers, "domain": []uint64{s.sz.side, s.sz.side}, "block": []uint64{s.sz.block, s.sz.block},
		"version_bytes": s.versionBytes(), "tenants": len(serveWeights), "weights": serveWeights,
		"versions_per_tenant_per_repetition": s.sz.versions, "resident_versions": serveWindow,
		"cache_entries": serveCacheEntries, "capacity_bytes": s.capacity(),
		"query_cells": []uint64{s.sz.qRows, s.sz.qCols}, "client_goroutines": 2,
	}
}

func (s *serveInstance) capacity() int64 {
	return int64(len(serveWeights)) * serveWindow * s.versionBytes()
}

func (s *serveInstance) reference() (int64, time.Duration) { return s.refB, s.refD }

func (s *serveInstance) close() error {
	if s.daemon == nil {
		return nil
	}
	err := s.daemon.Close()
	s.daemon = nil
	return err
}

// open builds a daemon and joins the tenants.
func (s *serveInstance) open(tr *trace.Recorder) (*serve.Daemon, []*serve.Session, error) {
	d, err := serve.Open(serve.Config{
		Servers:       serveServers,
		Domain:        dataspaces.Domain{Dims: []uint64{s.sz.side, s.sz.side}, BlockSize: []uint64{s.sz.block, s.sz.block}},
		CapacityBytes: s.capacity(),
		CacheEntries:  serveCacheEntries,
		Tracer:        tr,
	})
	if err != nil {
		return nil, nil, err
	}
	sessions := make([]*serve.Session, len(serveWeights))
	for t, w := range serveWeights {
		sessions[t], err = d.Join(fmt.Sprintf("tenant%d", t), w)
		if err != nil {
			return nil, nil, errors.Join(err, d.Close())
		}
	}
	return d, sessions, nil
}

// regionSum is the reference answer to a Reduce(ReduceSum).
func (s *serveInstance) regionSum(tenant, slot int, r0, c0 uint64) float64 {
	return sumRegion(s.data[tenant][slot], s.sz, r0, c0)
}

func sumRegion(a []float64, sz serveSizes, r0, c0 uint64) float64 {
	var sum float64
	for r := r0; r < r0+sz.qRows; r++ {
		for c := c0; c < c0+sz.qCols; c++ {
			sum += a[r*sz.side+c]
		}
	}
	return sum
}

// serveOp is one reader operation, kept so it can be repeated.
type serveOp struct {
	tenant int
	r0, c0 uint64
	reduce bool
}

// rep runs the two client goroutines: the writer round-robins the tenants
// (Ingest version v, evict v-4) while the reader queries the latest
// complete version of a seeded-random tenant until the writer finishes.
func (s *serveInstance) rep(sp *spanRecorder) (*repResult, error) {
	d, sessions, base := s.daemon, s.sessions, s.next
	var rec *trace.Recorder
	if sp != nil {
		// The tracer is a daemon-wide setting, so the traced repetition
		// gets a daemon of its own.
		rec = trace.New(trace.Config{Shards: 16, ShardCapacity: 1 << 15})
		var err error
		d, sessions, err = s.open(rec)
		if err != nil {
			return nil, err
		}
		defer d.Close()
		base = 0
	} else {
		s.next += s.sz.versions
	}
	before := make([]serve.TenantStats, len(sessions))
	for t, ss := range sessions {
		st, err := ss.Stats()
		if err != nil {
			return nil, err
		}
		before[t] = st
	}
	cacheBefore := d.CacheStats()

	ctx, cancel := context.WithTimeout(context.Background(), pipelineTimeout)
	defer cancel()
	lb, ub := []uint64{0, 0}, []uint64{s.sz.side, s.sz.side}
	// Per tenant: the latest complete version, the version the reader is
	// using, and the newest version the writer has retired. The reader
	// pins before it queries and re-checks retired; the writer retires
	// before it evicts and waits out a pin — so a query never meets an
	// evicted version however the two goroutines are scheduled.
	latest := make([]atomic.Int64, len(sessions))
	pinned := make([]atomic.Int64, len(sessions))
	retired := make([]atomic.Int64, len(sessions))
	for t := range latest {
		latest[t].Store(-1)
		pinned[t].Store(-1)
		retired[t].Store(-1)
	}
	res := &repResult{payload: int64(s.sz.versions*len(sessions)) * s.versionBytes()}
	repSpan := sp.begin("repetition", 0, -1)
	var (
		wg          sync.WaitGroup
		writerDone  atomic.Bool
		ingestFails int64
		writerWall  time.Duration
	)
	m := startMeter()
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer writerDone.Store(true)
		start := time.Now()
		for v := 0; v < s.sz.versions; v++ {
			for t, ss := range sessions {
				is := sp.begin("serve.Session.Ingest", repSpan, v)
				t0 := time.Now()
				err := ss.Ingest(ctx, serveObject, base+v, lb, ub, s.data[t][(base+v)%serveWindow])
				res.visible = append(res.visible, time.Since(t0).Seconds())
				sp.end(is)
				if err != nil {
					ingestFails++
					continue
				}
				latest[t].Store(int64(base + v))
				if old := base + v - serveLag; old >= 0 {
					retired[t].Store(int64(old))
					for pinned[t].Load() == int64(old) && ctx.Err() == nil {
						time.Sleep(pacePoll)
					}
					if err := ss.EvictVersion(serveObject, old); err != nil {
						ingestFails++
					}
				}
			}
		}
		writerWall = time.Since(start)
	}()

	// The reader runs on this goroutine.
	var (
		rng                 = rand.New(rand.NewSource(s.seed + int64(base) + 1))
		recent              [serveRepeatBack]serveOp
		hitLatency          []float64
		queries, queryFails int64
	)
	for i := int64(1); !writerDone.Load(); i++ {
		repeat := i%serveRepeatEvery == 0
		op := &recent[i%serveRepeatBack] // the operation issued serveRepeatBack ago
		if !repeat {
			*op = serveOp{
				tenant: rng.Intn(len(sessions)),
				r0:     uint64(rng.Int63n(int64(s.sz.side - s.sz.qRows + 1))),
				c0:     uint64(rng.Int63n(int64(s.sz.side - s.sz.qCols + 1))),
				reduce: i%serveReduceEvery == serveReducePhase,
			}
		}
		t := op.tenant
		v := latest[t].Load()
		pinned[t].Store(v)
		if v < 0 || retired[t].Load() >= v {
			// Nothing ingested for this tenant yet, or the version was
			// retired under us: not an operation.
			pinned[t].Store(-1)
			time.Sleep(pacePoll)
			continue
		}
		elapsed, ok := s.query(sp, repSpan, sessions[t], *op, int(v), rng)
		pinned[t].Store(-1)
		queries++
		if !ok {
			queryFails++
		}
		if repeat {
			hitLatency = append(hitLatency, elapsed.Seconds())
		} else {
			res.latency = append(res.latency, elapsed.Seconds())
		}
	}
	wg.Wait()
	res.use = m.stop()
	res.wall = writerWall
	sp.end(repSpan)

	// Oracle: per-tenant ingest accounting against the script.
	ingests := int64(s.sz.versions * len(sessions))
	res.attempted = ingests + queries + int64(len(sessions))
	res.failed = ingestFails + queryFails
	var waits, peakInUse int64
	for t, ss := range sessions {
		st, err := ss.Stats()
		if err != nil {
			return nil, err
		}
		if st.Ingests-before[t].Ingests != int64(s.sz.versions) ||
			st.IngestedCells-before[t].IngestedCells != int64(s.sz.versions)*int64(s.sz.side*s.sz.side) {
			res.failed++
		}
		waits += st.Admission.Waits - before[t].Admission.Waits
		peakInUse += st.Admission.PeakInUseBytes
	}
	cache := d.CacheStats()
	hits, misses := cache.Hits-cacheBefore.Hits, cache.Misses-cacheBefore.Misses
	res.layer = map[string]float64{
		"serve.ingest_p50_ms":      median(res.visible) * 1e3,
		"serve.ingest_p99_ms":      percentile(res.visible, 99) * 1e3,
		"serve.query_p99_us":       percentile(res.latency, 99) * 1e6,
		"serve.query_p999_us":      percentile(res.latency, 99.9) * 1e6,
		"serve.cache_hit_p50_us":   median(hitLatency) * 1e6,
		"serve.cache_hit_ratio":    ratio(float64(hits), float64(hits+misses)),
		"serve.admission_waits":    float64(waits),
		"serve.queries_per_s":      float64(queries) / writerWall.Seconds(),
		"flowctl.throttle_waits":   float64(waits),
		"flowctl.utilization_peak": float64(peakInUse) / float64(s.capacity()),
	}
	if rec != nil {
		res.layer["trace.dropped_events"] = float64(rec.Snapshot().Dropped)
	}
	return res, nil
}

// query issues one reader operation, timed from just before the call to
// its return, and checks the answer against the flat arrays: a Reduce's
// sum exactly, a Query's length and one seeded-random cell.
func (s *serveInstance) query(sp *spanRecorder, parent int, ss *serve.Session, op serveOp, v int, rng *rand.Rand) (time.Duration, bool) {
	lb := []uint64{op.r0, op.c0}
	ub := []uint64{op.r0 + s.sz.qRows, op.c0 + s.sz.qCols}
	slot := v % serveWindow
	if op.reduce {
		id := sp.begin("serve.Session.Reduce", parent, v)
		t0 := time.Now()
		sum, err := ss.Reduce(serveObject, v, lb, ub, dataspaces.ReduceSum)
		elapsed := time.Since(t0)
		sp.end(id)
		return elapsed, err == nil && sum == s.regionSum(op.tenant, slot, op.r0, op.c0)
	}
	id := sp.begin("serve.Session.Query", parent, v)
	t0 := time.Now()
	cells, err := ss.Query(serveObject, v, lb, ub)
	elapsed := time.Since(t0)
	sp.end(id)
	probe := uint64(rng.Int63n(int64(s.sz.qRows * s.sz.qCols)))
	want := s.data[op.tenant][slot][(op.r0+probe/s.sz.qCols)*s.sz.side+op.c0+probe%s.sz.qCols]
	return elapsed, err == nil && uint64(len(cells)) == s.sz.qRows*s.sz.qCols && cells[probe] == want
}

// walk replays one version through every layer. The pipeline layers are
// not on this workload's path — their rows are the predicted-no-change
// cells — but they are measured on its 2 MiB array all the same.
func (s *serveInstance) walk() *walkInput {
	arr := &ffs.Array{Dims: []uint64{s.sz.side, s.sz.side}, Float64: s.data[0][0]}
	return &walkInput{
		schema:       &ffs.Schema{Name: "serve", Fields: []ffs.Field{{Name: serveObject, Kind: ffs.KindArray}}},
		records:      []ffs.Record{{serveObject: arr}},
		payload:      s.versionBytes(),
		shuffleBytes: int(s.versionBytes()) / 2,
		budgetBytes:  s.capacity(),
		domain:       dataspaces.Domain{Dims: []uint64{s.sz.side, s.sz.side}, BlockSize: []uint64{s.sz.block, s.sz.block}},
		putLb:        []uint64{0, 0}, putUb: []uint64{s.sz.side, s.sz.side}, putData: arr.Float64,
		getLb: []uint64{0, 0}, getUb: []uint64{s.sz.qRows, s.sz.qCols},
		varChunk: bp.VarChunk{Name: serveObject, Dims: arr.Dims, Data: arr.Float64},
	}
}
