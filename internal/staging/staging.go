// Package staging implements the PreDatA staging-area stream-processing
// engine: each staging rank consumes a stream of packed partial data
// chunks and drives every plugged-in operator through the five phases of
// the paper's Fig. 5 —
//
//	Initialize → Map → (Combine) → Shuffle/Partition → Reduce → Finalize
//
// The model is MapReduce-like with the paper's four differences: data is
// read exactly once (streaming), Initialize/Finalize bracket the dump,
// shuffling runs over the MPI substrate (package mpi) rather than a file
// system, and there is no central master — the staging ranks are peers.
package staging

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"predata/internal/ffs"
	"predata/internal/metrics"
	"predata/internal/mpi"
	"predata/internal/trace"
)

// ShedClass records how the overload ladder classed a chunk on its way
// into the engine.
type ShedClass int

// Shed classes.
const (
	// ShedNone: every operator sees the chunk (the normal case).
	ShedNone ShedClass = iota
	// ShedSampled: shed mode is active and this chunk is one of the
	// sampled survivors — optional operators see it, but their results
	// now describe a sample and are flagged Degraded.
	ShedSampled
	// ShedSkipped: shed mode is active and optional operators are
	// starved of this chunk; mandatory operators still see it.
	ShedSkipped
)

// Chunk is one decoded packed partial data chunk: the output of one
// compute process at one timestep.
type Chunk struct {
	WriterRank int
	Timestep   int64
	Schema     *ffs.Schema
	Record     ffs.Record
	// Shed is the overload ladder's class for this chunk (zero value:
	// all operators see it).
	Shed ShedClass
	// Release, when non-nil, returns the chunk's memory-budget credits.
	// The engine calls it exactly once, after the last operator's Map has
	// seen the chunk (including error, shed and corrupt-drop paths); the
	// engine itself reads none of the chunk's bytes after it.
	Release func()

	// Unverified, when non-nil, is the FFS payload Record was decoded
	// from, whose checksum nobody has checked yet: the engine checks it
	// against Sum before any operator emits a value of the chunk. When
	// every operator that sees the chunk is a BlockMapper and the record
	// has one float64 array, the check rides the engine's one walk over
	// the payload (ffs.Walk); otherwise the payload is checksummed before
	// the first Map. On a match the engine calls Verified — before those
	// Maps read the record, so the engine's last read is Release's to
	// mark; on a mismatch it drops whatever the walk accumulated and calls
	// Corrupt.
	Unverified []byte
	Sum        uint32
	Verified   func()
	// Corrupt returns a re-pulled copy of the chunk to map in this one's
	// place (the engine keeps this chunk's Shed and Release), or nil when
	// the chunk is dropped: it then reaches no operator and records no
	// PhaseChunk. An error fails the dump like a Map error.
	Corrupt func() (*Chunk, error)
}

// Optional marks an operator the overload ladder may degrade to sampled
// input when shedding: nice-to-have analytics (histograms) rather than
// data-integrity work (sorting, reorganization for the PFS write).
type Optional interface {
	// Optional reports whether the operator may be shed under overload.
	Optional() bool
}

// Operator is the pluggable PreDatA operation interface. Map may be called
// concurrently from multiple worker threads when the engine is configured
// with Workers > 1; implementations must either be safe for that or be
// wrapped with Workers == 1.
//
// A chunk's record values are views into its writer's frame, read-only.
// An operator may keep them — emit them, read them in Reduce — until the
// dump's Finalize returns, and no longer: after that the writer reuses the
// frame for a later dump.
type Operator interface {
	// Name identifies the operator in results and errors.
	Name() string
	// Initialize is called once at the beginning of an I/O dump, with the
	// aggregated results generated from the pre-fetch request phase.
	Initialize(ctx *Context, agg map[string]any) error
	// Map is called once per chunk. Intermediate results are emitted with
	// ctx.Emit and later grouped by tag for Reduce.
	Map(ctx *Context, chunk *Chunk) error
	// Reduce is called once per tag owned by this staging rank, with all
	// intermediate values emitted under that tag across all ranks.
	Reduce(ctx *Context, tag int, values []any) error
	// Finalize is called once after all Reduce calls complete: write final
	// results, feed consumers, clean up.
	Finalize(ctx *Context) error
}

// Combiner is an optional Operator extension: Combine merges the locally
// emitted values for one tag before the shuffle, cutting shuffle volume
// (the classic combiner optimization).
type Combiner interface {
	Combine(tag int, values []any) ([]any, error)
}

// BlockMapper is an optional Operator extension for an operator whose Map
// reads only the rows of the chunk's one float64 array, so it can map a
// chunk block by block while the engine's walk has each block in cache.
// StartMap validates the chunk as Map would and returns the chunk's
// accumulator; the engine then hands it every row of the record's sole
// float64 array, in order, in blocks of ffs.BlockRows rows, and calls Emit
// once the payload verifies. Map must give what StartMap, every block and
// Emit give. A block-mapped chunk's bytes go back to their writer as soon
// as the engine is done with the chunk (Chunk.Release), so the values a
// BlockMapper emits, from Emit or Map, must not alias the payload.
type BlockMapper interface {
	StartMap(ctx *Context, chunk *Chunk) (RowMapper, error)
}

// RowMapper is one chunk's accumulator for a BlockMapper.
type RowMapper interface {
	// MapRows maps rows [lo, hi) of the chunk's float64 array.
	MapRows(lo, hi int)
	// Emit emits the chunk's intermediate values with Context.Emit. A
	// chunk whose payload fails verification is never emitted.
	Emit()
}

// MapInBlocks runs m over all rows of a in the walk's blocks and emits:
// a BlockMapper's Map.
func MapInBlocks(m RowMapper, a *ffs.Array) {
	rows := int(a.Dims[0])
	if rows > 0 {
		step := ffs.BlockRows(max(len(a.Float64)/rows, 1))
		for lo := 0; lo < rows; lo += step {
			m.MapRows(lo, min(lo+step, rows))
		}
	}
	m.Emit()
}

// Partitioner is an optional Operator extension overriding the default
// tag%size routing of intermediate values to staging ranks.
type Partitioner interface {
	Partition(tag, stagingRanks int) int
}

// Config controls engine execution.
type Config struct {
	// Workers is the number of Map worker threads per staging rank,
	// mirroring the paper's multi-threaded staging processes. Values < 1
	// mean 1.
	Workers int
}

// Engine executes operators over chunk streams.
type Engine struct {
	cfg Config

	// dump is the timestep being served, and the flight-recorder state
	// stamps it on phase spans. A staging rank serves dumps serially from
	// one goroutine, so plain fields suffice; the Map workers only read
	// them.
	dump    int64
	tracer  *trace.Recorder
	traceEP int
}

// NewEngine returns an engine with the given configuration.
func NewEngine(cfg Config) *Engine {
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	return &Engine{cfg: cfg, traceEP: -1}
}

// SetTracer attaches a flight recorder; endpoint is the world rank
// recorded on this engine's phase spans. A nil recorder records
// nothing.
func (e *Engine) SetTracer(tr *trace.Recorder, endpoint int) {
	e.tracer = tr
	e.traceEP = endpoint
}

// SetDump names the timestep the next ProcessDump serves (0 until
// set): operators read it as Context.Step, and phase spans carry it. The
// caller must not invoke it concurrently with ProcessDump.
func (e *Engine) SetDump(dump int64) { e.dump = dump }

// Context is the per-operator, per-dump execution context handed to every
// operator callback.
type Context struct {
	comm    *mpi.Comm
	op      string
	mu      sync.Mutex
	emitted map[int][]any
	results map[string]any
	step    int64
}

// Rank returns the staging rank executing this context.
func (c *Context) Rank() int { return c.comm.Rank() }

// Ranks returns the number of staging ranks.
func (c *Context) Ranks() int { return c.comm.Size() }

// Step returns the timestep of the dump being processed. The engine
// knows it before the first chunk arrives, so a rank that maps no chunk
// still writes its output under the right timestep.
func (c *Context) Step() int64 { return c.step }

// Comm exposes the staging communicator so operators can run custom
// shuffles and synchronization with standard message passing — the paper's
// "standard programming model" insight.
func (c *Context) Comm() *mpi.Comm { return c.comm }

// Emit records an intermediate (tag, value) pair during Map.
func (c *Context) Emit(tag int, value any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.emitted[tag] = append(c.emitted[tag], value)
}

// SetResult stores a named final result, retrievable from the dump Result.
func (c *Context) SetResult(key string, value any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.results[key] = value
}

// Result reports the outcome of one dump on one staging rank.
type Result struct {
	// PerOperator maps operator name to its SetResult outputs.
	PerOperator map[string]map[string]any
	// Chunks is the number of chunks this rank processed.
	Chunks int
	// Breakdown records per-phase wall-clock time across all operators.
	Breakdown *metrics.Breakdown
	// OperatorBreakdown attributes per-phase time to each operator — the
	// placement-decision input the paper's "automate placement decisions"
	// future work calls for. Map time is summed across workers, so it can
	// exceed the Breakdown's wall-clock map bucket.
	OperatorBreakdown map[string]*metrics.Breakdown
	// OperatorEmitted counts the intermediate values each operator
	// emitted locally (after Combine) — the per-operator shuffle volume.
	OperatorEmitted map[string]int
	// Degraded marks a dump completed under failure recovery or overload
	// shedding: chunks were dropped because their endpoint crashed, the
	// staging area was operating with fewer ranks than it started with,
	// or optional operators fell back to sampled input. The results are
	// valid over the data that survived.
	Degraded bool
	// ShedOperators lists the optional operators that ran on sampled
	// input because the overload ladder reached shed level.
	ShedOperators []string
	// ShedSkips counts chunks withheld from optional operators.
	ShedSkips int
}

// taggedValue is the shuffle wire format.
type taggedValue struct {
	Tag   int
	Value any
}

// ProcessDump drives all operators over the chunk stream for one I/O dump.
// Every staging rank of comm must call ProcessDump collectively with the
// same operator list (the shuffle and reduce phases synchronize). The
// chunks channel must be closed by the producer when the dump's last
// chunk has been delivered.
func (e *Engine) ProcessDump(comm *mpi.Comm, chunks <-chan *Chunk, ops []Operator, agg map[string]any) (*Result, error) {
	res := &Result{
		PerOperator:       make(map[string]map[string]any, len(ops)),
		Breakdown:         metrics.NewBreakdown(),
		OperatorBreakdown: make(map[string]*metrics.Breakdown, len(ops)),
		OperatorEmitted:   make(map[string]int, len(ops)),
	}
	for _, op := range ops {
		res.OperatorBreakdown[op.Name()] = metrics.NewBreakdown()
	}
	ctxs := make([]*Context, len(ops))
	for i, op := range ops {
		ctxs[i] = &Context{
			comm:    comm,
			op:      op.Name(),
			emitted: make(map[int][]any),
			results: make(map[string]any),
			step:    e.dump,
		}
	}

	// Initialize.
	start := time.Now()
	sp := e.tracer.Begin(trace.PhaseInitialize, e.traceEP, -1, e.dump, -1)
	for i, op := range ops {
		if err := op.Initialize(ctxs[i], agg); err != nil {
			sp.End(0)
			return nil, fmt.Errorf("staging: %s.Initialize: %w", op.Name(), err)
		}
	}
	sp.End(int64(len(ops)))
	res.Breakdown.Add("initialize", time.Since(start))

	// Map: stream chunks through a worker pool. Each chunk visits every
	// operator, preserving the paper's read-once constraint. Shedding
	// only skips Map calls of optional operators — every rank still
	// issues the identical collective sequence below, so a shed decision
	// can never desynchronize the shuffle.
	optional := make([]bool, len(ops))
	anyOptional := false
	for i, op := range ops {
		if o, ok := op.(Optional); ok && o.Optional() {
			optional[i] = true
			anyOptional = true
		}
	}
	start = time.Now()
	sp = e.tracer.Begin(trace.PhaseMap, e.traceEP, -1, e.dump, -1)
	m := &mapper{ops: ops, ctxs: ctxs, optional: optional, bd: res.OperatorBreakdown}
	var (
		wg       sync.WaitGroup
		nChunks  int64
		nSkips   int64
		shedSeen bool
		countMu  sync.Mutex
	)
	for w := 0; w < e.cfg.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for chunk := range chunks {
				mapped := m.mapChunk(chunk)
				if chunk.Release != nil {
					chunk.Release()
				}
				if mapped == nil {
					continue // dropped as corrupt
				}
				e.tracer.Instant(trace.PhaseChunk, e.traceEP, mapped.WriterRank,
					mapped.Timestep, int64(mapped.WriterRank), int64(chunk.Shed))
				countMu.Lock()
				nChunks++
				if chunk.Shed != ShedNone {
					shedSeen = true
					if chunk.Shed == ShedSkipped {
						nSkips++
					}
				}
				countMu.Unlock()
			}
		}()
	}
	wg.Wait()
	sp.End(nChunks)
	res.Chunks = int(nChunks)
	res.ShedSkips = int(nSkips)
	if shedSeen && anyOptional {
		res.Degraded = true
		for i, op := range ops {
			if optional[i] {
				res.ShedOperators = append(res.ShedOperators, op.Name())
			}
		}
	}
	res.Breakdown.Add("map", time.Since(start))
	if mapErr := m.err; mapErr != nil {
		// All ranks must still participate in the shuffle collectives to
		// avoid deadlocking peers; exchange empty buckets, then report.
		for range ops {
			empty := make([][]taggedValue, comm.Size())
			if _, err := mpi.Alltoall(comm, empty); err != nil {
				return nil, fmt.Errorf("staging: error-path shuffle: %w (after %w)", err, mapErr)
			}
		}
		return nil, mapErr
	}

	// Combine + Shuffle + Reduce, one operator at a time so that every
	// rank issues collectives in the same order.
	for i, op := range ops {
		opBD := res.OperatorBreakdown[op.Name()]
		start = time.Now()
		sp = e.tracer.Begin(trace.PhaseCombine, e.traceEP, -1, e.dump, int64(i))
		ctx := ctxs[i]
		if cb, ok := op.(Combiner); ok {
			for tag, vals := range ctx.emitted {
				merged, err := cb.Combine(tag, vals)
				if err != nil {
					sp.End(0)
					return nil, fmt.Errorf("staging: %s.Combine: %w", op.Name(), err)
				}
				ctx.emitted[tag] = merged
			}
		}
		res.Breakdown.Add("combine", time.Since(start))
		opBD.Add("combine", time.Since(start))
		emitted := 0
		for _, vals := range ctx.emitted {
			emitted += len(vals)
		}
		res.OperatorEmitted[op.Name()] = emitted
		sp.End(int64(emitted))

		start = time.Now()
		sp = e.tracer.Begin(trace.PhaseShuffle, e.traceEP, -1, e.dump, int64(i))
		partition := func(tag int) int {
			if p, ok := op.(Partitioner); ok {
				return p.Partition(tag, comm.Size())
			}
			return ((tag % comm.Size()) + comm.Size()) % comm.Size()
		}
		buckets := make([][]taggedValue, comm.Size())
		for tag, vals := range ctx.emitted {
			dst := partition(tag)
			if dst < 0 || dst >= comm.Size() {
				sp.End(0)
				return nil, fmt.Errorf("staging: %s.Partition(%d) = %d outside [0,%d)",
					op.Name(), tag, dst, comm.Size())
			}
			for _, v := range vals {
				buckets[dst] = append(buckets[dst], taggedValue{Tag: tag, Value: v})
			}
		}
		recv, err := mpi.Alltoall(comm, buckets)
		if err != nil {
			sp.End(0)
			return nil, fmt.Errorf("staging: %s shuffle: %w", op.Name(), err)
		}
		sp.End(int64(emitted))
		res.Breakdown.Add("shuffle", time.Since(start))
		opBD.Add("shuffle", time.Since(start))

		start = time.Now()
		sp = e.tracer.Begin(trace.PhaseReduce, e.traceEP, -1, e.dump, int64(i))
		groups := make(map[int][]any)
		for _, row := range recv {
			for _, tv := range row {
				groups[tv.Tag] = append(groups[tv.Tag], tv.Value)
			}
		}
		// Deterministic reduce order.
		tags := make([]int, 0, len(groups))
		for tag := range groups {
			tags = append(tags, tag)
		}
		sort.Ints(tags)
		for _, tag := range tags {
			if err := op.Reduce(ctx, tag, groups[tag]); err != nil {
				sp.End(0)
				return nil, fmt.Errorf("staging: %s.Reduce(tag %d): %w", op.Name(), tag, err)
			}
		}
		sp.End(int64(len(tags)))
		res.Breakdown.Add("reduce", time.Since(start))
		opBD.Add("reduce", time.Since(start))
	}

	// Finalize.
	start = time.Now()
	sp = e.tracer.Begin(trace.PhaseFinalize, e.traceEP, -1, e.dump, -1)
	for i, op := range ops {
		if err := op.Finalize(ctxs[i]); err != nil {
			sp.End(0)
			return nil, fmt.Errorf("staging: %s.Finalize: %w", op.Name(), err)
		}
		res.PerOperator[op.Name()] = ctxs[i].results
	}
	sp.End(int64(len(ops)))
	res.Breakdown.Add("finalize", time.Since(start))
	return res, nil
}

// DecodeChunk unpacks an FFS-encoded packed partial data chunk into a
// Chunk. The buffer must carry the writer rank and timestep under the
// reserved field names "_rank" and "_timestep" (the predata compute
// runtime adds them when packing).
func DecodeChunk(buf []byte) (*Chunk, error) {
	// The pipeline hands over a raw FFS payload: verified at the pull, or
	// still unchecked for the engine's walk (Chunk.Unverified, which the
	// caller sets). Accepting a still-sealed chunk (verifying it in
	// passing) keeps direct callers honest without a second API.
	if Sealed(buf) {
		payload, err := Unseal(buf)
		if err != nil {
			return nil, err
		}
		buf = payload
	}
	schema, rec, err := ffs.Decode(buf)
	if err != nil {
		return nil, err
	}
	rank, ok := rec["_rank"].(int64)
	if !ok {
		return nil, fmt.Errorf("staging: chunk missing _rank field")
	}
	step, ok := rec["_timestep"].(int64)
	if !ok {
		return nil, fmt.Errorf("staging: chunk missing _timestep field")
	}
	return &Chunk{WriterRank: int(rank), Timestep: step, Schema: schema, Record: rec}, nil
}
