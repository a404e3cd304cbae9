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
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"predata/internal/ffs"
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
	// seen the chunk or its re-pulled copy (including error, shed and
	// corrupt-drop paths); the engine itself reads none of the chunk's
	// bytes after it, except in a dump whose checks wait for Reduce
	// (VerifyingReducer), whose chunks it keeps to the end of the dump.
	Release func()

	// Unverified, when non-nil, is the FFS payload Record was decoded
	// from, whose checksum nobody has checked yet: the engine checks it
	// against Sum before anything of the chunk is committed, folding each
	// float64 array's bytes where a pass reads them — its block walk when
	// every operator is a BlockMapper, the Map or Reduce that reads them
	// when every operator is a VerifyingReducer — and summing every other
	// byte when the check is judged. Any other chunk, and one whose Record
	// was not decoded from these very bytes, is checked whole before any
	// operator sees it, so a Map sees Unverified set only while a
	// VerifyingReducer's check is pending. On a mismatch the engine drops
	// what it built from the payload and calls Corrupt.
	Unverified []byte
	Sum        uint32
	// Corrupt returns a re-pulled copy of the chunk, checked, to map in
	// this one's place (the engine keeps this chunk's Shed and Release), or
	// nil when the chunk is dropped: it then reaches no operator of the
	// pass that commits and records no PhaseChunk. An error fails the dump
	// like a Map error.
	Corrupt func() (*Chunk, error)
	// layout is where Record's float64 arrays lie in the payload
	// DecodeChunk decoded it from (ffs.DecodeExtents), whose first byte is
	// base.
	layout []ffs.Extent
	base   *byte
	// check is the chunk's pending check while it waits for Reduce.
	check *check
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
// An operator that emits values (Emit) emits values of one type V and is a
// Reducer[V]; one that emits nothing needs no Reduce. A chunk's record
// values are views into its writer's frame, read-only. An operator may keep
// them — emit them, read them in Reduce — until the dump's Finalize
// returns, and no longer: after that the writer reuses the frame for a
// later dump.
type Operator interface {
	// Name identifies the operator in results and errors.
	Name() string
	// Initialize is called once at the beginning of an I/O dump, with the
	// aggregated results generated from the pre-fetch request phase.
	Initialize(ctx *Context, agg map[string]any) error
	// Map is called once per chunk. Intermediate results are emitted with
	// Emit and later grouped by tag for Reduce.
	Map(ctx *Context, chunk *Chunk) error
	// Finalize is called once after all Reduce calls complete: write final
	// results, feed consumers, clean up.
	Finalize(ctx *Context) error
}

// Reducer is the Operator extension that receives what its Map emits:
// Reduce is called once per tag owned by this staging rank, tags
// ascending, with all the values emitted under that tag across all ranks,
// by sender rank and then emission order.
type Reducer[V any] interface {
	Reduce(ctx *Context, tag int, values []V) error
}

// Combiner is an optional extension of an operator that emits values of
// type V: Combine merges the locally emitted values for one tag before the
// shuffle, cutting shuffle volume (the classic combiner optimization).
type Combiner[V any] interface {
	Combine(tag int, values []V) ([]V, error)
}

// BlockMapper is an optional Operator extension for an operator whose Map
// reads only the rows of the chunk's one float64 array, so it can map a
// chunk block by block while the engine's walk has each block in cache.
// StartMap validates the chunk as Map would and returns the chunk's
// accumulator; the engine then hands it every row of the record's sole
// float64 array, in order, in blocks of ffs.BlockRows rows, and calls Emit
// once the payload verifies. Map must give what StartMap, every block and
// Emit give. How long a chunk's bytes live is a property of the chunk: a
// block-mapped chunk's go back to their writer as soon as the engine is
// done with the chunk (Chunk.Release), so the values a BlockMapper emits
// for it, from Emit or Map, must not alias the payload; any other chunk's
// stay readable until the dump's Finalize returns.
type BlockMapper interface {
	StartMap(ctx *Context, chunk *Chunk) (RowMapper, error)
}

// BlockMapped reports whether every operator is a BlockMapper: the dumps
// whose chunks the engine walks, and whose values never alias a payload.
func BlockMapped(ops []Operator) bool { return every[BlockMapper](ops) }

// every reports whether ops is not empty and every operator is a T.
func every[T any](ops []Operator) bool {
	for _, op := range ops {
		if _, ok := op.(T); !ok {
			return false
		}
	}
	return len(ops) > 0
}

// RowMapper is one chunk's accumulator for a BlockMapper.
type RowMapper interface {
	// MapRows maps rows [lo, hi) of the chunk's float64 array.
	MapRows(lo, hi int)
	// Emit emits the chunk's intermediate values with Emit. A chunk whose
	// payload fails verification is never emitted.
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
	op      Operator
	mu      sync.Mutex
	emitted emissions // nil until the first Emit
	err     error     // an ErrEmitType
	results map[string]any
	step    int64
	checks  *checks // the dump's pending chunk checks, while they wait for Reduce
	views   []View  // the slab View hands views out of
	folded  []*View // the views folded on this rank, whose sums the verify step sends
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

// ErrEmitType fails a dump, like a Map error, in which an operator emitted
// values of a second type, or of a type it has no Reducer for.
var ErrEmitType = errors.New("staging: operator emitted a value it cannot reduce")

// Emit records an intermediate (tag, value) pair during Map. The shuffle
// routes it to staging rank tag mod Ranks(), whose Reducer[V] receives it
// with the tag's other values.
func Emit[V any](ctx *Context, tag int, value V) {
	ctx.mu.Lock()
	defer ctx.mu.Unlock()
	e, ok := ctx.emitted.(emits[V])
	if !ok {
		if _, reduces := ctx.op.(Reducer[V]); ctx.emitted != nil || !reduces {
			if ctx.err == nil {
				ctx.err = fmt.Errorf("%w: %s emitted a %T", ErrEmitType, ctx.op.Name(), value)
			}
			return
		}
		e = emits[V]{}
		ctx.emitted = e
	}
	e[tag] = append(e[tag], value)
}

// emissions are one operator's emits on one rank as the engine sees them.
// route combines each tag's values with the operator's Combiner, if it has
// one, and returns each tag's run in the bucket of the rank owning the
// tag, with how many values they hold.
type emissions interface {
	route(op Operator, ranks int) (buckets [][]run, values int, err error)
}

// run is one tag's values from one rank, on its way to the rank owning the
// tag: the shuffle's element, whatever the values' type.
type run interface {
	// reduce orders runs, all that this rank received for the operator,
	// stably by tag, and calls its Reduce once per tag with the tag's
	// values, by sender rank and then emission order — from the first
	// failure on, or with skip, no more. It returns the number of tags.
	reduce(ctx *Context, runs []run, skip bool) (tags int, err error)
}

// emits are the emissions of an operator whose values are Vs, by tag.
type emits[V any] map[int][]V

type emitRun[V any] struct {
	tag  int
	vals []V
}

func (e emits[V]) route(op Operator, ranks int) (buckets [][]run, values int, err error) {
	cb, combines := op.(Combiner[V])
	runs := make([]emitRun[V], 0, len(e))
	for tag, vals := range e {
		if combines {
			if vals, err = cb.Combine(tag, vals); err != nil {
				return nil, 0, err
			}
		}
		runs = append(runs, emitRun[V]{tag, vals})
		values += len(vals)
	}
	// Grouped by destination, each rank's bucket is an exact run of one
	// allocation.
	slices.SortFunc(runs, func(a, b emitRun[V]) int { return cmp.Compare(owner(a.tag, ranks), owner(b.tag, ranks)) })
	flat, buckets := make([]run, len(runs)), make([][]run, ranks)
	for i := range runs {
		flat[i] = &runs[i]
		dst := owner(runs[i].tag, ranks)
		buckets[dst] = flat[i-len(buckets[dst]) : i+1 : i+1]
	}
	return buckets, values, nil
}

// owner is the staging rank that reduces tag.
func owner(tag, ranks int) int { return ((tag % ranks) + ranks) % ranks }

func (*emitRun[V]) reduce(ctx *Context, runs []run, skip bool) (tags int, err error) {
	as := func(r run) *emitRun[V] { return r.(*emitRun[V]) }
	slices.SortStableFunc(runs, func(a, b run) int { return cmp.Compare(as(a).tag, as(b).tag) })
	n := 0
	for _, r := range runs {
		n += len(as(r).vals)
	}
	// Every tag's values are an exact run of one allocation.
	vals := make([]V, 0, n)
	for lo, hi := 0, 0; lo < len(runs); lo, tags = hi, tags+1 {
		tag, at := as(runs[lo]).tag, len(vals)
		for hi = lo; hi < len(runs) && as(runs[hi]).tag == tag; hi++ {
			vals = append(vals, as(runs[hi]).vals...)
		}
		if !skip && err == nil {
			if err = ctx.op.(Reducer[V]).Reduce(ctx, tag, slices.Clip(vals[at:])); err != nil {
				err = fmt.Errorf("staging: %s.Reduce(tag %d): %w", ctx.op.Name(), tag, err)
			}
		}
	}
	return tags, err
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
	Breakdown Phases
	// OperatorBreakdown attributes per-phase time to each operator — the
	// placement-decision input the paper's "automate placement decisions"
	// future work calls for. Map time is summed across workers, so it can
	// exceed the Breakdown's wall-clock map time.
	OperatorBreakdown map[string]*Phases
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

// Phases is one dump's wall-clock time per engine phase, indexed by
// trace.PhaseInitialize … trace.PhaseFinalize: the paper's per-phase
// breakdown (Fig. 8(b), 10(b)).
type Phases [trace.PhaseFinalize - trace.PhaseInitialize + 1]time.Duration

// Names returns the phases' names in engine order.
func (p Phases) Names() []string {
	names := make([]string, len(p))
	for i := range p {
		names[i] = (trace.PhaseInitialize + trace.Phase(i)).String()
	}
	return names
}

// Get returns the named phase's time (0 for a name that is no phase).
func (p Phases) Get(name string) time.Duration {
	for i := range p {
		if (trace.PhaseInitialize + trace.Phase(i)).String() == name {
			return p[i]
		}
	}
	return 0
}

func (p *Phases) add(ph trace.Phase, d time.Duration) { p[ph-trace.PhaseInitialize] += d }

// drain runs a dump's chunk stream out without mapping it, releasing each
// chunk: a dump that fails before its Map phase must still take every
// chunk its producer sends, or the producer blocks on the channel for good.
func drain(chunks <-chan *Chunk) {
	for chunk := range chunks {
		if chunk.Release != nil {
			chunk.Release()
		}
	}
}

// ProcessDump drives all operators over the chunk stream for one I/O dump.
// Every staging rank of comm must call ProcessDump collectively with the
// same operator list (the shuffle and reduce phases synchronize). Results
// are keyed by operator name, so a name given twice is rejected before
// any operator runs — on every rank alike, ahead of any collective. The
// chunks channel must be closed by the producer when the dump's last
// chunk has been delivered; ProcessDump returns only after that, failed
// or not, so the producer is done when it returns.
func (e *Engine) ProcessDump(comm *mpi.Comm, chunks <-chan *Chunk, ops []Operator, agg map[string]any) (*Result, error) {
	res := &Result{
		PerOperator:       make(map[string]map[string]any, len(ops)),
		OperatorBreakdown: make(map[string]*Phases, len(ops)),
	}
	opBD := make([]*Phases, len(ops))
	for i, op := range ops {
		if _, dup := res.OperatorBreakdown[op.Name()]; dup {
			drain(chunks)
			return nil, fmt.Errorf("staging: operator name %q given twice", op.Name())
		}
		opBD[i] = new(Phases)
		res.OperatorBreakdown[op.Name()] = opBD[i]
	}
	// phase opens phase ph's span and clock, for operator i or (i < 0)
	// all of them, and returns the closer: it ends the span with arg and
	// adds the elapsed time to the rank's table and operator i's.
	phase := func(ph trace.Phase, i int) func(arg int64) {
		start := time.Now()
		sp := e.tracer.Begin(ph, e.traceEP, -1, e.dump, int64(i))
		return func(arg int64) {
			sp.End(arg)
			d := time.Since(start)
			res.Breakdown.add(ph, d)
			if i >= 0 {
				opBD[i].add(ph, d)
			}
		}
	}
	optional, shedable := make([]bool, len(ops)), []string(nil)
	for i, op := range ops {
		if o, ok := op.(Optional); ok && o.Optional() {
			optional[i], shedable = true, append(shedable, op.Name())
		}
	}

	// A dump whose operators all verify in Reduce keeps every chunk to its
	// end: the verify step reads the unchecked ones, and a redo maps them
	// all again. Whether a dump verifies in Reduce depends only on ops, so
	// every rank issues the verify step's collectives, or none does.
	deferred := every[VerifyingReducer](ops)
	var (
		ctxs []*Context
		held []*Chunk
		src  = chunks
		// repulled is the first failure to re-pull a bad chunk, which
		// fails the redo's Map phase.
		repulled error
	)
	for pass := 0; ; pass++ {
		first := pass == 0
		var cs *checks
		if deferred && first {
			cs = &checks{}
		}
		ctxs = make([]*Context, len(ops))
		for i, op := range ops {
			ctxs[i] = &Context{
				comm:    comm,
				op:      op,
				results: make(map[string]any),
				step:    e.dump,
				checks:  cs,
			}
		}

		// Initialize.
		end := phase(trace.PhaseInitialize, -1)
		for i, op := range ops {
			if err := op.Initialize(ctxs[i], agg); err != nil {
				end(0)
				if first {
					drain(chunks)
				}
				return nil, fmt.Errorf("staging: %s.Initialize: %w", op.Name(), err)
			}
		}
		end(int64(len(ops)))

		// Map: stream chunks through a worker pool. Each chunk visits every
		// operator, preserving the paper's read-once constraint. Shedding
		// only skips Map calls of optional operators — every rank still
		// issues the identical collective sequence below, so a shed decision
		// can never desynchronize the shuffle. A chunk is released after its
		// first pass only.
		end = phase(trace.PhaseMap, -1)
		m := &mapper{ops: ops, ctxs: ctxs, optional: optional, spent: make([]atomic.Int64, len(ops)), checks: cs}
		if repulled != nil {
			m.fail(repulled)
		}
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
				for chunk := range src {
					shed := chunk.Shed // the chunk is not read after its Release
					mapped := m.mapChunk(chunk)
					if mapped != nil && !deferred {
						e.tracer.Instant(trace.PhaseChunk, e.traceEP, mapped.WriterRank,
							mapped.Timestep, int64(mapped.WriterRank), int64(shed))
					}
					if first && chunk.Release != nil {
						chunk.Release()
					}
					if mapped == nil {
						continue // dropped as corrupt
					}
					countMu.Lock()
					nChunks++
					if shed != ShedNone {
						shedSeen = true
						if shed == ShedSkipped {
							nSkips++
						}
					}
					if cs != nil {
						held = append(held, mapped)
					}
					countMu.Unlock()
				}
			}()
		}
		wg.Wait()
		end(nChunks)
		for i, ctx := range ctxs {
			opBD[i].add(trace.PhaseMap, time.Duration(m.spent[i].Load()))
			if ctx.err != nil {
				m.fail(ctx.err)
			}
		}
		res.Chunks = int(nChunks)
		res.ShedSkips = int(nSkips)
		res.Degraded, res.ShedOperators = false, nil
		if shedSeen && shedable != nil {
			res.Degraded, res.ShedOperators = true, shedable
		}

		// Combine + Shuffle + Reduce, one operator at a time so that every
		// rank issues collectives in the same order. A rank that failed — in
		// Map, a Combine or a Reduce — still joins every later shuffle and
		// the verify step, so no peer waits on it, but sends nothing, reduces
		// nothing, and then fails. While checks are pending, a failure may be
		// the work of damaged bytes: it is judged after the verify step.
		failure := m.err
		for i, op := range ops {
			end = phase(trace.PhaseCombine, i)
			ctx := ctxs[i]
			buckets, emitted, err := [][]run(nil), 0, error(nil)
			if ctx.emitted != nil && failure == nil {
				if buckets, emitted, err = ctx.emitted.route(op, comm.Size()); err != nil {
					failure = fmt.Errorf("staging: %s.Combine: %w", op.Name(), err)
				}
			}
			if buckets == nil {
				buckets = make([][]run, comm.Size())
			}
			end(int64(emitted))

			end = phase(trace.PhaseShuffle, i)
			recv, err := mpi.Alltoall(comm, buckets)
			if err != nil {
				end(0)
				return nil, fmt.Errorf("staging: %s shuffle: %w", op.Name(), err)
			}
			end(int64(emitted))

			end = phase(trace.PhaseReduce, i)
			tags, all := 0, slices.Concat(recv...)
			if len(all) > 0 {
				if tags, err = all[0].reduce(ctx, all, failure != nil); err != nil {
					failure = err
				}
			}
			end(int64(tags))
		}
		if cs == nil {
			if failure != nil {
				return nil, failure
			}
			break
		}
		start := time.Now()
		bad, redo, failed, err := cs.verify(comm, ctxs, failure != nil)
		res.Breakdown.add(trace.PhaseReduce, time.Since(start))
		switch {
		case err != nil:
			return nil, err
		case redo:
			// Nothing of this pass is kept: Initialize drops what the
			// operators reserved, and the redo maps every chunk checked.
			held, repulled = repull(held, bad)
			feed := make(chan *Chunk, len(held))
			for _, c := range held {
				feed <- c
			}
			close(feed)
			src = feed
			continue
		case failure != nil:
			return nil, failure
		case failed:
			return nil, errors.New("staging: another rank failed on checked chunks")
		}
		break
	}
	for _, c := range held {
		// A chunk whose check waited for Reduce is retired once it passed.
		e.tracer.Instant(trace.PhaseChunk, e.traceEP, c.WriterRank, c.Timestep, int64(c.WriterRank), int64(c.Shed))
	}

	// Finalize.
	end := phase(trace.PhaseFinalize, -1)
	for i, op := range ops {
		if err := op.Finalize(ctxs[i]); err != nil {
			end(0)
			return nil, fmt.Errorf("staging: %s.Finalize: %w", op.Name(), err)
		}
		res.PerOperator[op.Name()] = ctxs[i].results
	}
	end(int64(len(ops)))
	return res, nil
}

// repull replaces each chunk of held whose check failed with its re-pulled
// copy (Chunk.Corrupt), which keeps the old one's Shed, or drops it, marks
// every other chunk checked, and returns the chunks a redo maps, with the
// first re-pull failure.
func repull(held, bad []*Chunk) ([]*Chunk, error) {
	next := make(map[*Chunk]*Chunk, len(bad))
	var first error
	for _, c := range bad {
		next[c] = nil
		if c.Corrupt == nil {
			continue
		}
		n, err := c.Corrupt()
		if err != nil && first == nil {
			first = fmt.Errorf("staging: chunk from rank %d: %w", c.WriterRank, err)
		}
		if n != nil {
			n.Shed = c.Shed
			next[c] = n
		}
	}
	var out []*Chunk
	for _, c := range held {
		if n, ok := next[c]; ok {
			c = n
		} else {
			c.Unverified, c.check = nil, nil // it passed
		}
		if c != nil {
			out = append(out, c)
		}
	}
	return out, first
}

// DecodeChunk unpacks an FFS-encoded packed partial data chunk into a
// Chunk. The buffer must carry the writer rank and timestep under the
// reserved field names "_rank" and "_timestep" (the predata compute
// runtime adds them when packing).
func DecodeChunk(buf []byte) (*Chunk, error) { return decodeChunk(nil, buf) }

// A Decoder decodes one stream of chunks: a chunk whose schema bytes repeat
// the last chunk's shares that chunk's *ffs.Schema (ffs.Decoder). The zero
// value is ready for use, also by concurrent goroutines.
type Decoder struct{ schemas ffs.Decoder }

// DecodeChunk is DecodeChunk through d's schema.
func (d *Decoder) DecodeChunk(buf []byte) (*Chunk, error) { return decodeChunk(&d.schemas, buf) }

// decodeChunk is DecodeChunk through schemas, which may be nil.
func decodeChunk(schemas *ffs.Decoder, buf []byte) (*Chunk, error) {
	schema, rec, layout, err := schemas.DecodeExtents(buf)
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
	return &Chunk{WriterRank: int(rank), Timestep: step, Schema: schema, Record: rec, layout: layout, base: &buf[0]}, nil
}
