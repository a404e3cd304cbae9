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
	// float64 array's bytes, at the extents DecodeChunk's one parse found,
	// where a pass reads them — the engine's block walk when every operator
	// of the dump is a BlockMapper, the Map or Reduce that reads
	// them when every operator is a VerifyingReducer (settled by the verify
	// step) — and summing every other byte when the check is judged. Any
	// other chunk is checked whole before any operator sees it and goes on
	// with Unverified cleared, so a Map sees it set only while a
	// VerifyingReducer's check is pending. A chunk whose Record was not
	// decoded from these very bytes is checked whole, never walked. On a
	// mismatch the engine drops what it built from the payload and calls
	// Corrupt.
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
func BlockMapped(ops []Operator) bool {
	for _, op := range ops {
		if _, ok := op.(BlockMapper); !ok {
			return false
		}
	}
	return len(ops) > 0
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
	checks  *checks // the dump's pending chunk checks, while they wait for Reduce
	views   []View  // the slab View hands views out of
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

// Emit records an intermediate (tag, value) pair during Map. The shuffle
// routes it to staging rank tag mod Ranks().
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

// taggedValue is the shuffle wire format.
type taggedValue struct {
	Tag   int
	Value any
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
	optional := make([]bool, len(ops))
	anyOptional := false
	for i, op := range ops {
		if o, ok := op.(Optional); ok && o.Optional() {
			optional[i] = true
			anyOptional = true
		}
	}

	// A dump whose operators all verify in Reduce keeps every chunk to its
	// end: the verify step reads the unchecked ones, and a redo maps them
	// all again. Whether a dump verifies in Reduce depends only on ops, so
	// every rank issues the verify step's collectives, or none does.
	deferred := verifiesInReduce(ops)
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
				op:      op.Name(),
				emitted: make(map[int][]any),
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
		for i := range ops {
			opBD[i].add(trace.PhaseMap, time.Duration(m.spent[i].Load()))
		}
		res.Chunks = int(nChunks)
		res.ShedSkips = int(nSkips)
		res.Degraded, res.ShedOperators = false, nil
		if shedSeen && anyOptional {
			res.Degraded = true
			for i, op := range ops {
				if optional[i] {
					res.ShedOperators = append(res.ShedOperators, op.Name())
				}
			}
		}
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
		// rank issues collectives in the same order. While checks are
		// pending, a Reduce error may be the work of damaged bytes: it is
		// judged after the verify step, and the later operators only
		// shuffle.
		var (
			views     []*View // the pending parts this rank reduced
			reduceErr error
		)
		for i, op := range ops {
			end = phase(trace.PhaseCombine, i)
			ctx := ctxs[i]
			if cb, ok := op.(Combiner); ok {
				for tag, vals := range ctx.emitted {
					merged, err := cb.Combine(tag, vals)
					if err != nil {
						end(0)
						return nil, fmt.Errorf("staging: %s.Combine: %w", op.Name(), err)
					}
					ctx.emitted[tag] = merged
				}
			}
			emitted := 0
			for _, vals := range ctx.emitted {
				emitted += len(vals)
			}
			end(int64(emitted))

			end = phase(trace.PhaseShuffle, i)
			// Each rank's bucket is an exact run of one allocation.
			dstOf := func(tag int) int { return ((tag % comm.Size()) + comm.Size()) % comm.Size() }
			counts := make([]int, comm.Size())
			for tag, vals := range ctx.emitted {
				counts[dstOf(tag)] += len(vals)
			}
			flat, buckets := make([]taggedValue, emitted), make([][]taggedValue, comm.Size())
			for dst, at := 0, 0; dst < len(buckets); dst, at = dst+1, at+counts[dst] {
				buckets[dst] = flat[at : at : at+counts[dst]]
			}
			for tag, vals := range ctx.emitted {
				dst := dstOf(tag)
				for _, v := range vals {
					buckets[dst] = append(buckets[dst], taggedValue{Tag: tag, Value: v})
				}
			}
			recv, err := mpi.Alltoall(comm, buckets)
			if err != nil {
				end(0)
				return nil, fmt.Errorf("staging: %s shuffle: %w", op.Name(), err)
			}
			end(int64(emitted))

			end = phase(trace.PhaseReduce, i)
			// Deterministic reduce order: by tag, each tag's values in the
			// order they arrived, as an exact run of one allocation.
			all := slices.Concat(recv...)
			slices.SortStableFunc(all, func(a, b taggedValue) int { return cmp.Compare(a.Tag, b.Tag) })
			values, tags := make([]any, len(all)), 0
			for lo, hi := 0, 0; lo < len(all); lo, tags = hi, tags+1 {
				for ; hi < len(all) && all[hi].Tag == all[lo].Tag; hi++ {
					values[hi] = all[hi].Value
					if v, ok := all[hi].Value.(*View); ok && v.wire != nil {
						views = append(views, v)
					}
				}
				if reduceErr != nil {
					continue
				}
				if err := op.Reduce(ctx, all[lo].Tag, values[lo:hi:hi]); err != nil {
					err = fmt.Errorf("staging: %s.Reduce(tag %d): %w", op.Name(), all[lo].Tag, err)
					if cs == nil {
						end(0)
						return nil, err
					}
					reduceErr = err
				}
			}
			end(int64(tags))
		}
		if cs == nil {
			break
		}
		start := time.Now()
		bad, redo, failed, err := cs.verify(comm, views, reduceErr != nil)
		res.Breakdown.add(trace.PhaseReduce, time.Since(start))
		switch {
		case err != nil:
			return nil, err
		case redo:
			// Nothing of this pass is kept: Initialize drops what the
			// operators reserved, and the redo maps every chunk checked.
			held, repulled = repull(held, bad)
			src = closedFeed(held)
			continue
		case reduceErr != nil:
			return nil, reduceErr
		case failed:
			return nil, errors.New("staging: another rank's Reduce failed on checked chunks")
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

// closedFeed returns a closed channel that delivers chunks.
func closedFeed(chunks []*Chunk) <-chan *Chunk {
	ch := make(chan *Chunk, len(chunks))
	for _, c := range chunks {
		ch <- c
	}
	close(ch)
	return ch
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
