// Package predata is the core PreDatA middleware: it wires the compute-node
// runtime (Stage 1 of the paper's data flow) to the staging-area runtime
// (Stages 2–4) over the fabric.
//
// Compute side (Client): when the application performs I/O, the client runs
// the optional PartialCalculate first pass on the local output, packs the
// output into a contiguous FFS buffer (the packed partial data chunk),
// exposes it for RDMA pull, and sends a data-fetch request — with the small
// partial result piggybacked — to the staging node chosen by DefaultRoute. The
// application then resumes computation; only packing and request dispatch
// are visible I/O time.
//
// Staging side (Server): each staging rank gathers fetch requests from the
// compute ranks it serves, exchanges the piggybacked partials across the
// staging area, applies the user Aggregate function (global sizes, offsets,
// prefix sums, min/max — Stage 2), then pulls and decodes the packed chunks
// one by one, streaming them through the staging engine (Stages 3–4).
package predata

import (
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"slices"
	"sort"
	"sync"
	"time"

	"predata/internal/evpath"
	"predata/internal/fabric"
	"predata/internal/faults"
	"predata/internal/ffs"
	"predata/internal/flowctl"
	"predata/internal/mpi"
	"predata/internal/poison"
	"predata/internal/staging"
	"predata/internal/trace"
	"predata/internal/wal"
)

// FetchRequest is the control message a compute rank sends to its staging
// rank when a dump's data is ready to pull.
type FetchRequest struct {
	Handle     fabric.Handle
	WriterRank int
	Timestep   int64
	Bytes      int
	// Sum is the sealed frame's payload CRC (staging.SealSum): a pull
	// that verifies but carries another checksum is not this request's
	// chunk. With it, a journaled request names its chunk's bytes as well
	// as its region.
	Sum     uint32
	Partial any // result of PartialCalculate, piggybacked on the request
}

// RankPartial pairs a compute rank with its piggybacked partial result.
type RankPartial struct {
	Rank    int
	Partial any
}

// DefaultRoute assigns contiguous blocks of compute ranks to staging ranks
// (the paper's 64:1 / 128:1 server arrangement).
func DefaultRoute(writerRank, numCompute, numStaging int) int {
	if numStaging <= 0 {
		return 0
	}
	idx := writerRank * numStaging / numCompute
	if idx >= numStaging {
		idx = numStaging - 1
	}
	return idx
}

// PartialFunc is the compute-node first pass: a local, deterministic
// operation on the output data whose (small) result rides on the fetch
// request. Examples: local min/max, local array dimensions.
//
// When the record holds exactly one float64 array with at least one row,
// Write calls the hook inside the packing walk, once per block of whole
// rows the encoder has just copied into the frame, so the hook reads rows
// that are still in cache. Each call gets a view record, lent for the call
// only (the next block re-cuts it): every field as given, except that the
// array is rows [lo, hi) — Dims[0] is hi-lo and, when Global is set,
// Offsets[0] is advanced by lo. If the first block's result is a Combiner,
// the blocks' results are folded in row order with Combine and the fold is
// the partial; an error on a later block fails the Write. Otherwise — the
// first result is not a Combiner, or that call failed — and for every
// other record, the hook runs once on the whole record and its result is
// the partial.
type PartialFunc func(schema *ffs.Schema, rec ffs.Record) (any, error)

// Combiner is a PartialFunc result that can absorb the result of the rows
// that follow its own. Folding the results of any split of the rows into
// consecutive blocks, in row order, must give exactly the result of one
// call on all the rows. Combine may reuse the receiver's storage.
type Combiner interface {
	Combine(next any) any
}

// TransformFunc is an optional compute-node local processing pass applied
// to the output before packing — the paper's Stage-1a "filtering out
// undesired regions" use case. It may return a modified record (and
// schema) whose volume is smaller than the input's.
type TransformFunc func(schema *ffs.Schema, rec ffs.Record) (*ffs.Schema, ffs.Record, error)

// AggregateFunc combines the partial results of all compute ranks into the
// aggregated values handed to every operator's Initialize.
type AggregateFunc func(partials []RankPartial) map[string]any

// ClientConfig configures the compute-side runtime of one rank.
type ClientConfig struct {
	// WriterRank is this compute process's rank in the compute job.
	WriterRank int
	// NumCompute and NumStaging size the job.
	NumCompute int
	NumStaging int
	// Endpoint is this compute node's fabric attachment.
	Endpoint *fabric.Endpoint
	// StagingBase is the fabric endpoint id of staging index 0; staging
	// index i lives at endpoint StagingBase+i. The conventional layout
	// puts compute at endpoints [0, NumCompute) and staging immediately
	// after, so StagingBase == NumCompute.
	StagingBase int
	// Transform is the optional Stage-1a local processing pass (e.g.
	// filtering), applied before PartialCalculate and packing.
	Transform TransformFunc
	// PartialCalculate is the optional Stage-1a local pass whose small
	// result piggybacks on the fetch request.
	PartialCalculate PartialFunc
	// Membership is the run's shared membership value: each write routes
	// to the staging rank it names for the dump, around crashed, fenced,
	// restarting and elastically parked ranks. Nil means a fixed,
	// fault-free staging area.
	Membership *Membership
	// Retry bounds transient-fault retries of the fetch-request send.
	// Zero fields take DefaultRetryPolicy values.
	Retry RetryPolicy
	// Tracer, when non-nil, records write spans and retry/reroute
	// instants into the flight recorder.
	Tracer *trace.Recorder
}

// Client is the PreDatA runtime inside one compute process.
type Client struct {
	cfg   ClientConfig
	retry RetryPolicy
	// VisibleTime accumulates the I/O time visible to the simulation:
	// partial calculation + packing + request dispatch.
	VisibleTime time.Duration
	// PackedBytes accumulates the bytes exposed for pulling.
	PackedBytes int64
	// Retries counts fetch-request sends retried after transient faults.
	Retries int64
	// Rerouted counts dumps whose fetch request was rehashed onto a
	// surviving staging rank because the primary had crashed.
	Rerouted int64

	// frames are the frames behind regions this client has exposed, each
	// with its handle; spare is at most one frame whose region is gone.
	// Write packs into a released frame that is large enough (reclaim).
	frames []exposedFrame
	spare  []byte
}

// exposedFrame is a packed frame and the region it was exposed as.
type exposedFrame struct {
	buf []byte
	h   fabric.Handle
}

// NewClient validates the configuration and returns a client.
func NewClient(cfg ClientConfig) (*Client, error) {
	if cfg.Endpoint == nil {
		return nil, fmt.Errorf("predata: client needs a fabric endpoint")
	}
	if cfg.NumCompute < 1 || cfg.NumStaging < 1 {
		return nil, fmt.Errorf("predata: job sizes compute=%d staging=%d must be >= 1",
			cfg.NumCompute, cfg.NumStaging)
	}
	if cfg.WriterRank < 0 || cfg.WriterRank >= cfg.NumCompute {
		return nil, fmt.Errorf("predata: writer rank %d outside [0,%d)", cfg.WriterRank, cfg.NumCompute)
	}
	if cfg.Membership == nil {
		cfg.Membership = newMembership(nil, cfg.NumCompute, cfg.NumStaging, cfg.StagingBase)
	}
	return &Client{cfg: cfg, retry: cfg.Retry.withDefaults()}, nil
}

// Endpoint returns the client's fabric attachment, for callers that need
// direct fabric access (e.g. watchdog tests blocking a compute rank).
func (c *Client) Endpoint() *fabric.Endpoint { return c.cfg.Endpoint }

// reserved field names added to every packed chunk.
const (
	fieldRank     = "_rank"
	fieldTimestep = "_timestep"
)

// Write performs the PreDatA output path for one dump: Stage 1a (partial
// calculate), 1b (pack), 1c (route + fetch request). It returns the
// visible I/O duration; the data movement itself happens later, when the
// staging server pulls the exposed buffer.
//
// Contract: a client performs exactly one Write per timestep, with
// timesteps increasing — the staging server counts one fetch request per
// served rank per dump. Applications with several output groups bundle
// them into one record (as the GTC proxy does with its two species).
func (c *Client) Write(schema *ffs.Schema, rec ffs.Record, timestep int64) (time.Duration, error) {
	start := time.Now()
	sp := c.cfg.Tracer.Begin(trace.PhaseWrite, c.cfg.Endpoint.ID(), -1, timestep, -1)
	// One span covers the whole write; error paths End it with 0 bytes.
	sentBytes := int64(0)
	defer func() { sp.End(sentBytes) }()
	if c.cfg.Transform != nil {
		var err error
		schema, rec, err = c.cfg.Transform(schema, rec)
		if err != nil {
			return 0, fmt.Errorf("predata: Transform: %w", err)
		}
	}
	packed := &ffs.Schema{
		Name: schema.Name,
		Fields: append([]ffs.Field{
			{Name: fieldRank, Kind: ffs.KindInt64},
			{Name: fieldTimestep, Kind: ffs.KindInt64},
		}, schema.Fields...),
	}
	full := make(ffs.Record, len(rec)+2)
	for k, v := range rec {
		full[k] = v
	}
	full[fieldRank] = int64(c.cfg.WriterRank)
	full[fieldTimestep] = timestep
	fold := newPartialFold(c.cfg.PartialCalculate, schema, rec)
	buf, err := packFrame(packed, full, fold, c.reclaim)
	if err != nil {
		return 0, fmt.Errorf("predata: pack: %w", err)
	}
	partial, err := fold.result()
	if err != nil {
		return 0, fmt.Errorf("predata: PartialCalculate: %w", err)
	}
	c.cfg.Endpoint.SetEpoch(timestep)
	h := c.cfg.Endpoint.Expose(buf)
	c.frames = append(c.frames, exposedFrame{buf: buf, h: h})
	idx, rerouted, err := c.cfg.Membership.serverFor(c.cfg.WriterRank, timestep)
	if err != nil {
		return 0, err
	}
	if rerouted {
		c.Rerouted++
		c.cfg.Tracer.Instant(trace.PhaseReroute, c.cfg.Endpoint.ID(),
			c.cfg.StagingBase+idx, timestep, 0, 0)
	}
	dst := c.cfg.StagingBase + idx
	req := FetchRequest{
		Handle:     h,
		WriterRank: c.cfg.WriterRank,
		Timestep:   timestep,
		Bytes:      len(buf),
		Sum:        staging.SealSum(buf),
		Partial:    partial,
	}
	if err := c.sendWithRetry(dst, req); err != nil {
		return 0, fmt.Errorf("predata: fetch request: %w", err)
	}
	visible := time.Since(start)
	c.VisibleTime += visible
	c.PackedBytes += int64(len(buf))
	sentBytes = int64(len(buf))
	return visible, nil
}

// reclaim returns a frame of at least size bytes whose region is gone —
// the staging side is done reading it — or nil. Of the other released
// frames it keeps the largest as the spare and drops the rest. A reclaimed
// frame is poisoned first in a predata_poison build, so a staging read
// that outlives its region fails an oracle instead of reading stale bytes.
func (c *Client) reclaim(size int) []byte {
	var fit []byte
	take := func(b []byte) {
		switch {
		case fit == nil && cap(b) >= size:
			fit = b
		case cap(b) > cap(c.spare):
			c.spare = b
		}
	}
	if spare := c.spare; spare != nil {
		c.spare = nil
		take(spare)
	}
	live := c.frames[:0]
	for _, f := range c.frames {
		if c.cfg.Endpoint.Exposed(f.h) {
			live = append(live, f)
		} else {
			take(f.buf)
		}
	}
	clear(c.frames[len(live):])
	c.frames = live
	if fit != nil && poison.Enabled {
		fit = fit[:cap(fit)]
		poison.Fill(fit)
	}
	return fit
}

// packFrame is Stage 1b, with Stage 1a folded into it: it sizes the
// record's encoding, takes the one buffer the chunk will ever occupy —
// from reuse, given the frame size, when that returns a frame at least
// that large, else a new one — encodes behind the reserved seal header and
// seals in place. It is one walk over the data: the encoder copies each
// cache-sized block into the frame and hands it over, the partial fold
// reads the block's rows, and the seal's CRC takes its bytes, all while
// the block is still in cache. The encoder writes every byte of the
// frame, so a reused frame needs no clearing. Seal at encode: the CRC
// frame travels through the fabric untouched and is verified on the
// staging side before anything reduces the chunk, so corruption anywhere
// along the path is caught end to end. A record too large for the frame's
// length field is a named error here, not a wrapped length the staging
// rank would re-pull as corruption.
func packFrame(schema *ffs.Schema, rec ffs.Record, fold *partialFold, reuse func(size int) []byte) ([]byte, error) {
	n, err := ffs.Size(schema, rec)
	if err != nil {
		return nil, err
	}
	size, err := staging.FrameSize(n)
	if err != nil {
		return nil, err
	}
	dst := reuse(size)
	if cap(dst) < size {
		dst = make([]byte, staging.SealOverhead, size)
	}
	var sum uint32
	frame, err := ffs.AppendEncode(dst[:staging.SealOverhead], schema, rec,
		func(wrote []byte, a *ffs.Array, lo, hi int) {
			fold.block(a, lo, hi)
			sum = crc32.Update(sum, crc32.IEEETable, wrote)
		})
	if err != nil {
		return nil, err
	}
	staging.SealInPlace(frame, sum)
	return frame, nil
}

// partialFold runs the PartialCalculate hook inside packFrame's walk, block
// by block over the record's one float64 array (see PartialFunc).
type partialFold struct {
	fn     PartialFunc
	schema *ffs.Schema
	rec    ffs.Record
	field  string
	arr    *ffs.Array // the array folded block by block; nil: none, or no longer
	acc    any        // the fold of the blocks so far
	folded bool       // the first block's result was a Combiner
	err    error      // a later block's hook or fold failed

	viewRec ffs.Record // rec with cut in place of arr
	cut     *ffs.Array // arr's rows of the current block
}

// newPartialFold returns the fold for one Write, or nil when there is no
// hook: a nil fold visits nothing and its partial is nil.
func newPartialFold(fn PartialFunc, schema *ffs.Schema, rec ffs.Record) *partialFold {
	if fn == nil {
		return nil
	}
	f := &partialFold{fn: fn, schema: schema, rec: rec}
	f.field, f.arr = ffs.SoleFloat64Array(rec)
	if f.arr == nil || len(f.arr.Dims) == 0 || f.arr.Dims[0] == 0 {
		f.arr = nil
	}
	return f
}

// block folds rows [lo, hi) of a, which the walk has just copied; any
// other range of the walk (a nil or another array) is not the fold's.
func (f *partialFold) block(a *ffs.Array, lo, hi int) {
	if f == nil || a == nil || a != f.arr || f.err != nil {
		return
	}
	p, err := f.fn(f.schema, f.view(lo, hi))
	if !f.folded {
		if _, ok := p.(Combiner); err != nil || !ok {
			f.arr = nil // not foldable: the hook runs on the whole record
			return
		}
		f.acc, f.folded = p, true
		return
	}
	if err != nil {
		f.err = fmt.Errorf("rows [%d, %d) of %q: %w", lo, hi, f.field, err)
		return
	}
	c, ok := f.acc.(Combiner)
	if !ok {
		f.err = fmt.Errorf("Combine returned %T, not a Combiner", f.acc)
		return
	}
	f.acc = c.Combine(p)
}

// view returns the record with the array cut to rows [lo, hi). One record
// and one array serve every block, re-cut each time.
func (f *partialFold) view(lo, hi int) ffs.Record {
	a := f.arr
	if f.cut == nil {
		f.cut = &ffs.Array{Dims: slices.Clone(a.Dims), Global: a.Global, Offsets: slices.Clone(a.Offsets)}
		f.viewRec = make(ffs.Record, len(f.rec))
		for k, x := range f.rec {
			f.viewRec[k] = x
		}
		f.viewRec[f.field] = f.cut
	}
	per := len(a.Float64) / int(a.Dims[0])
	f.cut.Dims[0] = uint64(hi - lo)
	if a.Global != nil {
		f.cut.Offsets[0] = a.Offsets[0] + uint64(lo)
	}
	f.cut.Float64 = a.Float64[lo*per : hi*per : hi*per]
	return f.viewRec
}

// result returns the partial: the fold of the blocks, or, when nothing was
// folded, one call on the whole record.
func (f *partialFold) result() (any, error) {
	switch {
	case f == nil:
		return nil, nil
	case f.err != nil:
		return nil, f.err
	case f.folded:
		return f.acc, nil
	}
	return f.fn(f.schema, f.rec)
}

// sendWithRetry dispatches the fetch request, retrying transient faults
// with capped exponential backoff. Non-transient failures (crashed
// endpoint, fabric shutdown) propagate immediately — with one carve-out:
// when the shared plan says the down destination revives before this
// request's dump (a restart bounce, not a crash), the client waits the
// downtime out under the dump deadline. The revived rank recovers its
// journal and still expects this request.
func (c *Client) sendWithRetry(dst int, req FetchRequest) error {
	deadline := time.Now().Add(c.retry.DumpDeadline)
	for attempt := 0; ; attempt++ {
		err := c.cfg.Endpoint.SendCtl(dst, req)
		switch {
		case err == nil:
			return nil
		case errors.Is(err, faults.ErrTransient):
			if attempt+1 >= c.retry.MaxAttempts {
				return err
			}
		case errors.Is(err, faults.ErrEndpointDown) && c.cfg.Membership.inj.Revives(dst, req.Timestep):
			if time.Now().After(deadline) {
				return fmt.Errorf("predata: endpoint %d still down past the dump deadline awaiting its restart: %w", dst, err)
			}
		default:
			return err
		}
		c.Retries++
		c.cfg.Tracer.Instant(trace.PhaseRetry, c.cfg.Endpoint.ID(), dst,
			req.Timestep, int64(attempt), 0)
		time.Sleep(c.retry.backoff(attempt))
	}
}

// ServerConfig configures one staging rank's runtime.
type ServerConfig struct {
	// StagingIndex is this rank's index within the staging area.
	StagingIndex int
	// Comm is the communicator over the staging ranks (the staging area
	// runs as its own message-passing program).
	Comm *mpi.Comm
	// Endpoint is this staging node's fabric attachment.
	Endpoint *fabric.Endpoint
	// NumCompute is the size of the compute job.
	NumCompute int
	// Aggregate combines piggybacked partials from *all* compute ranks;
	// nil yields nil aggregates.
	Aggregate AggregateFunc
	// Engine executes the operators; nil selects a single-worker engine.
	Engine *staging.Engine
	// PullConcurrency is the number of chunks pulled in flight at once.
	// Values < 1 mean 1 (strict streaming).
	PullConcurrency int
	// NumStaging is the original size of the staging area, which stays
	// fixed across failures (StagingIndex keeps its meaning even as the
	// communicator shrinks). Zero means Comm.Size().
	NumStaging int
	// StagingBase is the fabric endpoint id of staging index 0. Zero
	// means the conventional layout, NumCompute.
	StagingBase int
	// Membership is the run's shared membership value — the same one the
	// clients route with: this rank serves the writers it assigns to
	// StagingIndex at each dump, and nothing for dumps it sits out. Nil
	// means a fixed, fault-free staging area.
	Membership *Membership
	// Retry bounds transient-fault retries and the per-dump gather
	// deadline. Zero fields take DefaultRetryPolicy values; the deadline
	// is enforced only when Membership can change between dumps (a fault
	// plan or an elastic schedule), preserving the fault-free contract
	// that gathers block until the watchdog intervenes.
	Retry RetryPolicy
	// Flow, when non-nil, is this rank's memory-budget controller: every
	// pull is admitted against its byte budget, overflow spills (its pull
	// is deferred until before Reduce), and persistent overload climbs the
	// degradation ladder (spill → shed optional operators → raw
	// pass-through). Nil disables admission control (the pre-budget
	// behavior). With Flow set, the dump is also bounded by the retry
	// policy's DumpDeadline, since admission waits must have a horizon.
	Flow *flowctl.Controller
	// Journal, when non-nil, is this rank's write-ahead log. Every fetch
	// request is journaled as it arrives; the chunk it names is journaled
	// by reference: its writer keeps the exposed region until the dump's
	// commit record is durable, so a crashed incarnation's successor
	// re-pulls the dump instead of losing it. The commit record seals each
	// completed dump and lets recovery dedupe against work the engine
	// already retired. Nil runs without durability, and every region is
	// acknowledged after the staging area's last read of its bytes: a
	// block-mapped chunk's after its walk, every other chunk's at the end
	// of the dump.
	Journal *wal.Log
	// Tracer, when non-nil, records gather/aggregate spans and retry
	// instants into the flight recorder. ServeDump also stamps the
	// engine, communicator, and fabric endpoint with the current dump
	// so their events group per timestep.
	Tracer *trace.Recorder
}

// DumpStats reports the staging-side cost of one dump on one rank.
type DumpStats struct {
	// Requests is the number of fetch requests this rank consumed.
	Requests int
	// BytesPulled is the packed-chunk volume moved to this rank.
	BytesPulled int64
	// PullModeled is the modeled network time of this rank's pulls.
	PullModeled time.Duration
	// Retries counts fabric operations retried after transient faults
	// (request receives and chunk pulls).
	Retries int
	// Redistributed counts requests this rank served on behalf of a
	// crashed staging rank (the writer's primary route was elsewhere).
	Redistributed int
	// Drops counts chunks lost because their endpoint crashed before the
	// pull; the dump still completes, marked Degraded.
	Drops int
	// CorruptPulls counts deliveries whose CRC verification failed (each
	// is transparently re-pulled within the attempt budget).
	CorruptPulls int
	// CorruptDrops counts chunks abandoned because every re-pull returned
	// damaged bytes — the source copy is bad. The chunk falls through to
	// the shed ladder: the dump completes without it, marked Degraded.
	CorruptDrops int
	// Fenced marks a dump this rank sat out because a partition cut it
	// off from the staging quorum: alive, but not serving.
	Fenced bool
	// Down marks a dump this rank sat out inside a restart window: the
	// process was bounced and its writers were rerouted until revival.
	Down bool
	// Parked marks a dump this rank sat out because the elastic
	// autoscaler's active count did not reach it. Unlike Fenced and Down
	// the row is not Degraded: the dump's writers were placed on the
	// active ranks by design.
	Parked bool
	// WalReplayed counts chunks this dump re-pulled from their writers'
	// regions after a crashall recovery, named by journaled requests.
	WalReplayed int
	// Degraded mirrors the dump result's Degraded mark.
	Degraded bool
	// RecoveryWall is the time this rank spent reconfiguring membership
	// (communicator shrink) ahead of this dump.
	RecoveryWall time.Duration
	// Overload reports the flow controller's throttle/spill/shed/pass
	// decisions for this dump; nil when no controller is configured.
	Overload *flowctl.OverloadStats
	// Wall phases.
	GatherWall    time.Duration
	AggregateWall time.Duration
	ProcessWall   time.Duration
}

// Server is the PreDatA runtime inside one staging process.
type Server struct {
	cfg    ServerConfig
	retry  RetryPolicy
	served []int // compute ranks this staging index serves, ascending
	// pending buffers fetch requests that arrived for future timesteps.
	pending map[int64][]FetchRequest
	// recovery accumulates membership-reconfiguration wall time, reported
	// on the next served dump.
	recovery time.Duration
	// epoch is the membership epoch of the installed communicator; -1
	// before the first Reconfigure. Epochs only move forward.
	epoch int64
	// chunks decodes every chunk this rank pulls, sharing the schema of
	// chunks that carry the same one.
	chunks staging.Decoder
}

// NewServer validates the configuration and returns a server.
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.Endpoint == nil || cfg.Comm == nil {
		return nil, fmt.Errorf("predata: server needs a fabric endpoint and a staging communicator")
	}
	if cfg.NumCompute < 1 {
		return nil, fmt.Errorf("predata: NumCompute %d must be >= 1", cfg.NumCompute)
	}
	if cfg.Engine == nil {
		cfg.Engine = staging.NewEngine(staging.Config{})
	}
	if cfg.PullConcurrency < 1 {
		cfg.PullConcurrency = 1
	}
	if cfg.NumStaging < 1 {
		cfg.NumStaging = cfg.Comm.Size()
	}
	if cfg.StagingBase < 1 {
		cfg.StagingBase = cfg.NumCompute
	}
	if cfg.Membership == nil {
		cfg.Membership = newMembership(nil, cfg.NumCompute, cfg.NumStaging, cfg.StagingBase)
	}
	s := &Server{
		cfg:     cfg,
		retry:   cfg.Retry.withDefaults(),
		pending: make(map[int64][]FetchRequest),
		epoch:   -1,
	}
	for r := 0; r < cfg.NumCompute; r++ {
		if DefaultRoute(r, cfg.NumCompute, cfg.NumStaging) == cfg.StagingIndex {
			s.served = append(s.served, r)
		}
	}
	sort.Ints(s.served)
	return s, nil
}

// Served returns the compute ranks this staging rank serves (fault-free).
func (s *Server) Served() []int { return append([]int(nil), s.served...) }

// Epoch returns the membership epoch of the installed communicator; -1
// before the first Reconfigure.
func (s *Server) Epoch() int64 { return s.epoch }

// Reconfigure installs the staging communicator for membership epoch
// (a crash shrink or an elastic resize), charging the reconfiguration
// wall time to the next served dump's stats. The server's StagingIndex
// identity and routing are unchanged — membership is derived from
// shared state (fault plan, elastic schedule), not from the
// communicator.
//
// Epochs only move forward: a Reconfigure whose epoch precedes the
// installed one is a stale delivery and is rejected. Redelivering the
// current epoch with the same communicator (identical id and size) is
// an idempotent no-op; offering a *different* communicator for the
// current epoch means two membership derivations diverged, which is
// also rejected.
func (s *Server) Reconfigure(comm *mpi.Comm, epoch int64, recovery time.Duration) error {
	if comm == nil {
		return fmt.Errorf("predata: Reconfigure(epoch %d): nil communicator", epoch)
	}
	if epoch < s.epoch {
		return fmt.Errorf("predata: Reconfigure epoch moved backwards: epoch %d offered after epoch %d installed — stale membership delivery",
			epoch, s.epoch)
	}
	if epoch == s.epoch {
		if comm.ID() == s.cfg.Comm.ID() && comm.Size() == s.cfg.Comm.Size() {
			return nil // idempotent redelivery of the installed epoch
		}
		return fmt.Errorf("predata: conflicting Reconfigure for epoch %d: comm id %d (size %d) installed, id %d (size %d) offered — membership derivations diverged",
			epoch, s.cfg.Comm.ID(), s.cfg.Comm.Size(), comm.ID(), comm.Size())
	}
	s.cfg.Comm = comm
	s.epoch = epoch
	s.recovery += recovery
	return nil
}

// ServeDump processes one I/O dump: gather requests, aggregate partials,
// pull + decode + stream chunks through the engine. All staging ranks must
// call ServeDump collectively with the same timestep and operator list.
func (s *Server) ServeDump(timestep int64, ops []staging.Operator) (*staging.Result, *DumpStats, error) {
	stats := &DumpStats{}
	s.beginDump(timestep, stats)
	reqs, err := s.gatherRequests(timestep, stats)
	if err != nil {
		return nil, nil, err
	}
	res, err := s.reduceDump(timestep, ops, reqs, &dumpRun{stats: stats})
	return res, stats, err
}

// beginDump is the prologue every dump body shares: charge pending
// reconfiguration time to the dump and stamp it onto every layer this
// rank records from.
func (s *Server) beginDump(timestep int64, stats *DumpStats) {
	stats.RecoveryWall += s.recovery
	s.recovery = 0
	// Tracer or not, the engine hands the timestep to the operators (and
	// stamps it on its phase spans), and the endpoint epoch tracks it:
	// partition windows and the fabric's control-plane events key off it.
	s.cfg.Engine.SetDump(timestep)
	s.cfg.Endpoint.SetEpoch(timestep)
	if s.cfg.Tracer != nil {
		// Collective instants group under the timestep too.
		s.cfg.Comm.SetTraceDump(timestep)
	}
}

// addPull charges one pull to the dump: its payload bytes and its modeled
// time, the sum saturating at the largest Duration as the fabric's modeled
// time does.
func (st *DumpStats) addPull(n int, modeled time.Duration) {
	st.BytesPulled += int64(n)
	st.PullModeled = min(st.PullModeled, math.MaxInt64-modeled) + modeled
}

// dumpRun is the state one dump's chunk feed shares with the goroutines
// it starts: the ledger, the admission flow, the regions held for the
// commit, and the first feed failure.
type dumpRun struct {
	stats *DumpStats
	flow  *flowctl.DumpFlow // nil without a budget
	// replay marks a crashall's finishing dump: every pull re-pulls a
	// chunk a crashed incarnation had already pulled once.
	replay bool
	// blocks marks a dump whose operators all map block by block: none
	// emits a view into a frame, so no rank waits for the others to ack.
	blocks bool
	mu     sync.Mutex // guards stats, held and err while the feed runs
	// held lists the regions acked at the end of the dump: every one but a
	// processed chunk's of a block-mapped dump without a journal.
	held []fabric.Handle
	err  error
}

// fail stores the first feed failure.
func (d *dumpRun) fail(err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.err == nil {
		d.err = err
	}
}

func (d *dumpRun) failed() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.err != nil
}

// reduceDump is the collective half of every dump body: exchange the
// piggybacked partials and aggregate them (Stage 2b), then pull reqs'
// chunks through the stone graph into the engine (Stages 3+4), seal the
// dump in the journal, release the regions it held and mark it Degraded
// if anything was lost. The regions are released once every rank's
// engine has returned — Finalize is the last reader of a chunk's bytes —
// and, with a journal, only once the commit is durable: a failed
// journaled dump keeps them for the re-pull.
func (s *Server) reduceDump(timestep int64, ops []staging.Operator, reqs []FetchRequest, d *dumpRun) (*staging.Result, error) {
	stats := d.stats
	d.blocks = staging.BlockMapped(ops)
	start := time.Now()
	sp := s.cfg.Tracer.Begin(trace.PhaseAggregate, s.cfg.Endpoint.ID(), -1, timestep, -1)
	local := make([]RankPartial, len(reqs))
	for i, r := range reqs {
		local[i] = RankPartial{Rank: r.WriterRank, Partial: r.Partial}
	}
	all, err := mpi.Allgather(s.cfg.Comm, local)
	if err != nil {
		sp.End(0)
		return nil, fmt.Errorf("predata: partial exchange: %w", err)
	}
	var agg map[string]any
	if s.cfg.Aggregate != nil {
		var flat []RankPartial
		for _, row := range all {
			flat = append(flat, row...)
		}
		sort.Slice(flat, func(i, j int) bool { return flat[i].Rank < flat[j].Rank })
		agg = s.cfg.Aggregate(flat)
	}
	sp.End(0)
	stats.AggregateWall = time.Since(start)

	// Stages 3+4. The feed runs beside the engine so that network
	// movement overlaps Map execution, as on the real machine.
	start = time.Now()
	sort.Slice(reqs, func(i, j int) bool { return reqs[i].WriterRank < reqs[j].WriterRank })
	chunks := make(chan *staging.Chunk, s.cfg.PullConcurrency)

	// With a flow controller the dump runs under a deadline: admission
	// and submission waits must have a horizon, or a mis-sized budget
	// could wedge the collective staging area.
	ctx := context.Background()
	if s.cfg.Flow != nil {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.retry.DumpDeadline)
		defer cancel()
		d.flow = s.cfg.Flow.StartDump(timestep)
		defer d.flow.Finish()
	}
	mgr, decode, err := s.newStoneGraph(d.flow, chunks)
	if err != nil {
		return nil, err
	}
	go func() {
		s.feedPulled(ctx, d, reqs, decode)
		// Drain the stone graph, then release the engine.
		if err := mgr.Close(); err != nil {
			d.fail(err)
		}
		close(chunks)
	}()
	res, err := s.cfg.Engine.ProcessDump(s.cfg.Comm, chunks, ops, agg)
	// Reduce and Finalize read the values every rank's chunks emitted —
	// views into their writers' frames, unless every operator is a block
	// mapper — so no rank releases a region before all ranks are done with
	// the dump. A rank whose engine failed returns instead, and its exit
	// fails the others' barrier (mpi.Run's abort).
	if err == nil && !d.blocks {
		err = s.cfg.Comm.Barrier()
	}
	// ProcessDump returns only after the chunks channel is closed, so the
	// feed and the stone graph are done and stats/d.err are stable.
	stats.ProcessWall = time.Since(start)
	if d.flow != nil {
		ov := d.flow.Finish()
		stats.Overload = &ov
	}
	if d.err != nil {
		err = d.err
	}
	if err == nil {
		err = s.commitDump(timestep)
	}
	// Every held chunk is released here, whatever became of it —
	// processed, spilled or passed — and its writer may reuse
	// the frame.
	if err == nil || s.cfg.Journal == nil {
		for _, h := range d.held {
			if aerr := s.cfg.Endpoint.Ack(h); aerr != nil && err == nil {
				err = aerr
			}
		}
	}
	if err != nil {
		return nil, err
	}
	res.Degraded = res.Degraded || stats.Drops > 0 || stats.CorruptDrops > 0 ||
		(stats.Overload != nil && stats.Overload.PassedChunks > 0) ||
		s.cfg.Membership.shorthanded(timestep)
	stats.Degraded = res.Degraded
	return res, nil
}

// newStoneGraph builds the event-stream graph packed chunks cross on
// their way to the engine: decode stone -> terminal stone feeding
// chunks. The stones' bounded queues propagate backpressure from a slow
// engine all the way to the feed.
func (s *Server) newStoneGraph(flow *flowctl.DumpFlow, chunks chan<- *staging.Chunk) (mgr *evpath.Manager, decode *evpath.Stone, err error) {
	mgr = evpath.NewManager()
	terminal, err := mgr.NewTerminalStone(func(e *evpath.Event) error {
		if chunk := e.Data.(*staging.Chunk); chunk != nil {
			chunks <- chunk
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	decode, err = mgr.NewTransformStone(func(e *evpath.Event) (*evpath.Event, error) {
		p := e.Data.(*pulledChunk)
		chunk, err := p.decode(&s.chunks)
		if err != nil || chunk == nil {
			if p.release != nil {
				p.release()
			}
			if err != nil {
				return nil, fmt.Errorf("predata: decode chunk from rank %d: %w", p.writer, err)
			}
			// Corrupt past the re-pull budget: the drop is recorded, and
			// the terminal stone lets the nil chunk go.
			return &evpath.Event{Data: chunk}, nil
		}
		chunk.Release = p.release
		if !p.check.held {
			chunk.Release = p.releaseAndAck
		}
		if flow != nil {
			if shedding, sampled := flow.ShedClass(); shedding {
				if sampled {
					chunk.Shed = staging.ShedSampled
				} else {
					chunk.Shed = staging.ShedSkipped
				}
			}
		}
		return &evpath.Event{Data: chunk}, nil
	})
	if err != nil {
		return nil, nil, err
	}
	if err := decode.LinkTo(terminal); err != nil {
		return nil, nil, err
	}
	if flow != nil {
		// Byte-weighted stone queue: the decode stone's backlog is bounded
		// by the same budget the accountant enforces, so the stone graph
		// cannot buffer more than one budget's worth of packed bytes.
		weigh := func(e *evpath.Event) int64 { return int64(len(e.Data.(*pulledChunk).buf)) }
		if err := decode.SetByteLimit(s.cfg.Flow.Budget().Capacity(), weigh); err != nil {
			return nil, nil, err
		}
	}
	return mgr, decode, nil
}

// feedPulled submits one dump's chunks — reqs is in stream order — to
// the stone graph's decode stone and returns once the last one is in: a
// bounded pool of pull workers admits each request's chunk against the
// budget and pulls and routes it (pullAndRoute). A spilled chunk is left
// in its writer's region; once the workers are done, each is pulled the
// same way behind them.
func (s *Server) feedPulled(ctx context.Context, d *dumpRun, reqs []FetchRequest, decode *evpath.Stone) {
	var (
		workers sync.WaitGroup
		mu      sync.Mutex // guards spilled
		spilled []FetchRequest
	)
	reqCh := make(chan FetchRequest)
	for w := 0; w < s.cfg.PullConcurrency; w++ {
		workers.Add(1)
		go func() {
			defer workers.Done()
			for req := range reqCh {
				if d.failed() {
					continue // drain remaining requests without pulling
				}
				// Credit-based admission: the pull is only issued once the
				// budget (or the pass path's serialized overdraft) covers
				// the chunk, so the compute rank's exposed buffer — not
				// staging memory — absorbs the wait, and the compute side
				// stays asynchronous.
				var adm *flowctl.Admission
				if d.flow != nil {
					a, err := d.flow.Admit(ctx, int64(req.Bytes))
					if err == nil && a.Decision() == flowctl.DecideSpill {
						// The chunk waits in its writer's region.
						if err = a.Spill(req.WriterRank, req.Timestep, spillBytes(req)); err == nil {
							mu.Lock()
							spilled = append(spilled, req)
							mu.Unlock()
							continue
						}
					}
					if err != nil {
						d.fail(fmt.Errorf("predata: admitting chunk from rank %d: %w", req.WriterRank, err))
						continue
					}
					adm = a
				}
				if err := s.pullAndRoute(ctx, d, decode, adm, req); err != nil {
					d.fail(err)
				}
			}
		}()
	}
	for _, r := range reqs {
		reqCh <- r
	}
	close(reqCh)
	workers.Wait()
	// Lossless completion: pull every spilled chunk into the same stone
	// graph before the engine's stream ends, each under real budget
	// credits, so replay drains no faster than the engine.
	for _, req := range spilled {
		if d.failed() {
			return
		}
		adm, err := d.flow.Replay(ctx, req.WriterRank, req.Timestep, spillBytes(req))
		if err == nil {
			err = s.pullAndRoute(ctx, d, decode, adm, req)
		}
		if err != nil {
			d.fail(fmt.Errorf("predata: spill replay: %w", err))
		}
	}
}

// spillBytes is what a spill of req's chunk counts and its replay
// waits for: the chunk's payload, without the seal header.
func spillBytes(req FetchRequest) int64 { return int64(req.Bytes - staging.SealOverhead) }

// pullChunk moves one request's chunk to this rank and returns its
// payload: with check set, with only its seal header checked, check
// recording the attempt it came from; without, verified whole (a passed
// chunk). A chunk lost for good is recorded by lost (ok false, no error);
// anything else lost returns is an error that aborts the dump.
func (s *Server) pullChunk(ctx context.Context, req FetchRequest, d *dumpRun, check *unverifiedPull) (payload []byte, ok bool, err error) {
	frame, modeled, attempt, err := s.pullWithRetry(ctx, req, d, 0, check != nil)
	if err != nil {
		return nil, false, s.lost(req, d, err)
	}
	if check != nil {
		check.attempt = attempt
	}
	payload = frame[staging.SealOverhead:]
	d.mu.Lock()
	d.stats.addPull(len(payload), modeled)
	if check == nil || check.held {
		d.held = append(d.held, req.Handle)
	}
	if d.replay {
		d.stats.WalReplayed++
	}
	d.mu.Unlock()
	if d.replay {
		// The frame's own checksum lets trace.Verify match the re-pull
		// against the crashed incarnation's journaled request.
		s.cfg.Tracer.Instant(trace.PhaseWalReplay, s.cfg.Endpoint.ID(), -1,
			req.Timestep, int64(req.WriterRank), int64(staging.SealSum(frame)))
	}
	return payload, true, nil
}

// lost takes a pull that failed for good. A chunk lost with its endpoint,
// or whose source copy stays corrupt past the re-pull budget, is recorded
// as a drop and nil returned: the dump completes without it, explicitly
// Degraded — the bad bytes must never reach a committed output. Anything else
// (shutdown) comes back as the error that aborts the dump.
func (s *Server) lost(req FetchRequest, d *dumpRun, err error) error {
	var drops *int
	var phase trace.Phase
	switch {
	case errors.Is(err, faults.ErrEndpointDown):
		drops, phase = &d.stats.Drops, trace.PhaseDrop
	case errors.Is(err, staging.ErrCorrupt):
		drops, phase = &d.stats.CorruptDrops, trace.PhaseCorruptDrop
	default:
		return fmt.Errorf("predata: pull from rank %d: %w", req.WriterRank, err)
	}
	d.mu.Lock()
	*drops++
	d.mu.Unlock()
	s.cfg.Tracer.Instant(phase, s.cfg.Endpoint.ID(),
		req.WriterRank, req.Timestep, int64(req.WriterRank), 0)
	return nil
}

// unverifiedPull is a processed chunk, pulled with only its seal header
// checked: the engine checks the payload against the
// request's sum and calls back (staging.Chunk.Corrupt) on a mismatch. It
// lives inside its pulledChunk, so the chunk's hooks are its own methods:
// one allocation for the Corrupt hook, and one for the Release hook when
// the region is not held.
type unverifiedPull struct {
	s       *Server
	ctx     context.Context
	d       *dumpRun
	req     FetchRequest
	attempt int // the pull attempt the payload came from
	// held: the region is acked at the end of the dump (d.held), not at
	// the engine's Release (pulledChunk.releaseAndAck).
	held bool
}

// ack releases the writer's region, unless it is held to the end of the
// dump.
func (u *unverifiedPull) ack() {
	if u.held {
		return
	}
	if err := u.s.cfg.Endpoint.Ack(u.req.Handle); err != nil {
		u.d.fail(err)
	}
}

// corrupt takes a failed payload check as the CRC failure of the attempt
// the payload came from, and carries on as pullWithRetry would: re-pull
// under the same backoff and attempt budget — verifying at the pull now,
// so the copy it hands back is checked — and decode. From here the region
// is held to the end of the dump unless the re-pulls give up and release
// it (retryAfter). It returns the intact chunk, or nil once the chunk is
// dropped (lost records it).
func (u *unverifiedPull) corrupt() (*staging.Chunk, error) {
	s, d, req := u.s, u.d, u.req
	err := fmt.Errorf("predata: chunk from rank %d attempt %d: payload checksum: %w",
		req.WriterRank, u.attempt, staging.ErrCorrupt)
	if !u.held { // otherwise d.held has it already
		d.mu.Lock()
		d.held = append(d.held, req.Handle)
		d.mu.Unlock()
	}
	if err = s.retryAfter(req, d, u.attempt, err); err == nil {
		var frame []byte
		if frame, _, _, err = s.pullWithRetry(u.ctx, req, d, u.attempt+1, false); err == nil {
			return s.chunks.DecodeChunk(frame[staging.SealOverhead:])
		}
	}
	return nil, s.lost(req, d, err)
}

// pulledChunk is the decode stone's event payload: a chunk's writer and
// unchecked packed bytes, the pull to call back when they fail their
// check and, when the chunk was admitted against the budget, the lease
// release hook the decode stone attaches to the decoded Chunk.
type pulledChunk struct {
	writer  int
	buf     []byte
	release func()
	check   unverifiedPull
}

// releaseAndAck is the chunk's Release hook when its region is not held:
// it returns the budget credits and acks the region, since in a
// block-mapped dump the engine reads the payload, or a re-pulled copy,
// only before Release, and block mappers emit nothing that aliases it. A
// region that failed its check is on d.held as well; a second ack is a
// no-op.
func (p *pulledChunk) releaseAndAck() {
	if p.release != nil {
		p.release()
	}
	p.check.ack()
}

// decode decodes the chunk through chunks, handing its check on to the
// engine. A payload that fails to decode is checksummed first: a mismatch
// is corruption, taken through the re-pull path (nil once dropped), while
// intact bytes are a real decode error.
func (p *pulledChunk) decode(chunks *staging.Decoder) (*staging.Chunk, error) {
	chunk, err := chunks.DecodeChunk(p.buf)
	if err != nil {
		if crc32.ChecksumIEEE(p.buf) != p.check.req.Sum {
			return p.check.corrupt()
		}
		p.check.ack()
		return nil, err
	}
	chunk.Unverified, chunk.Sum = p.buf, p.check.req.Sum
	chunk.Corrupt = p.check.corrupt
	return chunk, nil
}

// pullAndRoute pulls one admitted request's chunk and hands it to its
// fate: stream into the stone graph (process), or write raw to the PFS
// sink (pass). The engine checks a processed chunk's payload
// (staging.Chunk.Unverified); only a passed one, whose one reader is the
// pass log, is checked here. With no admission (adm == nil) it streams
// unconditionally, the pre-budget behavior.
func (s *Server) pullAndRoute(ctx context.Context, d *dumpRun, decode *evpath.Stone, adm *flowctl.Admission, req FetchRequest) error {
	pass := adm != nil && adm.Decision() == flowctl.DecidePass
	p := &pulledChunk{writer: req.WriterRank}
	var check *unverifiedPull
	if !pass {
		p.check = unverifiedPull{s: s, ctx: ctx, d: d, req: req, held: !d.blocks || s.cfg.Journal != nil}
		check = &p.check
	}
	buf, ok, err := s.pullChunk(ctx, req, d, check)
	if !ok {
		// Dropped or failed: nothing enters the graph.
		if adm != nil {
			adm.Abort()
		}
		return err
	}
	if pass {
		return adm.Pass(req.WriterRank, req.Timestep, buf)
	}
	p.buf = buf
	if adm != nil {
		if p.release, err = adm.Keep(); err != nil {
			return err
		}
	}
	if err := decode.SubmitContext(ctx, &evpath.Event{Data: p}); err != nil {
		if p.release != nil {
			p.release()
		}
		p.check.ack() // the dump fails; its region must not outlive it
		return err
	}
	return nil
}

// recvRequest receives one fetch request, retrying injected transient
// receive faults under the dump deadline. A zero deadline blocks without
// limit, the fault-free contract, and retries transients within the
// attempt budget.
func (s *Server) recvRequest(deadline time.Time, stats *DumpStats) (FetchRequest, error) {
	for attempt := 0; ; attempt++ {
		var (
			data any
			err  error
		)
		if deadline.IsZero() {
			_, data, err = s.cfg.Endpoint.RecvCtl()
		} else {
			remaining := time.Until(deadline)
			if remaining <= 0 {
				return FetchRequest{}, fmt.Errorf(
					"predata: dump deadline %v exceeded gathering fetch requests: %w",
					s.retry.DumpDeadline, fabric.ErrTimeout)
			}
			_, data, err = s.cfg.Endpoint.RecvCtlTimeout(remaining)
		}
		if err != nil {
			if !errors.Is(err, faults.ErrTransient) || deadline.IsZero() && attempt+1 >= s.retry.MaxAttempts {
				return FetchRequest{}, fmt.Errorf("predata: gathering fetch requests: %w", err)
			}
			stats.Retries++
			s.cfg.Tracer.Instant(trace.PhaseRetry, s.cfg.Endpoint.ID(), -1,
				-1, int64(attempt), 0)
			time.Sleep(s.retry.backoff(attempt))
			continue
		}
		req, ok := data.(FetchRequest)
		if !ok {
			return FetchRequest{}, fmt.Errorf("predata: unexpected control message %T", data)
		}
		return req, nil
	}
}

// pullWithRetry pulls one chunk and returns its sealed frame and the
// attempt that delivered it, counting attempts from first: the transfer
// uses the non-consuming PullRetain, and the frame's seal header — its CRC
// must be the one the request names — and, unless unverified (the engine
// checks it: unverifiedPull), its payload are checked before anything
// downstream sees the bytes. The region stays exposed until the staging
// side's last read (unverifiedPull.ack or reduceDump). Injected transients
// *and* corrupted deliveries are retried with capped exponential backoff
// within the attempt budget (retryAfter) — wire corruption heals on
// re-pull because the source still holds the intact region. A source that
// stays corrupt exhausts the budget and surfaces staging.ErrCorrupt for
// the caller's shed path. ctx bounds each pull's deferred-phase wait
// (background ctx preserves the fault-free contract of blocking until the
// watchdog intervenes).
func (s *Server) pullWithRetry(ctx context.Context, req FetchRequest, d *dumpRun, first int, unverified bool) ([]byte, time.Duration, int, error) {
	for attempt := first; ; attempt++ {
		frame, modeled, err := s.cfg.Endpoint.PullRetain(ctx, req.Handle)
		if err == nil {
			if err = checkFrame(frame, req, attempt, !unverified); err == nil {
				return frame, modeled, attempt, nil
			}
		} else if !errors.Is(err, faults.ErrTransient) {
			return nil, 0, 0, err
		}
		if err := s.retryAfter(req, d, attempt, err); err != nil {
			return nil, 0, 0, err
		}
	}
}

// checkFrame checks a pulled frame against its request: the seal header,
// the payload CRC when payloadCRC is set, and the request's sum.
func checkFrame(frame []byte, req FetchRequest, attempt int, payloadCRC bool) error {
	var err error
	if payloadCRC {
		_, err = staging.Unseal(frame)
	} else {
		_, err = staging.FramePayload(frame)
	}
	if err == nil && staging.SealSum(frame) != req.Sum {
		err = fmt.Errorf("predata: pulled frame's checksum %08x, request names %08x: %w",
			staging.SealSum(frame), req.Sum, staging.ErrCorrupt)
	}
	if err != nil {
		return fmt.Errorf("predata: chunk from rank %d attempt %d: %w", req.WriterRank, attempt, err)
	}
	return nil
}

// retryAfter records the failure of a pull attempt — a corrupt delivery
// counts as a CRC failure — and sleeps the backoff before the next one, or
// returns err when the attempt budget is spent. A chunk still corrupt on
// the last attempt has a bad source copy that re-pulling cannot help: its
// region is released so the writer's exposed-bytes accounting drains, and
// the caller sheds the chunk.
func (s *Server) retryAfter(req FetchRequest, d *dumpRun, attempt int, err error) error {
	corrupt := errors.Is(err, staging.ErrCorrupt)
	if corrupt {
		d.mu.Lock()
		d.stats.CorruptPulls++
		d.mu.Unlock()
		s.cfg.Tracer.Instant(trace.PhaseCorruptDetect, s.cfg.Endpoint.ID(),
			req.Handle.Endpoint, req.Timestep, int64(req.WriterRank), int64(attempt))
	}
	if attempt+1 >= s.retry.MaxAttempts {
		if corrupt {
			_ = s.cfg.Endpoint.Ack(req.Handle)
		}
		return err
	}
	d.mu.Lock()
	d.stats.Retries++
	d.mu.Unlock()
	s.cfg.Tracer.Instant(trace.PhaseRetry, s.cfg.Endpoint.ID(), req.Handle.Endpoint,
		req.Timestep, int64(attempt), 0)
	time.Sleep(s.retry.backoff(attempt))
	return nil
}
