// Package trace is a flight recorder for the staging stack: a bounded,
// allocation-free event log that records what each rank did and when —
// phase spans (pull, Map, Shuffle, Reduce, ...) and instant events
// (collective calls, retries, injected faults, spill/shed decisions,
// lease movements). Recordings export to Chrome trace_event JSON for
// timeline inspection and to a compact CRC-checked binary format
// (PDTRACE2) for archiving and trace-driven conformance tests; Verify
// checks runtime ordering invariants from a recording alone.
//
// The recorder follows the flowctl budget philosophy: memory is bounded
// up front (sharded ring buffers) and overload degrades gracefully —
// when a ring wraps, the oldest events are overwritten and counted as
// dropped rather than growing the heap. A nil *Recorder is valid and
// records nothing, mirroring the nil-safe faults.Injector, so call
// sites need no guards.
package trace

import (
	"sort"
	"sync/atomic"
	"time"
)

// Kind distinguishes duration spans from point events.
type Kind uint8

const (
	// KindSpan is a duration event: Start and End are both meaningful.
	KindSpan Kind = iota
	// KindInstant is a point event: only Start is meaningful.
	KindInstant
)

// Phase identifies what an event describes. Span phases and instant
// phases share one namespace so a recording is a single typed stream.
type Phase uint8

const (
	PhaseInvalid Phase = iota

	// Span phases.
	PhaseWrite      // compute client: pack + expose + dispatch one dump
	PhasePull       // fabric: one RDMA-style pull (Endpoint = source)
	PhaseRecvCtl    // fabric: blocking control-message receive
	PhaseGather     // staging server: fetch-request gather for one dump
	PhaseAggregate  // staging server: partial exchange + aggregate
	PhaseInitialize // engine: operator Initialize loop
	PhaseMap        // engine: Map over the chunk stream
	PhaseCombine    // engine: per-operator Combine (Seq = operator index)
	PhaseShuffle    // engine: per-operator Shuffle/Alltoall (Seq = operator index)
	PhaseReduce     // engine: per-operator Reduce (Seq = operator index)
	PhaseFinalize   // engine: operator Finalize loop
	PhaseRecovery   // pipeline: communicator shrink + Reconfigure
	PhaseThrottle   // flowctl: Acquire blocked waiting for budget

	// Instant phases.
	PhaseCollective    // mpi: collective call (Endpoint = op code, Seq = collective seq, Arg = comm id)
	PhaseSendCtl       // fabric: control message sent (Endpoint = destination)
	PhaseRetry         // predata: transient failure retried (Seq = attempt)
	PhaseFault         // fabric: injected transient fault fired
	PhaseEndpointDown  // fabric: endpoint declared failed
	PhaseRefusal       // fabric: operation refused because the peer is down
	PhaseReroute       // predata client: write rerouted off a down server
	PhaseSpill         // flowctl: chunk spilled to disk (Arg = bytes)
	PhasePass          // flowctl: chunk passed through unanalyzed (Arg = bytes)
	PhaseShed          // flowctl: shed decision (Arg = 1 kept as sample, 0 dropped)
	PhaseReplay        // flowctl: spilled chunk replayed (Seq = writer, Arg = bytes)
	PhaseLease         // flowctl: budget movement (Arg = signed delta, Seq = used bytes after)
	PhaseBudgetCap     // flowctl: budget capacity announcement (Arg = capacity bytes)
	PhaseOverload      // flowctl: overload latch transition (Arg = 1 latched, 0 released)
	PhaseChunk         // engine: chunk retired after Map (Seq = writer, Arg = shed class)
	PhaseCrashExit     // pipeline: rank leaves the job on an injected crash
	PhaseDrop          // staging: chunk lost to a crashed writer endpoint (Endpoint = writer, Seq = writer)
	PhaseScale         // elastic: autoscale decision (Endpoint = direction, Dump = first dump affected, Seq = epoch, Arg = target ranks)
	PhaseScaleEpoch    // elastic: resize epoch installed (Endpoint = active count, Dump = first dump of epoch, Seq = epoch, Arg = active-index bitmask)
	PhaseHandoff       // serve: DataSpaces shard handoff at a shard-pool resize (Seq = epoch, Arg = cells moved)
	PhaseDrain         // elastic: span — retiring rank flushes leases/spill before going silent (Seq = epoch, Arg = bytes outstanding at entry)
	PhaseCorrupt       // fabric: injected payload bit-flip (Endpoint = data owner, Arg = byte offset)
	PhaseCorruptDetect // predata: CRC verify failed on a pulled chunk (Endpoint = source, Seq = writer, Arg = attempt)
	PhaseCorruptDrop   // predata: chunk abandoned after corrupt re-pulls exhausted (Endpoint = writer, Seq = writer)
	PhaseDupDrop       // fabric: duplicated control message absorbed by (src, seq) dedup (Endpoint = src, Arg = seq)
	PhaseUnreachable   // fabric: operation refused because a partition severs the pair (Endpoint = peer)
	PhaseProbe         // predata: dump-aligned reachability probe verdict (Seq = live peers reached, Arg = 1 quorum held, 0 fenced)
	PhaseHeal          // predata: fenced rank rejoined the serving set (Seq = epoch installed)
	PhaseJournal       // wal: fetch request appended to the staging journal (Seq = writer, Arg = crc32 of the chunk payload it names)
	PhaseWalCommit     // wal: dump commit record fsynced (Dump = committed dump)
	PhaseCheckpoint    // wal: journal compacted behind a dump-boundary checkpoint (Seq = first dump NOT covered, Arg = records kept)
	PhaseWalReplay     // predata: chunk re-pulled after a crashall recovery (Seq = writer, Arg = the pulled frame's seal crc32)
	PhaseRestart       // pipeline: rank rejoined after a restart or crashall recovery (Seq = epoch installed, Arg = records replayed)

	PhaseServeIngest     // serve: dump version ingested for a tenant (Rank = tenant, Endpoint = tenant, Seq = object hash, Arg = version)
	PhaseServeQuery      // serve: query answered from the space (Rank = tenant, Endpoint = tenant, Seq = object hash, Arg = version)
	PhaseCacheHit        // serve: query answered from the result cache (Endpoint = tenant, Seq = object hash, Arg = fill epoch of the entry)
	PhaseCacheFill       // serve: result cached after a space read (Endpoint = tenant, Seq = object hash, Arg = epoch at fill)
	PhaseCacheInvalidate // serve: epoch bumped, cached results stale (Endpoint = tenant, Seq = object hash, Arg = new epoch)
	PhaseTenantJoin      // serve: tenant session admitted (Endpoint = tenant, Seq = membership epoch, Arg = weight)
	PhaseTenantLeave     // serve: tenant session drained and departed (Endpoint = tenant, Seq = membership epoch)
)

// phaseNames maps phases to stable lowercase names used by the Chrome
// exporter and the predata-trace dumper.
var phaseNames = [...]string{
	PhaseInvalid:       "invalid",
	PhaseWrite:         "write",
	PhasePull:          "pull",
	PhaseRecvCtl:       "recv-ctl",
	PhaseGather:        "gather",
	PhaseAggregate:     "aggregate",
	PhaseInitialize:    "initialize",
	PhaseMap:           "map",
	PhaseCombine:       "combine",
	PhaseShuffle:       "shuffle",
	PhaseReduce:        "reduce",
	PhaseFinalize:      "finalize",
	PhaseRecovery:      "recovery",
	PhaseThrottle:      "throttle",
	PhaseCollective:    "collective",
	PhaseSendCtl:       "send-ctl",
	PhaseRetry:         "retry",
	PhaseFault:         "fault",
	PhaseEndpointDown:  "endpoint-down",
	PhaseRefusal:       "refusal",
	PhaseReroute:       "reroute",
	PhaseSpill:         "spill",
	PhasePass:          "pass",
	PhaseShed:          "shed",
	PhaseReplay:        "replay",
	PhaseLease:         "lease",
	PhaseBudgetCap:     "budget-cap",
	PhaseOverload:      "overload",
	PhaseChunk:         "chunk",
	PhaseCrashExit:     "crash-exit",
	PhaseDrop:          "drop",
	PhaseScale:         "scale",
	PhaseScaleEpoch:    "scale-epoch",
	PhaseHandoff:       "handoff",
	PhaseDrain:         "drain",
	PhaseCorrupt:       "corrupt",
	PhaseCorruptDetect: "corrupt-detect",
	PhaseCorruptDrop:   "corrupt-drop",
	PhaseDupDrop:       "dup-drop",
	PhaseUnreachable:   "unreachable",
	PhaseProbe:         "probe",
	PhaseHeal:          "heal",
	PhaseJournal:       "journal",
	PhaseWalCommit:     "wal-commit",
	PhaseCheckpoint:    "checkpoint",
	PhaseWalReplay:     "wal-replay",
	PhaseRestart:       "restart",

	PhaseServeIngest:     "serve-ingest",
	PhaseServeQuery:      "serve-query",
	PhaseCacheHit:        "cache-hit",
	PhaseCacheFill:       "cache-fill",
	PhaseCacheInvalidate: "cache-invalidate",
	PhaseTenantJoin:      "tenant-join",
	PhaseTenantLeave:     "tenant-leave",
}

// String returns the stable lowercase name of the phase.
func (p Phase) String() string {
	if int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return "unknown"
}

// Collective op codes recorded in a PhaseCollective event's Endpoint
// field. The code identifies which collective consumed the sequence
// number, so two ranks agree on a sequence only if they agree on both
// the order and the kind of every collective.
const (
	CollBarrier int32 = iota + 1
	CollBcast
	CollReduce
	CollGather
	CollAlltoall
	CollScan
	CollSplit
	CollDup
)

// collNames maps collective op codes to display names.
var collNames = [...]string{"", "barrier", "bcast", "reduce", "gather",
	"alltoall", "scan", "split", "dup"}

// CollName returns the display name for a collective op code.
func CollName(op int32) string {
	if op > 0 && int(op) < len(collNames) {
		return collNames[op]
	}
	return "unknown"
}

// Event is one fixed-size recorded event. Field meaning varies by
// Phase (see the Phase constants); unused fields are -1 or 0.
type Event struct {
	Kind     Kind
	Phase    Phase
	Rank     int32 // world rank of the acting endpoint (-1 unknown)
	Endpoint int32 // peer endpoint, collective op code, or -1
	Dump     int64 // dump/timestep the event belongs to (-1 unknown)
	Seq      int64 // sequence number: collective seq, operator index, attempt, used-after bytes
	Arg      int64 // payload: bytes moved, comm id, shed class, latch state
	Start    int64 // nanoseconds since the recording epoch
	End      int64 // spans only; == Start for instants
}

// Name returns the event's phase name.
func (e *Event) Name() string { return e.Phase.String() }

// slot is one ring-buffer cell. state serializes writers that collide
// on the same cell after a wrap (CAS-guarded, so the race detector sees
// no concurrent writes); stamp is 1 + the global append position, so a
// snapshot can tell filled cells from empty ones and recover append
// order.
type slot struct {
	state atomic.Uint32 // 0 idle, 1 being written
	stamp uint64
	ev    Event
}

// shard is one ring buffer. Appends reserve a position with a single
// atomic add; the position modulo the ring size picks the cell.
type shard struct {
	pos   atomic.Uint64
	slots []slot
	_     [32]byte // keep neighbouring shards off one cache line
}

// Config sizes a Recorder and carries recording metadata.
type Config struct {
	// Shards is the number of independent ring buffers appends are
	// spread over. Rounded up to a power of two; default 16.
	Shards int
	// ShardCapacity is the number of events per shard. Rounded up to a
	// power of two; default 8192 (16 shards × 8192 events × ~72 B ≈ 9 MB).
	ShardCapacity int
	// Recording metadata, embedded in snapshots and the binary format.
	NumCompute int
	NumStaging int
	Dumps      int
}

// Recorder is the flight recorder. All methods are safe for concurrent
// use; all methods on a nil *Recorder are no-ops, so components accept
// a possibly-nil tracer and never guard call sites.
type Recorder struct {
	epoch   time.Time
	shards  []shard
	mask    uint64 // len(shards) - 1
	capMask uint64 // shard capacity - 1
	cursor  atomic.Uint64
	skipped atomic.Int64 // appends abandoned on a slot-write collision
	meta    Config
}

// New creates a Recorder with bounded memory: once a shard's ring
// wraps, its oldest events are overwritten (and counted as dropped),
// never reallocated.
func New(cfg Config) *Recorder {
	if cfg.Shards <= 0 {
		cfg.Shards = 16
	}
	if cfg.ShardCapacity <= 0 {
		cfg.ShardCapacity = 8192
	}
	ns := ceilPow2(cfg.Shards)
	nc := ceilPow2(cfg.ShardCapacity)
	r := &Recorder{
		epoch:   time.Now(),
		shards:  make([]shard, ns),
		mask:    uint64(ns - 1),
		capMask: uint64(nc - 1),
		meta:    cfg,
	}
	for i := range r.shards {
		r.shards[i].slots = make([]slot, nc)
	}
	return r
}

// ceilPow2 rounds n up to the next power of two.
func ceilPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// now returns nanoseconds since the recording epoch (monotonic).
func (r *Recorder) now() int64 { return int64(time.Since(r.epoch)) }

// append stores ev into the next ring cell. Lock-free: a single atomic
// add reserves the position; a CAS on the cell's state keeps two
// writers that wrapped onto the same cell from racing — the loser
// abandons the append and bumps the skip count instead of blocking.
func (r *Recorder) append(ev Event) {
	sh := &r.shards[r.cursor.Add(1)&r.mask]
	p := sh.pos.Add(1) - 1
	s := &sh.slots[p&r.capMask]
	if !s.state.CompareAndSwap(0, 1) {
		r.skipped.Add(1)
		return
	}
	s.stamp = p + 1
	s.ev = ev
	s.state.Store(0)
}

// Instant records a point event.
func (r *Recorder) Instant(ph Phase, rank, endpoint int, dump, seq, arg int64) {
	if r == nil {
		return
	}
	t := r.now()
	r.append(Event{Kind: KindInstant, Phase: ph, Rank: int32(rank),
		Endpoint: int32(endpoint), Dump: dump, Seq: seq, Arg: arg, Start: t, End: t})
}

// Span is an open duration event returned by Begin. It is a value — no
// allocation — and End on the zero Span (from a nil Recorder) no-ops.
type Span struct {
	r     *Recorder
	start int64
	dump  int64
	seq   int64
	rank  int32
	ep    int32
	ph    Phase
}

// Begin opens a span. seq carries the operator index for per-operator
// engine phases and is -1 otherwise.
func (r *Recorder) Begin(ph Phase, rank, endpoint int, dump, seq int64) Span {
	if r == nil {
		return Span{}
	}
	return Span{r: r, ph: ph, rank: int32(rank), ep: int32(endpoint),
		dump: dump, seq: seq, start: r.now()}
}

// WithDump returns a copy of the span stamped with a dump learned
// after Begin (e.g. a pulled region's epoch).
func (s Span) WithDump(dump int64) Span {
	s.dump = dump
	return s
}

// WithEndpoint returns a copy of the span stamped with a peer learned
// after Begin (e.g. the source of a received control message).
func (s Span) WithEndpoint(endpoint int) Span {
	s.ep = int32(endpoint)
	return s
}

// End closes the span with a payload (bytes moved, or 0).
func (s Span) End(arg int64) {
	if s.r == nil {
		return
	}
	s.r.append(Event{Kind: KindSpan, Phase: s.ph, Rank: s.rank, Endpoint: s.ep,
		Dump: s.dump, Seq: s.seq, Arg: arg, Start: s.start, End: s.r.now()})
}

// Recording is a self-describing snapshot of a Recorder: the event
// list (sorted by start time) plus the job shape and loss accounting
// needed to interpret it offline.
type Recording struct {
	NumCompute int
	NumStaging int
	Dumps      int
	// Dropped counts events lost to ring wrap-around or append
	// collisions. Verify refuses recordings with Dropped > 0 because a
	// gap could hide a violation.
	Dropped int64
	Events  []Event
}

// Snapshot copies the retained events out of the rings, sorted by
// start time. It must be called after the instrumented work has
// quiesced (RunPipeline returned); snapshotting a recorder with
// in-flight appends may tear an event.
func (r *Recorder) Snapshot() *Recording {
	if r == nil {
		return nil
	}
	rec := &Recording{
		NumCompute: r.meta.NumCompute,
		NumStaging: r.meta.NumStaging,
		Dumps:      r.meta.Dumps,
	}
	var appended uint64
	for i := range r.shards {
		sh := &r.shards[i]
		appended += sh.pos.Load()
		for j := range sh.slots {
			if s := &sh.slots[j]; s.stamp != 0 && s.state.Load() == 0 {
				rec.Events = append(rec.Events, s.ev)
			}
		}
	}
	rec.Dropped = int64(appended) - int64(len(rec.Events))
	sortEvents(rec.Events)
	return rec
}

// sortEvents orders events by start time, then end time, then rank —
// a deterministic timeline order for export and verification.
func sortEvents(evs []Event) {
	sort.Slice(evs, func(i, j int) bool {
		a, b := &evs[i], &evs[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.End != b.End {
			return a.End < b.End
		}
		if a.Rank != b.Rank {
			return a.Rank < b.Rank
		}
		return a.Phase < b.Phase
	})
}
