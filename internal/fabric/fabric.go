// Package fabric models the interconnect between compute nodes and the
// staging area: server-directed, pull-mode RDMA transfers in the style of
// DataStager/Portals on the Cray SeaStar.
//
// Two planes are provided. The control plane is a small-message mailbox
// per endpoint, used for data-fetch requests (with piggybacked partial
// results). The data plane is pull-mode memory movement: a compute
// endpoint *exposes* a packed buffer, and a staging endpoint later *pulls*
// it. Data really moves (the staging engine operates on the bytes), and
// each pull also returns a modeled duration: the link latency plus the
// bytes over the link bandwidth, stretched by any degrade window.
//
// The fabric also implements the paper's key scheduling idea: compute
// endpoints declare when they are inside communication-intensive phases
// (collectives), and a *scheduled* fabric defers pulls that would overlap
// such a phase, while an *unscheduled* fabric proceeds and charges the
// endpoint an interference penalty — the effect the paper controls "to be
// less than 6% in the worst case" by proper scheduling.
package fabric

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"predata/internal/faults"
	"predata/internal/trace"
)

// Typed fabric errors, matched with errors.Is. Crash-induced failures
// wrap faults.ErrEndpointDown instead, so callers can distinguish a dead
// peer (reroute) from a dying job (abort).
var (
	// ErrShutdown marks operations refused because the whole fabric was
	// shut down.
	ErrShutdown = errors.New("fabric shut down")
	// ErrTimeout marks a control receive that hit its deadline.
	ErrTimeout = errors.New("control receive timed out")
)

// Config describes the modeled network.
type Config struct {
	// Endpoints is the number of endpoints (nodes) on the fabric.
	Endpoints int
	// LinkBandwidth is the injection bandwidth of one endpoint's NIC in
	// bytes/second.
	LinkBandwidth float64
	// Latency is the per-transfer setup latency.
	Latency time.Duration
	// Scheduled selects deferred (interference-avoiding) servicing of
	// pulls that would overlap a busy phase on the source endpoint.
	Scheduled bool
	// InterferencePenalty is the fraction of an overlapping transfer's
	// duration charged to the source endpoint's application as slowdown
	// when the fabric is unscheduled.
	InterferencePenalty float64
	// Faults, when non-nil, injects transient pull/control failures,
	// degraded-bandwidth windows, payload corruption, link partitions,
	// and control-message duplication into every operation on this
	// fabric. Endpoint crashes are driven separately through FailEndpoint.
	Faults *faults.Injector
	// Tracer, when non-nil, records pull spans, control-plane events,
	// injected faults, and endpoint failures into the flight recorder.
	Tracer *trace.Recorder
}

// DefaultConfig returns a network description loosely calibrated to a
// SeaStar-class torus NIC (~2 GB/s injection, ~5 us latency).
func DefaultConfig(endpoints int) Config {
	return Config{
		Endpoints:           endpoints,
		LinkBandwidth:       2e9,
		Latency:             5 * time.Microsecond,
		Scheduled:           true,
		InterferencePenalty: 0.5,
	}
}

// Handle names an exposed memory region on some endpoint.
type Handle struct {
	Endpoint int
	ID       uint64
	Size     int
}

// Fabric is the shared interconnect. All methods are safe for concurrent
// use by the endpoint goroutines.
type Fabric struct {
	cfg Config

	mu   sync.Mutex
	cond *sync.Cond
	eps  []*endpointState
	down bool // Shutdown has run
}

// region is one exposed memory area, stamped with the dump epoch its
// owner declared at expose time so dump-indexed fault windows can see
// which dump's data a pull moves.
type region struct {
	buf   []byte
	epoch int64
}

type endpointState struct {
	mailbox      []ctlMessage
	mailCond     *sync.Cond
	regions      map[uint64]region
	nextRegion   uint64
	busyDepth    int           // nested busy-phase depth
	interference time.Duration // accumulated slowdown charged to this endpoint
	pulledBytes  int64
	epoch        int64 // current dump epoch, stamped onto exposed regions
	closed       bool  // fabric shut down
	failed       bool  // endpoint crashed (fault injection)

	// Control-plane delivery state. ctlSent sequences this endpoint's
	// outgoing messages per destination; lastCtl remembers the highest
	// sequence delivered per source so recvCtl can absorb duplicates;
	// dupStash holds, per source, the fault-injected duplicate copy of
	// that stream's last message to this endpoint, delivered late (behind
	// the stream's next send) to model reordering.
	ctlSent  map[int]uint64
	lastCtl  map[int]uint64
	dupStash map[int]ctlMessage
}

// ctlMessage is one mailbox entry. seq is a per-(src → dst) stream
// sequence number starting at 1; duplicates carry their original's seq,
// which is how the receiver recognizes them.
type ctlMessage struct {
	src  int
	seq  uint64
	data any
}

// New builds a fabric with the given configuration.
func New(cfg Config) (*Fabric, error) {
	if cfg.Endpoints < 1 {
		return nil, fmt.Errorf("fabric: Endpoints %d must be >= 1", cfg.Endpoints)
	}
	if cfg.LinkBandwidth <= 0 {
		return nil, fmt.Errorf("fabric: LinkBandwidth %g must be positive", cfg.LinkBandwidth)
	}
	f := &Fabric{
		cfg: cfg,
		eps: make([]*endpointState, cfg.Endpoints),
	}
	f.cond = sync.NewCond(&f.mu)
	for i := range f.eps {
		f.eps[i] = &endpointState{
			regions:  make(map[uint64]region),
			ctlSent:  make(map[int]uint64),
			lastCtl:  make(map[int]uint64),
			dupStash: make(map[int]ctlMessage),
		}
		f.eps[i].mailCond = sync.NewCond(&f.mu)
	}
	return f, nil
}

// Endpoint returns the endpoint handle for node id.
func (f *Fabric) Endpoint(id int) (*Endpoint, error) {
	if id < 0 || id >= len(f.eps) {
		return nil, fmt.Errorf("fabric: endpoint %d outside [0,%d)", id, len(f.eps))
	}
	return &Endpoint{f: f, id: id}, nil
}

// Shutdown unblocks all endpoints waiting for control messages or
// deferred pulls; subsequent blocking calls fail with an error wrapping
// ErrShutdown. Shutdown is idempotent and safe to call concurrently —
// a watchdog, a failing rank, and a deferred cleanup may all race to
// tear the fabric down.
func (f *Fabric) Shutdown() {
	f.mu.Lock()
	if f.down {
		f.mu.Unlock()
		return
	}
	f.down = true
	for _, ep := range f.eps {
		ep.closed = true
	}
	f.mu.Unlock()
	f.cond.Broadcast()
	for _, ep := range f.eps {
		ep.mailCond.Broadcast()
	}
}

// FailEndpoint marks endpoint id as crashed: its exposed regions vanish,
// blocked receivers on it return an error wrapping faults.ErrEndpointDown,
// and subsequent sends to or pulls from it are refused with the same
// error. Unlike Shutdown this is per-endpoint — it models node loss; the
// recovery layer reroutes around it, and ReviveEndpoint brings a bounced
// node back with fresh control-plane streams.
//
// Failing an endpoint wipes only the dead node's own state: its regions,
// mailbox, stash and sequence maps go away with the node. Mail it already
// delivered into peer mailboxes survives — a message on the wire does not
// un-arrive because its sender died — so receivers still observe requests
// from a node that crashed mid-dump and can fail the subsequent pull
// loudly instead of hanging. Peer-side bookkeeping keyed by the dead id
// is retired at ReviveEndpoint, where the fresh stream actually begins.
func (f *Fabric) FailEndpoint(id int) error {
	if id < 0 || id >= len(f.eps) {
		return fmt.Errorf("fabric: FailEndpoint %d outside [0,%d)", id, len(f.eps))
	}
	f.mu.Lock()
	st := f.eps[id]
	st.failed = true
	st.regions = make(map[uint64]region)
	st.mailbox = nil
	st.dupStash = make(map[int]ctlMessage)
	st.ctlSent = make(map[int]uint64)
	st.lastCtl = make(map[int]uint64)
	f.mu.Unlock()
	f.cond.Broadcast()
	st.mailCond.Broadcast()
	f.cfg.Tracer.Instant(trace.PhaseEndpointDown, id, -1, -1, 0, 0)
	return nil
}

// pruneFrom drops every message originating at src, in place.
func pruneFrom(box []ctlMessage, src int) []ctlMessage {
	kept := box[:0]
	for _, m := range box {
		if m.src != src {
			kept = append(kept, m)
		}
	}
	return kept
}

// ReviveEndpoint clears the crashed flag set by FailEndpoint, modeling a
// node rejoining after a restart. The node comes back empty — no exposed
// regions, no queued mail — and every peer retires its (src, seq) state
// for the dead stream: sequence counters and delivery watermarks keyed by
// the revived id are dropped, and any still-undelivered pre-crash message
// from it is pruned. Without this reset the dedup state would grow
// monotonically across fail/revive churn, a stale lastCtl watermark would
// silently swallow the first messages of the fresh stream, and leftover
// dead-stream mail could collide with the fresh sequence numbers. The
// first post-revival send therefore starts at seq 1 against a zero
// watermark in both directions. Reviving a live endpoint is a no-op.
func (f *Fabric) ReviveEndpoint(id int) error {
	if id < 0 || id >= len(f.eps) {
		return fmt.Errorf("fabric: ReviveEndpoint %d outside [0,%d)", id, len(f.eps))
	}
	f.mu.Lock()
	st := f.eps[id]
	st.failed = false
	st.mailbox = nil
	st.dupStash = make(map[int]ctlMessage)
	st.ctlSent = make(map[int]uint64)
	st.lastCtl = make(map[int]uint64)
	for peerID, peer := range f.eps {
		if peerID == id {
			continue
		}
		delete(peer.ctlSent, id)
		delete(peer.lastCtl, id)
		peer.mailbox = pruneFrom(peer.mailbox, id)
		delete(peer.dupStash, id)
	}
	f.mu.Unlock()
	f.cond.Broadcast()
	st.mailCond.Broadcast()
	return nil
}

// Failed reports whether FailEndpoint has crashed endpoint id.
func (f *Fabric) Failed(id int) bool {
	if id < 0 || id >= len(f.eps) {
		return false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.eps[id].failed
}

// CtlStateSize returns the number of control-plane bookkeeping entries
// held for endpoint id: per-destination send sequences, per-source
// delivery watermarks, and stashed duplicate copies. Soak tests use it to
// assert the dedup state stays bounded across fail/revive churn.
func (f *Fabric) CtlStateSize(id int) int {
	if id < 0 || id >= len(f.eps) {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	st := f.eps[id]
	return len(st.ctlSent) + len(st.lastCtl) + len(st.dupStash)
}

// Endpoint is one node's attachment to the fabric.
type Endpoint struct {
	f  *Fabric
	id int
}

// ID returns the endpoint's fabric id.
func (e *Endpoint) ID() int { return e.id }

// SendCtl sends a small control message (e.g. a data-fetch request) to
// endpoint dst. Control messages are modeled as latency-only. Sending to
// a crashed endpoint fails wrapping faults.ErrEndpointDown; sending
// after Shutdown fails wrapping ErrShutdown.
func (e *Endpoint) SendCtl(dst int, data any) error {
	if dst < 0 || dst >= len(e.f.eps) {
		return fmt.Errorf("fabric: SendCtl to endpoint %d outside fabric", dst)
	}
	f := e.f
	if err := f.cfg.Faults.OpFault(faults.OpSendCtl, e.id, dst); err != nil {
		f.cfg.Tracer.Instant(trace.PhaseFault, e.id, dst, -1, 0, int64(faults.OpSendCtl))
		return fmt.Errorf("fabric: SendCtl to endpoint %d: %w", dst, err)
	}
	f.mu.Lock()
	target := f.eps[dst]
	epoch := f.eps[e.id].epoch
	if target.failed {
		f.mu.Unlock()
		f.cfg.Faults.NoteDownRefusal()
		f.cfg.Tracer.Instant(trace.PhaseRefusal, e.id, dst, epoch, 0, int64(faults.OpSendCtl))
		return fmt.Errorf("fabric: SendCtl to endpoint %d: %w", dst, faults.ErrEndpointDown)
	}
	if target.closed {
		f.mu.Unlock()
		return fmt.Errorf("fabric: SendCtl to endpoint %d: %w", dst, ErrShutdown)
	}
	if f.cfg.Faults.Unreachable(e.id, dst, epoch) {
		f.mu.Unlock()
		f.cfg.Faults.NoteUnreachable()
		f.cfg.Tracer.Instant(trace.PhaseUnreachable, e.id, dst, epoch, 0, int64(faults.OpSendCtl))
		return fmt.Errorf("fabric: SendCtl to endpoint %d at dump %d: %w", dst, epoch, faults.ErrUnreachable)
	}
	sender := f.eps[e.id]
	sender.ctlSent[dst]++
	seq := sender.ctlSent[dst]
	// The stream's stashed duplicate is flushed ahead of the new message:
	// it lands behind its own original (the receiver sees a duplicate that
	// is also reordered relative to newer traffic) but never before it.
	// Only this stream's sends flush it, so whether a copy arrives depends
	// on its sender's program order alone, not on other senders' timing.
	if dup, ok := target.dupStash[e.id]; ok {
		target.mailbox = append(target.mailbox, dup)
		delete(target.dupStash, e.id)
	}
	m := ctlMessage{src: e.id, seq: seq, data: data}
	target.mailbox = append(target.mailbox, m)
	if f.cfg.Faults.DupFault(e.id, dst) {
		target.dupStash[e.id] = m
	}
	f.mu.Unlock()
	target.mailCond.Broadcast()
	f.cfg.Tracer.Instant(trace.PhaseSendCtl, e.id, dst, epoch, 0, 0)
	return nil
}

// RecvCtl blocks until a control message arrives and returns its source
// and payload.
func (e *Endpoint) RecvCtl() (src int, data any, err error) {
	return e.recvCtl(0)
}

// RecvCtlTimeout is RecvCtl with a deadline: when no message arrives
// within timeout it fails with an error wrapping ErrTimeout. A timeout
// <= 0 blocks indefinitely, like RecvCtl.
func (e *Endpoint) RecvCtlTimeout(timeout time.Duration) (src int, data any, err error) {
	return e.recvCtl(timeout)
}

func (e *Endpoint) recvCtl(timeout time.Duration) (src int, data any, err error) {
	f := e.f
	if ferr := f.cfg.Faults.OpFault(faults.OpRecvCtl, e.id, e.id); ferr != nil {
		f.cfg.Tracer.Instant(trace.PhaseFault, e.id, -1, -1, 0, int64(faults.OpRecvCtl))
		return 0, nil, fmt.Errorf("fabric: RecvCtl on endpoint %d: %w", e.id, ferr)
	}
	sp := f.cfg.Tracer.Begin(trace.PhaseRecvCtl, e.id, -1, -1, -1)
	f.mu.Lock()
	defer f.mu.Unlock()
	st := f.eps[e.id]
	var deadline time.Time
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
		// sync.Cond has no timed wait; an AfterFunc broadcast wakes the
		// loop so it can observe the deadline.
		stop := time.AfterFunc(timeout, func() {
			f.mu.Lock()
			defer f.mu.Unlock()
			st.mailCond.Broadcast()
		})
		defer stop.Stop()
	}
	for {
		for len(st.mailbox) > 0 {
			m := st.mailbox[0]
			st.mailbox = st.mailbox[1:]
			// Delivery is idempotent under duplication: each (src → dst)
			// stream is sequenced at the sender, and a message at or below
			// the last delivered sequence for its source is a duplicate —
			// injected copies always trail their original — so it is
			// absorbed here instead of reaching the application.
			if m.seq > 0 && m.seq <= st.lastCtl[m.src] {
				f.cfg.Faults.NoteDupDrop()
				f.cfg.Tracer.Instant(trace.PhaseDupDrop, e.id, m.src, st.epoch, 0, int64(m.seq))
				continue
			}
			if m.seq > 0 {
				st.lastCtl[m.src] = m.seq
			}
			sp.WithEndpoint(m.src).WithDump(st.epoch).End(0)
			return m.src, m.data, nil
		}
		if st.failed {
			sp.End(0)
			return 0, nil, fmt.Errorf("fabric: endpoint %d: %w", e.id, faults.ErrEndpointDown)
		}
		if st.closed {
			sp.End(0)
			return 0, nil, fmt.Errorf("fabric: endpoint %d: %w", e.id, ErrShutdown)
		}
		if timeout > 0 && !time.Now().Before(deadline) {
			sp.End(0)
			return 0, nil, fmt.Errorf("fabric: endpoint %d: no control message within %v: %w", e.id, timeout, ErrTimeout)
		}
		st.mailCond.Wait()
	}
}

// CtlRecord is one drained control message: who sent it and what it
// carried. DrainCtl returns these so a restarting rank can journal its
// in-flight mail before dropping off the fabric.
type CtlRecord struct {
	Src  int
	Data any
}

// DrainCtl empties this endpoint's mailbox without blocking and returns
// the messages in arrival order. The same (src, seq) duplicate absorption
// as RecvCtl applies, so injected duplicate copies never leak into the
// drained set and the delivery watermarks stay correct for whatever mail
// arrives next. Draining a failed or shut-down endpoint returns whatever
// was queued, without error — the caller is tearing down anyway.
func (e *Endpoint) DrainCtl() []CtlRecord {
	f := e.f
	f.mu.Lock()
	defer f.mu.Unlock()
	st := f.eps[e.id]
	var out []CtlRecord
	for _, m := range st.mailbox {
		if m.seq > 0 && m.seq <= st.lastCtl[m.src] {
			f.cfg.Faults.NoteDupDrop()
			continue
		}
		if m.seq > 0 {
			st.lastCtl[m.src] = m.seq
		}
		out = append(out, CtlRecord{Src: m.src, Data: m.data})
	}
	st.mailbox = nil
	return out
}

// SetEpoch declares the dump epoch stamped onto regions this endpoint
// exposes from now on; dump-indexed degrade windows key off it.
func (e *Endpoint) SetEpoch(epoch int64) {
	f := e.f
	f.mu.Lock()
	f.eps[e.id].epoch = epoch
	f.mu.Unlock()
}

// Expose registers buf as a pullable memory region and returns its handle.
// A pull hands these very bytes to the puller rather than copying them, so
// while the region is exposed the caller may read buf but not write it.
// Once the region is released — the puller's Ack after its last read of
// the bytes, the owner's Release, or the endpoint's crash — the caller may
// reuse buf (Exposed reports which).
//
// A send-site corrupt fault (corrupt:EP:PROB:send) flips a byte in the
// region itself — the source's copy is bad, so every pull of this
// handle returns the same damaged bytes and a re-pull cannot heal it.
// The caller's buf is never mutated; the region keeps a corrupted copy.
func (e *Endpoint) Expose(buf []byte) Handle {
	f := e.f
	if pos, hit := f.cfg.Faults.CorruptFault(faults.OpSendCtl, e.id, e.id, len(buf)); hit {
		bad := make([]byte, len(buf))
		copy(bad, buf)
		bad[pos] ^= 0xFF
		buf = bad
		f.cfg.Tracer.Instant(trace.PhaseCorrupt, e.id, e.id, -1, 0, int64(pos))
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	st := f.eps[e.id]
	st.nextRegion++
	id := st.nextRegion
	st.regions[id] = region{buf: buf, epoch: st.epoch}
	return Handle{Endpoint: e.id, ID: id, Size: len(buf)}
}

// Release drops an exposed region without pulling it.
func (e *Endpoint) Release(h Handle) error {
	f := e.f
	f.mu.Lock()
	defer f.mu.Unlock()
	if h.Endpoint != e.id {
		return fmt.Errorf("fabric: Release of handle owned by endpoint %d from %d", h.Endpoint, e.id)
	}
	st := f.eps[e.id]
	if _, ok := st.regions[h.ID]; !ok {
		return fmt.Errorf("fabric: Release of unknown region %d", h.ID)
	}
	delete(st.regions, h.ID)
	return nil
}

// Exposed reports whether the region named by h is still exposed: not yet
// acknowledged, released, or lost with its endpoint.
func (e *Endpoint) Exposed(h Handle) bool {
	f := e.f
	if h.Endpoint < 0 || h.Endpoint >= len(f.eps) {
		return false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	_, ok := f.eps[h.Endpoint].regions[h.ID]
	return ok
}

// ExposedBytes reports the total size of regions currently exposed on this
// endpoint — the compute-node buffering cost of asynchronous movement.
func (e *Endpoint) ExposedBytes() int64 {
	f := e.f
	f.mu.Lock()
	defer f.mu.Unlock()
	var n int64
	for _, r := range f.eps[e.id].regions {
		n += int64(len(r.buf))
	}
	return n
}

// EnterBusyPhase marks the start of a communication-intensive application
// phase on this endpoint (e.g. a simulation collective).
func (e *Endpoint) EnterBusyPhase() {
	f := e.f
	f.mu.Lock()
	f.eps[e.id].busyDepth++
	f.mu.Unlock()
}

// LeaveBusyPhase marks the end of the phase and wakes deferred pulls.
func (e *Endpoint) LeaveBusyPhase() {
	f := e.f
	f.mu.Lock()
	st := f.eps[e.id]
	if st.busyDepth == 0 {
		f.mu.Unlock()
		panic("fabric: LeaveBusyPhase without EnterBusyPhase")
	}
	st.busyDepth--
	f.mu.Unlock()
	f.cond.Broadcast()
}

// Interference returns the accumulated modeled slowdown charged to this
// endpoint's application by transfers that overlapped its busy phases.
func (e *Endpoint) Interference() time.Duration {
	f := e.f
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.eps[e.id].interference
}

// Pull transfers the region named by h to the caller, releasing the region
// on the source endpoint. It returns the data and the modeled transfer
// duration. The data is the exposed buffer itself, handed off, not copied:
// every pull of a handle returns the same backing array, shared read-only
// with whoever else pulled it, so the puller must not write it. Pull
// releases the region as it hands the bytes over, so an owner that reuses
// released buffers (Expose) is pulled with PullRetain and acknowledged
// after the puller's last read.
//
// On a scheduled fabric, a pull whose source endpoint is inside a busy
// phase blocks until the phase ends. On an unscheduled fabric it proceeds
// immediately and charges the source the configured interference penalty.
func (e *Endpoint) Pull(h Handle) ([]byte, time.Duration, error) {
	return e.PullContext(context.Background(), h)
}

// PullContext is Pull bounded by ctx: a pull deferred behind a source
// busy phase returns ctx's error instead of blocking forever, leaving the
// region exposed for a later retry. Once the pull is past that wait it
// completes.
func (e *Endpoint) PullContext(ctx context.Context, h Handle) ([]byte, time.Duration, error) {
	return e.pull(ctx, h, true)
}

// PullRetain is PullContext without consuming the region: the source
// keeps the handle exposed until the puller calls Ack (or the owner
// Release). This is the integrity-checked transfer primitive — the
// puller verifies the delivered bytes end-to-end and acknowledges only
// after its last read of them, so a corrupted delivery can be re-pulled
// from the intact region, and the owner may reuse the buffer once the
// region is gone.
func (e *Endpoint) PullRetain(ctx context.Context, h Handle) ([]byte, time.Duration, error) {
	return e.pull(ctx, h, false)
}

// Ack releases the region named by h from the puller's side, completing
// a PullRetain transfer: the puller is done reading the bytes, and the
// owner may reuse them. Acking a region that is already gone — acked
// twice, released by its owner, or lost with an owner that crashed — is
// a harmless no-op.
func (e *Endpoint) Ack(h Handle) error {
	f := e.f
	if h.Endpoint < 0 || h.Endpoint >= len(f.eps) {
		return fmt.Errorf("fabric: Ack of handle on endpoint %d outside fabric", h.Endpoint)
	}
	f.mu.Lock()
	delete(f.eps[h.Endpoint].regions, h.ID)
	f.mu.Unlock()
	return nil
}

func (e *Endpoint) pull(ctx context.Context, h Handle, consume bool) ([]byte, time.Duration, error) {
	f := e.f
	if h.Endpoint < 0 || h.Endpoint >= len(f.eps) {
		return nil, 0, fmt.Errorf("fabric: Pull from endpoint %d outside fabric", h.Endpoint)
	}
	// Transients fire before the region is consumed, so a retry of the
	// same handle can still succeed.
	if err := f.cfg.Faults.OpFault(faults.OpPull, e.id, h.Endpoint); err != nil {
		f.cfg.Tracer.Instant(trace.PhaseFault, e.id, h.Endpoint, -1, 0, int64(faults.OpPull))
		return nil, 0, fmt.Errorf("fabric: Pull from endpoint %d: %w", h.Endpoint, err)
	}
	sp := f.cfg.Tracer.Begin(trace.PhasePull, e.id, h.Endpoint, -1, -1)
	f.mu.Lock()
	src := f.eps[h.Endpoint]
	if f.cfg.Scheduled && src.busyDepth > 0 {
		// Arm a wake-up so the deferred-pull wait observes ctx expiry.
		stop := context.AfterFunc(ctx, f.cond.Broadcast)
		for src.busyDepth > 0 && !src.closed && !src.failed && ctx.Err() == nil {
			f.cond.Wait()
		}
		stop()
	}
	if err := ctx.Err(); err != nil && !src.failed && !src.closed {
		f.mu.Unlock()
		sp.End(0)
		return nil, 0, fmt.Errorf("fabric: Pull from endpoint %d: %w", h.Endpoint, err)
	}
	if src.failed {
		f.mu.Unlock()
		f.cfg.Faults.NoteDownRefusal()
		f.cfg.Tracer.Instant(trace.PhaseRefusal, e.id, h.Endpoint, -1, 0, int64(faults.OpPull))
		sp.End(0)
		return nil, 0, fmt.Errorf("fabric: Pull from endpoint %d: %w", h.Endpoint, faults.ErrEndpointDown)
	}
	if src.closed {
		f.mu.Unlock()
		sp.End(0)
		return nil, 0, fmt.Errorf("fabric: Pull from endpoint %d: %w", h.Endpoint, ErrShutdown)
	}
	reg, ok := src.regions[h.ID]
	if !ok {
		f.mu.Unlock()
		sp.End(0)
		return nil, 0, fmt.Errorf("fabric: Pull of unknown region %d on endpoint %d", h.ID, h.Endpoint)
	}
	// Partitions cut the data plane too. The refusal keys off the dump
	// the region belongs to and leaves the region exposed: the peer is
	// alive, and the puller's recovery layer decides whether to reroute
	// or wait out the window.
	if f.cfg.Faults.Unreachable(e.id, h.Endpoint, reg.epoch) {
		f.mu.Unlock()
		f.cfg.Faults.NoteUnreachable()
		f.cfg.Tracer.Instant(trace.PhaseUnreachable, e.id, h.Endpoint, reg.epoch, 0, int64(faults.OpPull))
		sp.End(0)
		return nil, 0, fmt.Errorf("fabric: Pull from endpoint %d at dump %d: %w", h.Endpoint, reg.epoch, faults.ErrUnreachable)
	}
	if consume {
		delete(src.regions, h.ID)
	}
	d := modeled(f.cfg.Latency, float64(len(reg.buf))/f.cfg.LinkBandwidth*
		f.cfg.Faults.DegradeFactor(h.Endpoint, reg.epoch))
	src.pulledBytes += int64(len(reg.buf))
	if src.busyDepth > 0 && !f.cfg.Scheduled {
		src.interference += time.Duration(float64(d) * f.cfg.InterferencePenalty)
	}
	f.mu.Unlock()

	out := reg.buf
	// A pull-site corrupt fault flips a byte in this delivery only — wire
	// corruption. It is the one writer of a pulled frame, so it takes a
	// private copy first: the region keeps its intact bytes and a
	// CRC-failed delivery heals on re-pull (which is why PullRetain leaves
	// the region in place until the puller acks).
	if pos, hit := f.cfg.Faults.CorruptFault(faults.OpPull, e.id, h.Endpoint, len(out)); hit {
		out = append([]byte(nil), reg.buf...)
		out[pos] ^= 0xFF
		f.cfg.Tracer.Instant(trace.PhaseCorrupt, e.id, h.Endpoint, reg.epoch, 0, int64(pos))
	}
	sp.WithDump(reg.epoch).End(int64(len(out)))
	return out, d, nil
}

// PulledBytes reports the total bytes pulled *from* this endpoint.
func (e *Endpoint) PulledBytes() int64 {
	f := e.f
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.eps[e.id].pulledBytes
}

// modeled is a pull's modeled time, latency plus secs of transfer,
// saturating at the largest Duration: a huge degrade factor must not wrap
// it negative.
func modeled(latency time.Duration, secs float64) time.Duration {
	if ns := secs * float64(time.Second); ns < float64(math.MaxInt64-latency) {
		return latency + time.Duration(ns)
	}
	return math.MaxInt64
}
