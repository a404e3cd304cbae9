// Package flowctl implements the staging area's memory-budget and
// overload-protection machinery: a byte-denominated accountant with
// high/low watermarks (Budget/Lease) and the one admission queue in
// front of it (FairShare registers weighted tenants on that queue),
// credit-based admission of incoming chunks, a spill-to-disk overflow
// queue kept as a wal log of chunk records, and the degradation ladder the
// staging engine climbs under persistent overload — throttle, spill,
// shed optional operators, raw pass-through.
//
// The paper's central resource constraint motivates all of it: staging
// nodes are provisioned at 64:1–128:1 compute:staging ratios with a
// small fixed memory budget, yet must absorb bursty multi-GB dumps
// without perturbing the simulation. The accountant makes the
// `<buffer size-MB>` hint of the ADIOS configuration binding; the ladder
// makes running out of budget a graceful, observable event instead of
// unbounded growth or a wedged producer.
package flowctl

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"time"

	"predata/internal/trace"
)

// Budget is a byte-denominated memory accountant with watermark-based
// overload signaling. Callers Acquire a Lease before admitting bytes into
// memory and Release it when the bytes leave (after the engine has mapped
// the chunk).
//
// The budget owns the only admission queue: a FIFO of waiters per
// tenant. Its own tenant (weight 1, no guaranteed share) serves
// Acquire, TryAcquire and Overdraft; FairShare registers weighted
// tenants on the same queue. Every release, and every waiter that gives
// up, drains the queue: it grants the heads that fit, the tenant with
// the smallest in-use/weight ratio first. With only the budget's own
// tenant that is plain FIFO — a large request blocks later small ones
// rather than starving behind them.
//
// Two rules keep the accountant live and bound its peak:
//
//   - a request larger than the whole capacity is granted once the
//     accountant is idle (used == 0), so one oversized chunk passes alone
//     instead of deadlocking;
//   - Overdraft grants immediately regardless of pressure, for the spill
//     path's transient pull buffer. Spills serialize on one overdraft at
//     a time, so the accounted peak never exceeds capacity + one chunk.
type Budget struct {
	capacity int64
	high     int64 // overload latches on at used >= high
	low      int64 // ...and off at used <= low (hysteresis)

	// mu guards every field below except the tracer's.
	mu       sync.Mutex
	used     int64
	peak     int64
	overHigh bool

	own         tenant          // Acquire, TryAcquire, Overdraft
	tenants     map[int]*tenant // registered through FairShare
	totalWeight int64           // of the registered tenants
	queued      int             // waiters across every tenant

	throttles    int64
	throttleWait int64 // nanoseconds

	// Utilization window: a per-dump measurement of how much of the
	// budget was actually held. winIntegral accumulates used-bytes ×
	// wall-time between movements, so winIntegral / window duration is
	// the time-weighted mean held bytes — the signal the autoscaler's
	// shrink rule reads. ResetWindow opens a fresh window; Window closes
	// out the integral and snapshots it.
	winStart    time.Time
	winLast     time.Time
	winIntegral float64 // byte·nanoseconds
	winPeak     int64

	// Flight-recorder state, set once via SetTracer before the budget
	// sees concurrent use.
	tracer  *trace.Recorder
	traceEP int
}

// tenant is one FIFO of the admission queue and the accounting of what
// it holds. Fields other than b, id and weight are guarded by b.mu.
type tenant struct {
	b      *Budget
	id     int
	weight int64
	inUse  int64
	queue  []*waiter

	grants    int64
	waits     int64
	waitTime  int64 // nanoseconds
	peakInUse int64
}

type waiter struct {
	n       int64
	ready   chan struct{} // closed by the drain on grant
	granted bool
}

// SetTracer attaches a flight recorder: every budget movement records
// a PhaseLease instant whose Seq field carries the used-bytes value
// observed inside the accountant's critical section, so trace.Verify
// can bound the peak without clock reasoning. endpoint is the world
// rank stamped on the events. Call before concurrent use.
func (b *Budget) SetTracer(tr *trace.Recorder, endpoint int) {
	b.tracer = tr
	b.traceEP = endpoint
	tr.Instant(trace.PhaseBudgetCap, endpoint, -1, -1, 0, b.capacity)
}

// BudgetStats snapshots the accountant's counters.
type BudgetStats struct {
	Capacity int64
	Used     int64
	// Peak is the high-water mark of accounted bytes, overdrafts included.
	Peak int64
	// Throttles counts admissions, of every tenant, that had to wait
	// for credits.
	Throttles int64
	// ThrottleWait is the total wall time those admissions spent waiting.
	ThrottleWait time.Duration
}

// NewBudget returns an accountant over capacity bytes with the given
// watermark fractions (high latches overload on, low latches it off).
func NewBudget(capacity int64, highFrac, lowFrac float64) (*Budget, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("flowctl: budget capacity %d must be positive", capacity)
	}
	if highFrac <= 0 || highFrac > 1 || lowFrac < 0 || lowFrac >= highFrac {
		return nil, fmt.Errorf("flowctl: watermarks low=%g high=%g must satisfy 0 <= low < high <= 1",
			lowFrac, highFrac)
	}
	b := &Budget{
		capacity: capacity,
		high:     int64(float64(capacity) * highFrac),
		low:      int64(float64(capacity) * lowFrac),
	}
	b.own = tenant{b: b, id: -1, weight: 1}
	return b, nil
}

// Capacity returns the budget in bytes.
func (b *Budget) Capacity() int64 { return b.capacity }

// fitsLocked reports whether n more bytes can be admitted now. A request
// that alone exceeds the capacity is admitted when the budget is idle.
func (b *Budget) fitsLocked(n int64) bool {
	return b.used+n <= b.capacity || b.used == 0
}

// shareLocked is a registered tenant's guaranteed slice of the
// capacity; the budget's own tenant has none.
func (b *Budget) shareLocked(t *tenant) int64 {
	if t == &b.own || b.totalWeight == 0 {
		return 0
	}
	return b.capacity * t.weight / b.totalWeight
}

// advanceWindowLocked folds the wall time since the last budget
// movement into the utilization integral at the level held over that
// interval. Called before every movement and on window snapshots.
func (b *Budget) advanceWindowLocked(now time.Time) {
	if b.winLast.IsZero() {
		b.winStart, b.winLast = now, now
		b.winPeak = b.used
		return
	}
	if dt := now.Sub(b.winLast); dt > 0 {
		b.winIntegral += float64(b.used) * float64(dt)
	}
	b.winLast = now
}

// ResetWindow opens a fresh utilization window. The controller calls it
// at StartDump so Window at Finish describes exactly one dump.
func (b *Budget) ResetWindow() {
	b.mu.Lock()
	defer b.mu.Unlock()
	now := time.Now()
	b.winStart, b.winLast = now, now
	b.winIntegral = 0
	b.winPeak = b.used
}

// WindowStats describes one utilization window: the peak bytes held
// against the budget and the time-weighted mean over the window.
type WindowStats struct {
	PeakBytes int64
	MeanBytes int64
}

// Window closes out the utilization integral at the current instant and
// snapshots the window. The window keeps accumulating; call ResetWindow
// to start the next one.
func (b *Budget) Window() WindowStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.advanceWindowLocked(time.Now())
	ws := WindowStats{PeakBytes: b.winPeak}
	if d := b.winLast.Sub(b.winStart); d > 0 {
		ws.MeanBytes = int64(b.winIntegral / float64(d))
	} else {
		ws.MeanBytes = b.used
	}
	return ws
}

// admitLocked accounts n bytes granted to t and updates the overload
// latch.
func (b *Budget) admitLocked(t *tenant, n int64) {
	b.advanceWindowLocked(time.Now())
	b.used += n
	b.peak = max(b.peak, b.used)
	b.winPeak = max(b.winPeak, b.used)
	t.inUse += n
	t.peakInUse = max(t.peakInUse, t.inUse)
	t.grants++
	b.tracer.Instant(trace.PhaseLease, b.traceEP, -1, -1, b.used, n)
	if b.used >= b.high {
		if !b.overHigh {
			b.tracer.Instant(trace.PhaseOverload, b.traceEP, -1, -1, b.used, 1)
		}
		b.overHigh = true
	}
}

// Acquire blocks until n bytes of credit are available (or ctx is done)
// and returns a Lease over them. A zero-byte request returns an inert
// lease immediately. The budget's own waiters are served FIFO.
func (b *Budget) Acquire(ctx context.Context, n int64) (*Lease, error) {
	b.mu.Lock()
	return b.acquireLocked(ctx, &b.own, n)
}

// acquireLocked is the one admission path; it is entered with b.mu held
// and releases it. The request is granted at once if the pot fits it
// and either nobody is queued, or t's own queue is empty and n keeps t
// within its guaranteed share (overtaking other tenants' backlogs).
// Otherwise it joins t's FIFO until the drain grants it or ctx is done.
func (b *Budget) acquireLocked(ctx context.Context, t *tenant, n int64) (*Lease, error) {
	if n <= 0 {
		b.mu.Unlock()
		if n < 0 {
			return nil, fmt.Errorf("flowctl: Acquire of negative size %d", n)
		}
		return &Lease{}, nil
	}
	if b.fitsLocked(n) && (b.queued == 0 || (len(t.queue) == 0 && t.inUse+n <= b.shareLocked(t))) {
		b.admitLocked(t, n)
		b.mu.Unlock()
		return &Lease{t: t, n: n}, nil
	}
	w := &waiter{n: n, ready: make(chan struct{})}
	t.queue = append(t.queue, w)
	t.waits++
	b.queued++
	b.throttles++
	start := time.Now()
	b.mu.Unlock()

	sp := b.tracer.Begin(trace.PhaseThrottle, b.traceEP, -1, -1, -1)
	select {
	case <-w.ready:
	case <-ctx.Done():
	}
	b.mu.Lock()
	// A grant observed under the lock wins the race with cancellation:
	// the bytes are already accounted to us.
	granted := w.granted
	if !granted {
		i := slices.Index(t.queue, w)
		t.queue = slices.Delete(t.queue, i, i+1)
		b.queued--
		b.drainLocked() // the waiters behind us may fit now
	}
	wait := time.Since(start).Nanoseconds()
	t.waitTime += wait
	b.throttleWait += wait
	b.mu.Unlock()
	if !granted {
		sp.End(0)
		return nil, fmt.Errorf("flowctl: waiting for %d bytes of budget credit: %w", n, ctx.Err())
	}
	sp.End(n)
	return &Lease{t: t, n: n}, nil
}

// TryAcquire grants n bytes immediately or reports failure without
// waiting. Queued waiters are never overtaken.
func (b *Budget) TryAcquire(n int64) (*Lease, bool) {
	if n <= 0 {
		return &Lease{}, n == 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.queued > 0 || !b.fitsLocked(n) {
		return nil, false
	}
	b.admitLocked(&b.own, n)
	return &Lease{t: &b.own, n: n}, true
}

// Overdraft accounts n bytes immediately regardless of pressure. It
// exists for the spill path's transient pull buffer: the caller holds the
// overdraft only while moving the bytes to disk, and spills serialize so
// at most one overdraft is outstanding — bounding the accountant's peak
// at the admission ceiling + one chunk. The ceiling is the capacity,
// except that fitsLocked grants one chunk larger than the whole budget
// when the accountant is idle, so with such chunks the peak can reach
// one oversized grant + one overdraft (the bound trace.Verify checks).
func (b *Budget) Overdraft(n int64) *Lease {
	if n <= 0 {
		return &Lease{}
	}
	b.mu.Lock()
	b.admitLocked(&b.own, n)
	b.mu.Unlock()
	return &Lease{t: &b.own, n: n}
}

// release returns n bytes held by t and drains the queue.
func (b *Budget) release(t *tenant, n int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.advanceWindowLocked(time.Now())
	b.used -= n
	t.inUse -= n
	b.tracer.Instant(trace.PhaseLease, b.traceEP, -1, -1, b.used, -n)
	if b.used <= b.low {
		if b.overHigh {
			b.tracer.Instant(trace.PhaseOverload, b.traceEP, -1, -1, b.used, 0)
		}
		b.overHigh = false
	}
	b.drainLocked()
}

// drainLocked grants queue heads while the pot has room, picking at each
// step, among the tenants whose head fits, the one with the smallest
// in-use/weight ratio (ties by id) — deficit-weighted round-robin. A
// tenant whose head does not fit is skipped (another tenant's smaller
// head may still fit), but only tenants with a smaller ratio overtake
// it, so the skip cannot starve it: its ratio only shrinks as others
// are charged. With only the budget's own tenant this is plain FIFO.
func (b *Budget) drainLocked() {
	for b.queued > 0 {
		next := b.pickLocked(&b.own, nil)
		for _, t := range b.tenants {
			next = b.pickLocked(t, next)
		}
		if next == nil {
			return
		}
		w := next.queue[0]
		next.queue[0] = nil
		next.queue = next.queue[1:]
		b.queued--
		w.granted = true
		b.admitLocked(next, w.n)
		close(w.ready)
	}
}

// pickLocked returns whichever of t and best the drain serves first;
// t is a candidate only if its queue head fits the pot.
func (b *Budget) pickLocked(t, best *tenant) *tenant {
	if len(t.queue) == 0 || !b.fitsLocked(t.queue[0].n) {
		return best
	}
	if best == nil {
		return t
	}
	rt, rb := t.inUse*best.weight, best.inUse*t.weight
	if rt < rb || rt == rb && t.id < best.id {
		return t
	}
	return best
}

// Overloaded reports the hysteresis latch: true once used bytes reach the
// high watermark, false again only after they fall to the low watermark.
// The ladder uses it to decide when spill mode may relax.
func (b *Budget) Overloaded() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.overHigh
}

// Stats snapshots the accountant.
func (b *Budget) Stats() BudgetStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return BudgetStats{
		Capacity:     b.capacity,
		Used:         b.used,
		Peak:         b.peak,
		Throttles:    b.throttles,
		ThrottleWait: time.Duration(b.throttleWait),
	}
}

// Lease is a grant of accounted bytes. Release is idempotent and safe to
// call concurrently with other budget operations. The zero Lease is an
// inert no-op.
type Lease struct {
	t    *tenant
	n    int64
	once sync.Once
}

// Bytes reports the lease size.
func (l *Lease) Bytes() int64 { return l.n }

// Release returns the lease's bytes to the budget.
func (l *Lease) Release() {
	if l == nil || l.t == nil {
		return
	}
	l.once.Do(func() { l.t.b.release(l.t, l.n) })
}
