package flowctl

import (
	"context"
	"fmt"
	"time"
)

// FairShare is the tenant registry of a Budget's admission queue:
// instead of a single global pot with one FIFO queue, every registered
// tenant owns a weighted sub-budget — its guaranteed share of the
// capacity — and overload is arbitrated by weighted FIFO across tenants
// rather than strict arrival order. The serve daemon gives every
// simulation client (tenant) one registration, so a misbehaving tenant
// that floods the staging area can exhaust only its own share; other
// tenants' requests are granted ahead of its backlog the moment bytes
// free up.
//
// Two rules define fairness here:
//
//   - guaranteed share: a request that keeps the tenant's in-use bytes
//     within weight/Σweights of the capacity is granted as soon as the
//     pot physically has room, overtaking every other tenant's queued
//     backlog (it never waits behind someone else's overload);
//   - weighted FIFO: when multiple tenants queue, the budget's drain
//     grants the head request of the tenant with the smallest
//     in-use/weight ratio first — deficit round-robin, so each tenant's
//     throughput under sustained overload converges to its weight share.
//
// Within one tenant, requests stay strictly FIFO. FairShare holds no
// state of its own: registrations, queues and counters live in the
// budget, under its one mutex.
type FairShare struct {
	b *Budget
}

// FairStats snapshots one tenant's admission accounting.
type FairStats struct {
	Weight int
	// ShareBytes is the tenant's guaranteed slice of the capacity under
	// the current registration set.
	ShareBytes int64
	// InUseBytes is what the tenant currently holds; PeakInUseBytes its
	// high-water mark.
	InUseBytes     int64
	PeakInUseBytes int64
	// Grants counts admissions; Waits those that queued first.
	Grants int64
	Waits  int64
	// WaitTime is the total wall time the tenant's requests spent queued.
	WaitTime time.Duration
}

// NewFairShare builds a fair-share tenant registry over the given
// budget. Registered tenants queue beside the budget's own Acquire
// callers; the budget's own tenant has weight 1 and no guaranteed share.
func NewFairShare(b *Budget) (*FairShare, error) {
	if b == nil {
		return nil, fmt.Errorf("flowctl: FairShare needs a budget")
	}
	return &FairShare{b: b}, nil
}

// Budget exposes the underlying accountant (for stats and tracing).
func (f *FairShare) Budget() *Budget { return f.b }

// Register adds a tenant with the given weight (>= 1). Shares of every
// registered tenant shrink proportionally — registration is the serve
// daemon's tenant join.
func (f *FairShare) Register(id, weight int) error {
	if weight < 1 {
		return fmt.Errorf("flowctl: tenant %d weight %d must be >= 1", id, weight)
	}
	b := f.b
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, ok := b.tenants[id]; ok {
		return fmt.Errorf("flowctl: tenant %d already registered", id)
	}
	if b.tenants == nil {
		b.tenants = make(map[int]*tenant)
	}
	b.tenants[id] = &tenant{b: b, id: id, weight: int64(weight)}
	b.totalWeight += int64(weight)
	return nil
}

// Deregister removes a tenant — the serve daemon's tenant leave. It
// fails while the tenant still holds bytes or has queued requests, so a
// leave is graceful by construction: drain first, then go.
func (f *FairShare) Deregister(id int) error {
	b := f.b
	b.mu.Lock()
	defer b.mu.Unlock()
	t, ok := b.tenants[id]
	if !ok {
		return fmt.Errorf("flowctl: tenant %d not registered", id)
	}
	if t.inUse > 0 || len(t.queue) > 0 {
		return fmt.Errorf("flowctl: tenant %d leaving with %d bytes held and %d queued requests",
			id, t.inUse, len(t.queue))
	}
	delete(b.tenants, id)
	b.totalWeight -= t.weight
	return nil
}

// Stats snapshots one tenant's admission accounting.
func (f *FairShare) Stats(id int) (FairStats, error) {
	b := f.b
	b.mu.Lock()
	defer b.mu.Unlock()
	t, ok := b.tenants[id]
	if !ok {
		return FairStats{}, fmt.Errorf("flowctl: tenant %d not registered", id)
	}
	return FairStats{
		Weight:         int(t.weight),
		ShareBytes:     b.shareLocked(t),
		InUseBytes:     t.inUse,
		PeakInUseBytes: t.peakInUse,
		Grants:         t.grants,
		Waits:          t.waits,
		WaitTime:       time.Duration(t.waitTime),
	}, nil
}

// Acquire admits n bytes for the tenant, blocking (FIFO within the
// tenant, weighted FIFO across tenants) until the request can be
// granted or ctx is done. The returned release func must be called
// when the bytes leave memory; calling it again is a no-op.
func (f *FairShare) Acquire(ctx context.Context, id int, n int64) (release func(), err error) {
	b := f.b
	b.mu.Lock()
	t, ok := b.tenants[id]
	if !ok {
		b.mu.Unlock()
		return nil, fmt.Errorf("flowctl: tenant %d not registered", id)
	}
	lease, err := b.acquireLocked(ctx, t, n)
	if err != nil {
		return nil, err
	}
	return lease.Release, nil
}
