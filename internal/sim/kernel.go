// Package sim is a discrete-event simulation kernel with
// processor-sharing resources, used to cross-validate the analytic
// performance model (package model) by *simulating* the paper's runs
// event by event: compute phases, synchronous writes, asynchronous pulls,
// and the contention between application communication and staging
// traffic all emerge from jobs sharing resources rather than from closed
// formulas.
package sim

import (
	"container/heap"
	"fmt"
	"math"
)

// Kernel is the event queue and virtual clock.
type Kernel struct {
	now   float64
	queue eventHeap
	seq   int64
}

// event is one scheduled callback.
type event struct {
	at  float64
	seq int64 // FIFO tie-break for equal times
	fn  func()
	off bool // cancelled
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() (out any) {
	old := *h
	n := len(old)
	out = old[n-1]
	*h = old[:n-1]
	return out
}

// NewKernel returns a kernel at virtual time zero.
func NewKernel() *Kernel { return &Kernel{} }

// Now returns the current virtual time in seconds.
func (k *Kernel) Now() float64 { return k.now }

// EventID names a scheduled event for cancellation.
type EventID = *event

// Schedule runs fn at virtual time `at` (>= Now). It returns an id usable
// with Cancel.
func (k *Kernel) Schedule(at float64, fn func()) (EventID, error) {
	if at < k.now {
		return nil, fmt.Errorf("sim: schedule at %g before now %g", at, k.now)
	}
	k.seq++
	e := &event{at: at, seq: k.seq, fn: fn}
	heap.Push(&k.queue, e)
	return e, nil
}

// After schedules fn after a delay.
func (k *Kernel) After(delay float64, fn func()) (EventID, error) {
	return k.Schedule(k.now+delay, fn)
}

// Cancel marks a scheduled event dead; it is skipped when popped.
func (k *Kernel) Cancel(e EventID) {
	if e != nil {
		e.off = true
	}
}

// Run processes events until the queue empties or the optional horizon is
// passed, and returns the final virtual time.
func (k *Kernel) Run(horizon float64) float64 {
	for k.queue.Len() > 0 {
		e := heap.Pop(&k.queue).(*event)
		if e.off {
			continue
		}
		if horizon > 0 && e.at > horizon {
			// Past the horizon: stop without executing.
			k.now = horizon
			return k.now
		}
		k.now = e.at
		e.fn()
	}
	return k.now
}

// Resource is a processor-sharing resource of fixed capacity (bytes/s,
// operations/s, ...): all in-flight jobs progress simultaneously at
// capacity/n. This is the natural model for a shared network link or a
// saturated file system, and it is what makes asynchronous staging
// traffic slow down an overlapping application collective — the
// interference the paper schedules around.
type Resource struct {
	k        *Kernel
	name     string
	capacity float64

	jobs       []*job
	lastUpdate float64
	completion EventID
}

// job is a group of `count` identical jobs progressing together; grouping
// keeps batch phases (thousands of symmetric processes) O(groups) instead
// of O(processes).
type job struct {
	remaining float64 // per member
	count     int
	done      func(at float64)
	// rateCap bounds each member's rate (bytes/s); zero means unbounded.
	// Models an endpoint NIC limiting a transfer below its fair share of
	// the fabric.
	rateCap float64
}

// memberRate returns one member's progress rate given the egalitarian
// share.
func (j *job) memberRate(share float64) float64 {
	if j.rateCap > 0 && j.rateCap < share {
		return j.rateCap
	}
	return share
}

// NewResource creates a processor-sharing resource.
func NewResource(k *Kernel, name string, capacity float64) (*Resource, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("sim: resource %q capacity %g must be positive", name, capacity)
	}
	return &Resource{k: k, name: name, capacity: capacity, lastUpdate: k.Now()}, nil
}

// InFlight reports the number of active jobs (group members included).
func (r *Resource) InFlight() int {
	n := 0
	for _, j := range r.jobs {
		n += j.count
	}
	return n
}

// advance progresses all jobs to the current virtual time.
func (r *Resource) advance() {
	now := r.k.Now()
	dt := now - r.lastUpdate
	r.lastUpdate = now
	if dt <= 0 || len(r.jobs) == 0 {
		return
	}
	share := r.capacity / float64(r.InFlight())
	for _, j := range r.jobs {
		j.remaining -= j.memberRate(share) * dt
		if j.remaining < 1e-9 {
			j.remaining = 0
		}
	}
}

// reschedule plans the next completion event.
func (r *Resource) reschedule() {
	if r.completion != nil {
		r.k.Cancel(r.completion)
		r.completion = nil
	}
	if len(r.jobs) == 0 {
		return
	}
	share := r.capacity / float64(r.InFlight())
	eta := math.Inf(1)
	for _, j := range r.jobs {
		if t := j.remaining / j.memberRate(share); t < eta {
			eta = t
		}
	}
	ev, err := r.k.After(eta, r.complete)
	if err != nil {
		panic(fmt.Sprintf("sim: internal: %v", err)) // eta >= 0 by construction
	}
	r.completion = ev
}

// complete retires every finished job.
func (r *Resource) complete() {
	r.advance()
	// Clamp floating-point residue: any job within a nanosecond of
	// completion at the current rate counts as done, otherwise rounding
	// can leave a denormal remainder that generates an endless stream of
	// zero-length completion events.
	if n := r.InFlight(); n > 0 {
		share := r.capacity / float64(n)
		for _, j := range r.jobs {
			if j.remaining <= j.memberRate(share)*1e-9 {
				j.remaining = 0
			}
		}
	}
	var live []*job
	var finished []*job
	for _, j := range r.jobs {
		if j.remaining <= 0 {
			finished = append(finished, j)
		} else {
			live = append(live, j)
		}
	}
	r.jobs = live
	r.reschedule()
	for _, j := range finished {
		if j.done != nil {
			j.done(r.k.Now())
		}
	}
}

// Submit starts a job of the given size; done fires at its completion
// time. Zero-size jobs complete immediately (at the next event
// opportunity).
func (r *Resource) Submit(size float64, done func(at float64)) error {
	return r.SubmitGroup(1, size, done)
}

// SubmitGroup starts n identical jobs of the given size as one group,
// sharing the resource with every other in-flight job; done fires once
// when all n complete (they finish together, being identical). Grouping
// keeps symmetric batch phases cheap.
func (r *Resource) SubmitGroup(n int, size float64, done func(at float64)) error {
	return r.SubmitGroupCapped(n, size, 0, done)
}

// SubmitGroupCapped is SubmitGroup with a per-member rate cap (bytes/s);
// zero means unbounded.
func (r *Resource) SubmitGroupCapped(n int, size, rateCap float64, done func(at float64)) error {
	if size < 0 {
		return fmt.Errorf("sim: resource %q job size %g is negative", r.name, size)
	}
	if n < 1 {
		return fmt.Errorf("sim: resource %q group size %d must be >= 1", r.name, n)
	}
	if rateCap < 0 {
		return fmt.Errorf("sim: resource %q rate cap %g is negative", r.name, rateCap)
	}
	r.advance()
	r.jobs = append(r.jobs, &job{remaining: size, count: n, done: done, rateCap: rateCap})
	r.reschedule()
	return nil
}
