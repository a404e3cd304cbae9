// Package mpi implements a small in-process message-passing runtime with
// MPI-like semantics: a fixed set of ranks executing SPMD code, matched
// point-to-point messaging, and the usual collective operations.
//
// The paper's staging area runs as "a separate MPI program" whose analysis
// operators use "the highly-optimized MPI routines present on the peta-scale
// machine" for shuffling and synchronization. This package is the
// substitution for that substrate: each rank is a goroutine and messages
// travel through unbounded in-memory mailboxes, so the same SPMD programs
// (sample sort, reductions, all-to-all shuffles) run unchanged in spirit.
//
// Messages transfer ownership of their payload: a sender must not mutate
// data after sending it. Mailboxes are unbounded, so Send never deadlocks
// against a peer that has not yet posted a receive.
package mpi

import (
	"errors"
	"fmt"
	"runtime/debug"
	"sort"
	"sync"

	"predata/internal/trace"
)

// Wildcards for Recv matching.
const (
	AnySource = -1 // match a message from any rank
	AnyTag    = -1 // match a message with any tag
)

// Message is a received point-to-point message.
type Message struct {
	Src  int // sending rank within the communicator
	Tag  int // user tag (>= 0)
	Data any // payload; ownership belongs to the receiver
}

// envelope is the internal wire representation of a message.
type envelope struct {
	comm int // communicator id
	src  int // sender rank in that communicator
	tag  int // user or internal tag
	data any
}

// mailbox is an unbounded, condition-variable-guarded message queue.
type mailbox struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queue  []envelope
	closed bool
}

func newMailbox() *mailbox {
	m := &mailbox{}
	m.cond = sync.NewCond(&m.mu)
	return m
}

func (m *mailbox) put(e envelope) {
	m.mu.Lock()
	m.queue = append(m.queue, e)
	m.mu.Unlock()
	m.cond.Broadcast()
}

// take blocks until a message matching (comm, src, tag) is queued and
// removes it. src and tag may be wildcards. It returns an error if the
// world shuts down while waiting.
func (m *mailbox) take(comm, src, tag int) (envelope, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for {
		for i, e := range m.queue {
			if e.comm != comm {
				continue
			}
			if src != AnySource && e.src != src {
				continue
			}
			if tag != AnyTag && e.tag != tag {
				continue
			}
			m.queue = append(m.queue[:i], m.queue[i+1:]...)
			return e, nil
		}
		if m.closed {
			return envelope{}, errors.New("mpi: world shut down while receiving")
		}
		m.cond.Wait()
	}
}

func (m *mailbox) close() {
	m.mu.Lock()
	m.closed = true
	m.mu.Unlock()
	m.cond.Broadcast()
}

// world holds the shared state of one Run invocation.
type world struct {
	n     int
	boxes []*mailbox
}

// Comm is a communicator: a view of an ordered group of ranks. Methods on a
// Comm may only be called from the goroutine that owns the rank.
type Comm struct {
	world   *world
	id      int   // communicator id, equal on all members
	rank    int   // caller's rank within this communicator
	members []int // world rank of each communicator rank
	collSeq int   // collective sequence number, advances in lockstep

	// Flight-recorder state. Comm methods are single-goroutine by
	// contract, so plain fields suffice; Split and Dup propagate both
	// into derived communicators.
	tracer    *trace.Recorder
	traceDump int64
}

// SetTracer attaches a flight recorder to this rank's view of the
// communicator: every collective call records a PhaseCollective
// instant carrying its sequence number, op code, and communicator id.
// A nil recorder (the default) records nothing.
func (c *Comm) SetTracer(tr *trace.Recorder) {
	c.tracer = tr
	c.traceDump = -1
}

// SetTraceDump stamps subsequent collective events with the dump
// (timestep) currently being processed, so recordings group collective
// sequences per dump.
func (c *Comm) SetTraceDump(dump int64) { c.traceDump = dump }

// Rank returns the caller's rank in the communicator.
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks in the communicator.
func (c *Comm) Size() int { return len(c.members) }

// ID returns the communicator id, equal on all members. Derived
// communicators (Split, Dup) compute their ids deterministically from
// the parent's id and collective sequence, so two call sites can decide
// whether they hold views of the same communicator without extra
// communication — Server.Reconfigure relies on this to tell a duplicate
// reconfigure from a conflicting one.
func (c *Comm) ID() int { return c.id }

// Send delivers data to rank `to` with the given tag (tag must be >= 0).
// The payload is handed off by reference; the sender must not mutate it
// afterwards.
func (c *Comm) Send(to, tag int, data any) error {
	if tag < 0 {
		return fmt.Errorf("mpi: Send tag %d must be >= 0", tag)
	}
	return c.send(to, tag, data)
}

// send is the internal path that also accepts reserved negative tags.
func (c *Comm) send(to, tag int, data any) error {
	if to < 0 || to >= len(c.members) {
		return fmt.Errorf("mpi: Send to rank %d outside communicator of size %d", to, len(c.members))
	}
	c.world.boxes[c.members[to]].put(envelope{comm: c.id, src: c.rank, tag: tag, data: data})
	return nil
}

// Recv blocks until a message matching (from, tag) arrives. Use AnySource
// and AnyTag as wildcards. Tags passed must be >= 0 or AnyTag.
func (c *Comm) Recv(from, tag int) (Message, error) {
	if tag < 0 && tag != AnyTag {
		return Message{}, fmt.Errorf("mpi: Recv tag %d must be >= 0 or AnyTag", tag)
	}
	return c.recv(from, tag)
}

func (c *Comm) recv(from, tag int) (Message, error) {
	if from != AnySource && (from < 0 || from >= len(c.members)) {
		return Message{}, fmt.Errorf("mpi: Recv from rank %d outside communicator of size %d", from, len(c.members))
	}
	e, err := c.world.boxes[c.members[c.rank]].take(c.id, from, tag)
	if err != nil {
		return Message{}, err
	}
	return Message{Src: e.src, Tag: e.tag, Data: e.data}, nil
}

// nextCollTag reserves the internal tag for the next collective call. All
// ranks call collectives in the same order, so the sequence numbers agree.
// Internal tags are negative and therefore cannot collide with user tags.
// The op code identifies which collective consumed the tag; it is recorded
// so trace.Verify can compare both the order and the kind of every
// collective across ranks.
func (c *Comm) nextCollTag(op int32) int {
	c.collSeq++
	c.tracer.Instant(trace.PhaseCollective, c.members[c.rank], int(op),
		c.traceDump, int64(c.collSeq), int64(c.id))
	return -c.collSeq
}

// Barrier blocks until every rank in the communicator has entered it.
// It is implemented as a dissemination barrier: log2(n) rounds of paired
// notifications.
func (c *Comm) Barrier() error {
	tag := c.nextCollTag(trace.CollBarrier)
	n := len(c.members)
	for dist := 1; dist < n; dist *= 2 {
		to := (c.rank + dist) % n
		from := (c.rank - dist + n) % n
		if err := c.send(to, tag, nil); err != nil {
			return err
		}
		if _, err := c.recv(from, tag); err != nil {
			return err
		}
	}
	return nil
}

// Split partitions the communicator into disjoint sub-communicators, one
// per distinct color. Ranks within a sub-communicator are ordered by
// (key, parent rank). Every rank of the parent must call Split. A negative
// color returns a nil communicator for that rank (MPI_UNDEFINED).
func (c *Comm) Split(color, key int) (*Comm, error) {
	type triple struct{ Color, Key, Rank int }
	all, err := Allgather(c, []triple{{color, key, c.rank}})
	if err != nil {
		return nil, err
	}
	// Record the split itself on every participant — including ranks
	// leaving with a negative color — so traced collective sequences
	// stay identical across the whole parent group.
	c.tracer.Instant(trace.PhaseCollective, c.members[c.rank], int(trace.CollSplit),
		c.traceDump, int64(c.collSeq), int64(c.id))
	if color < 0 {
		return nil, nil
	}
	var group []triple
	for _, rows := range all {
		for _, t := range rows {
			if t.Color == color {
				group = append(group, t)
			}
		}
	}
	sort.Slice(group, func(i, j int) bool {
		if group[i].Key != group[j].Key {
			return group[i].Key < group[j].Key
		}
		return group[i].Rank < group[j].Rank
	})
	members := make([]int, len(group))
	myRank := -1
	for i, t := range group {
		members[i] = c.members[t.Rank]
		if t.Rank == c.rank {
			myRank = i
		}
	}
	// Derive the sub-communicator id deterministically so that all members
	// agree without extra communication: parent id, collective seq, and
	// color uniquely identify this split result.
	id := c.id*1_000_003 + c.collSeq*4099 + color + 7
	return &Comm{world: c.world, id: id, rank: myRank, members: members,
		tracer: c.tracer, traceDump: c.traceDump}, nil
}

// Dup returns a communicator with the same group but a distinct id, so
// that message traffic in the duplicate cannot match receives in the
// original. All ranks must call Dup.
func (c *Comm) Dup() (*Comm, error) {
	// Advance the collective sequence in lockstep so ids agree.
	c.collSeq++
	c.tracer.Instant(trace.PhaseCollective, c.members[c.rank], int(trace.CollDup),
		c.traceDump, int64(c.collSeq), int64(c.id))
	id := c.id*1_000_003 + c.collSeq*4099 + 3
	return &Comm{world: c.world, id: id, rank: c.rank, members: append([]int(nil), c.members...),
		tracer: c.tracer, traceDump: c.traceDump}, nil
}

// Run executes fn on n goroutine ranks sharing a new world and blocks until
// all return. The error is the join of all per-rank errors; a panic in a
// rank is converted to an error carrying the stack trace.
func Run(n int, fn func(c *Comm) error) error {
	if n <= 0 {
		return fmt.Errorf("mpi: Run size %d must be positive", n)
	}
	w := &world{n: n, boxes: make([]*mailbox, n)}
	for i := range w.boxes {
		w.boxes[i] = newMailbox()
	}
	members := make([]int, n)
	for i := range members {
		members[i] = i
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					errs[rank] = fmt.Errorf("mpi: rank %d panicked: %v\n%s", rank, p, debug.Stack())
					// Unblock peers waiting on this rank.
					for _, b := range w.boxes {
						b.close()
					}
				}
			}()
			comm := &Comm{world: w, id: 0, rank: rank, members: members}
			errs[rank] = fn(comm)
			if errs[rank] != nil {
				// A failed rank aborts the job (MPI_Abort semantics):
				// close every mailbox so peers blocked on this rank's
				// messages fail with an error instead of deadlocking.
				// Already-queued messages remain deliverable, so ranks
				// draining completed exchanges finish normally.
				for _, b := range w.boxes {
					b.close()
				}
			}
		}(r)
	}
	wg.Wait()
	return errors.Join(errs...)
}
