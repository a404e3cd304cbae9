package staging

import (
	"fmt"
	"hash/crc32"
	"slices"
	"sync"

	"predata/internal/ffs"
	"predata/internal/mpi"
)

// VerifyingReducer is an optional Operator extension for an operator that
// reads every payload byte of the arrays it uses once and in order, in its
// Map or in its Reduce, so the chunk's check can ride that read instead of
// a pass of its own. Its Map takes each array it uses as a View
// (Context.View), and whichever of Map or Reduce reads the rows folds each
// run of them right after reading it, through the Context of the rank
// reading them (Context.Fold): the reorg in its Reduce scatter, the sort in
// its Map key pass. The folding rank sends the view's sum to the verify
// step.
//
// When every operator of a dump is one, an unchecked chunk
// (Chunk.Unverified) reaches Map with its check still pending: the views
// carry its parts, and between Reduce and Finalize every rank runs one
// verify step that sends each folded sum back to the rank holding the
// chunk and gathers the verdicts. On a mismatch nothing is finalized: each
// bad chunk goes through Chunk.Corrupt, and Initialize, Map, Shuffle and
// Reduce run once more over the dump's chunks, all checked by then. So the
// operator must keep nothing from a pass that Initialize does not reset,
// and must not publish or commit anything before Finalize.
type VerifyingReducer interface {
	// VerifiesInReduce marks the operator; it is never called.
	VerifiesInReduce()
}

// View is one float64 array of a chunk as a VerifyingReducer's Map takes
// it. While the chunk is unchecked, the view carries the part of the
// chunk's check that covers the array's payload bytes — the payload's own
// little-endian words, so the sum does not depend on the host — and the
// Map or Reduce that reads the rows folds them into it (Context.Fold).
type View struct {
	Array *ffs.Array

	wire   []byte // the array's payload bytes; nil when there is nothing to check
	origin int    // the staging rank holding the chunk
	chunk  int    // the chunk's index among that rank's checks
	part   int    // the view's index among the chunk's parts
	sum    uint32
	folded int // bytes of wire in sum; -1 after a fold out of order
}

// Fold extends v's part of its chunk's check over rows [lo, hi) of the
// array's leading dimension, which the caller has just read on c's rank,
// whose verify step sends the sum: the rows must follow the last fold's. A
// fold out of order leaves the part unsummed, and the rank holding the
// chunk sums those bytes itself.
func (c *Context) Fold(v *View, lo, hi int) {
	if v.wire != nil && lo == 0 {
		c.mu.Lock()
		c.folded = append(c.folded, v)
		c.mu.Unlock()
	}
	v.fold(lo, hi)
}

func (v *View) fold(lo, hi int) {
	if v.wire == nil || v.folded < 0 {
		return
	}
	row := len(v.wire) / int(v.Array.Dims[0])
	if lo*row != v.folded || hi < lo || hi*row > len(v.wire) {
		v.folded = -1
		return
	}
	v.sum = crc32.Update(v.sum, crc32.IEEETable, v.wire[lo*row:hi*row])
	v.folded = hi * row
}

// View returns a, one of chunk's float64 arrays, as a VerifyingReducer's
// Map takes it: carrying the array's part of the chunk's check when that
// waits for Reduce, and nothing more otherwise.
// The context hands views out of slabs of one record's arrays, so a
// chunk's views cost at most one allocation.
func (c *Context) View(chunk *Chunk, a *ffs.Array) (*View, error) {
	c.mu.Lock()
	if len(c.views) == cap(c.views) {
		c.views = make([]View, 0, max(len(chunk.Record), 1))
	}
	c.views = append(c.views, View{Array: a})
	v := &c.views[len(c.views)-1]
	c.mu.Unlock()
	ext := chunk.extents()
	if c.checks == nil || chunk.check == nil || ext == nil || len(a.Float64) == 0 {
		return v, nil
	}
	i := slices.IndexFunc(ext, func(e ffs.Extent) bool { return e.Array == a })
	if i < 0 {
		return nil, fmt.Errorf("staging: view of an array that is not one of the chunk's float64 arrays")
	}
	e := ext[i]
	v.wire = chunk.Unverified[e.Off : e.Off+e.Len : e.Off+e.Len]
	v.origin, v.chunk, v.part = c.Rank(), chunk.check.seq, i
	return v, nil
}

// checks are one rank's pending chunk checks in a dump whose checks wait
// for Reduce: the chunks mapped unchecked, each carrying its check, in the
// order the Map workers took them.
type checks struct {
	mu   sync.Mutex
	list []*Chunk
}

// add starts chunk's check.
func (cs *checks) add(chunk *Chunk) {
	k := &check{parts: make([]part, len(chunk.extents()))}
	cs.mu.Lock()
	k.seq = len(cs.list)
	cs.list = append(cs.list, chunk)
	cs.mu.Unlock()
	chunk.check = k
}

// check is an unchecked chunk's check against its Sum, built from where
// Decode found the record's float64 arrays (Chunk.extents): one part per
// array, folded where the part is read — block by block in the engine's
// walk for a BlockMapper, through Context.Fold for a VerifyingReducer (the
// reorg's Reduce scatter, the sort's Map key pass). matches sums every
// other byte and judges.
type check struct {
	parts []part // each extent's folded sum, indexed like the extents
	seq   int    // the chunk's index among its rank's pending checks
	bad   bool   // a Map failed and the payload does not match Sum
}

// part is the sum folded over one extent, once it is known.
type part struct {
	sum   uint32
	known bool
}

// extents returns where the record's float64 arrays lie in Unverified, or
// nil when DecodeChunk did not decode the record from those bytes: such a
// chunk is checked whole, never walked.
func (c *Chunk) extents() []ffs.Extent {
	p := c.Unverified
	if c.base == nil || len(p) == 0 || &p[0] != c.base {
		return nil
	}
	if n := len(c.layout); n > 0 && c.layout[n-1].Off+c.layout[n-1].Len > len(p) {
		return nil
	}
	return c.layout
}

// matches reports whether c's payload matches its Sum: each part that
// came back folded is combined into the running sum unread, and every
// other byte — headers, scalars, parts nothing folded — is summed here.
func (k *check) matches(c *Chunk) bool {
	payload, ext := c.Unverified, c.extents()
	var sum uint32
	at := 0
	for i, p := range k.parts {
		if p.known {
			e := ext[i]
			sum = crc32.Update(sum, crc32.IEEETable, payload[at:e.Off])
			sum = crc32Combine(sum, p.sum, int64(e.Len))
			at = e.Off + e.Len
		}
	}
	return crc32.Update(sum, crc32.IEEETable, payload[at:]) == c.Sum
}

// partSum is a folded part of a chunk's check on its way back to the rank
// holding the chunk.
type partSum struct {
	Chunk, Part int
	Sum         uint32
}

// verdict is one rank's outcome of a verify step.
type verdict struct {
	Bad    int  // chunks held here that failed their check
	Failed bool // a Map, Combine or Reduce failed here
}

// verify is the verify step, issued by every rank alike: an Alltoall sends
// the sum of every view folded whole through ctxs, this rank's contexts,
// back to the rank holding its chunk, each rank checks the chunks it holds,
// and an Allgather shares the verdicts. It returns the checks that failed
// here, whether some rank's failed (every rank then redoes the pass), and
// whether some rank's Map, Combine or Reduce failed (failedHere here).
func (cs *checks) verify(comm *mpi.Comm, ctxs []*Context, failedHere bool) (bad []*Chunk, redo, failed bool, err error) {
	send := make([][]partSum, comm.Size())
	for _, c := range ctxs {
		for _, v := range c.folded {
			if v.folded == len(v.wire) {
				send[v.origin] = append(send[v.origin], partSum{Chunk: v.chunk, Part: v.part, Sum: v.sum})
			}
		}
	}
	recv, err := mpi.Alltoall(comm, send)
	if err != nil {
		return nil, false, false, fmt.Errorf("staging: verify step: %w", err)
	}
	for _, row := range recv {
		for _, ps := range row {
			if ps.Chunk < 0 || ps.Chunk >= len(cs.list) {
				continue
			}
			k := cs.list[ps.Chunk].check
			if ps.Part < 0 || ps.Part >= len(k.parts) {
				continue
			}
			p := &k.parts[ps.Part]
			// Two operators that read the same array must have read the
			// same bytes.
			k.bad = k.bad || p.known && p.sum != ps.Sum
			p.sum, p.known = ps.Sum, true
		}
	}
	for _, c := range cs.list {
		if c.check.bad || !c.check.matches(c) {
			bad = append(bad, c)
		}
	}
	all, err := mpi.Allgather(comm, []verdict{{Bad: len(bad), Failed: failedHere}})
	if err != nil {
		return nil, false, false, fmt.Errorf("staging: verify step: %w", err)
	}
	for _, row := range all {
		for _, v := range row {
			redo = redo || v.Bad > 0
			failed = failed || v.Failed
		}
	}
	return bad, redo, failed, nil
}
