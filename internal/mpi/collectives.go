package mpi

import (
	"fmt"

	"predata/internal/trace"
)

// This file implements the collective operations as generic functions over
// element slices. Collectives must be called by every rank of the
// communicator in the same order; each call consumes one internal tag from
// the communicator's collective sequence.
//
// Tree-based collectives use binomial trees rooted at the operation root,
// matching the communication structure (and thus the log(n) scaling shape)
// of real MPI implementations.

// Bcast distributes root's data slice to all ranks and returns it. Ranks
// other than root may pass nil.
func Bcast[T any](c *Comm, data []T, root int) ([]T, error) {
	if err := checkRoot(c, root); err != nil {
		return nil, err
	}
	tag := c.nextCollTag(trace.CollBcast)
	n := c.Size()
	// Rotate so the root becomes virtual rank 0 in a binomial tree.
	vrank := (c.rank - root + n) % n
	if vrank != 0 {
		// Receive from the binomial-tree parent.
		src := (parentOf(vrank) + root) % n
		msg, err := c.recv(src, tag)
		if err != nil {
			return nil, err
		}
		var ok bool
		data, ok = msg.Data.([]T)
		if !ok && msg.Data != nil {
			return nil, fmt.Errorf("mpi: Bcast type mismatch: got %T", msg.Data)
		}
	}
	// Forward to children.
	for _, child := range childrenOf(vrank, n) {
		dst := (child + root) % n
		if err := c.send(dst, tag, data); err != nil {
			return nil, err
		}
	}
	return data, nil
}

// Reduce combines the element slices of all ranks with op, elementwise,
// delivering the result to root. All ranks must pass slices of equal
// length. Non-root ranks receive nil.
func Reduce[T any](c *Comm, in []T, op func(a, b T) T, root int) ([]T, error) {
	if err := checkRoot(c, root); err != nil {
		return nil, err
	}
	tag := c.nextCollTag(trace.CollReduce)
	n := c.Size()
	vrank := (c.rank - root + n) % n
	acc := append([]T(nil), in...)
	// Receive from children (deepest first is not required; any order works
	// for associative+commutative ops, which this API requires).
	for _, child := range childrenOf(vrank, n) {
		src := (child + root) % n
		msg, err := c.recv(src, tag)
		if err != nil {
			return nil, err
		}
		contrib, ok := msg.Data.([]T)
		if !ok {
			return nil, fmt.Errorf("mpi: Reduce type mismatch: got %T", msg.Data)
		}
		if len(contrib) != len(acc) {
			return nil, fmt.Errorf("mpi: Reduce length mismatch: %d vs %d", len(contrib), len(acc))
		}
		for i := range acc {
			acc[i] = op(acc[i], contrib[i])
		}
	}
	if vrank != 0 {
		dst := (parentOf(vrank) + root) % n
		if err := c.send(dst, tag, acc); err != nil {
			return nil, err
		}
		return nil, nil
	}
	return acc, nil
}

// Allreduce combines the element slices of all ranks with op, elementwise,
// and returns the result on every rank.
func Allreduce[T any](c *Comm, in []T, op func(a, b T) T) ([]T, error) {
	res, err := Reduce(c, in, op, 0)
	if err != nil {
		return nil, err
	}
	return Bcast(c, res, 0)
}

// Gather collects each rank's slice at root. On root the result has one
// entry per rank, indexed by rank; other ranks receive nil.
func Gather[T any](c *Comm, in []T, root int) ([][]T, error) {
	if err := checkRoot(c, root); err != nil {
		return nil, err
	}
	tag := c.nextCollTag(trace.CollGather)
	if c.rank != root {
		return nil, c.send(root, tag, in)
	}
	out := make([][]T, c.Size())
	out[root] = in
	for i := 0; i < c.Size()-1; i++ {
		msg, err := c.recv(AnySource, tag)
		if err != nil {
			return nil, err
		}
		contrib, ok := msg.Data.([]T)
		if !ok && msg.Data != nil {
			return nil, fmt.Errorf("mpi: Gather type mismatch: got %T", msg.Data)
		}
		out[msg.Src] = contrib
	}
	return out, nil
}

// Allgather collects each rank's slice on every rank, indexed by rank.
func Allgather[T any](c *Comm, in []T) ([][]T, error) {
	rows, err := Gather(c, in, 0)
	if err != nil {
		return nil, err
	}
	frames, err := Bcast(c, flattenGather(rows), 0)
	if err != nil {
		return nil, err
	}
	if len(frames) != 1 {
		return nil, fmt.Errorf("mpi: Allgather internal framing error (%d frames)", len(frames))
	}
	f := frames[0]
	out := make([][]T, len(f.Lens))
	off := 0
	for i, l := range f.Lens {
		out[i] = f.Data[off : off+l : off+l]
		off += l
	}
	return out, nil
}

// flatGather is a flattened [][]T for transport through Bcast, which
// operates on a single slice.
type flatGather[T any] struct {
	Lens []int
	Data []T
}

func flattenGather[T any](rows [][]T) []flatGather[T] {
	if rows == nil {
		return nil
	}
	f := flatGather[T]{Lens: make([]int, len(rows))}
	for i, r := range rows {
		f.Lens[i] = len(r)
		f.Data = append(f.Data, r...)
	}
	return []flatGather[T]{f}
}

// Alltoall performs a personalized all-to-all exchange: rank r sends
// send[i] to rank i and receives recv[i] from rank i. Slice lengths may
// differ per destination (MPI_Alltoallv semantics).
func Alltoall[T any](c *Comm, send [][]T) ([][]T, error) {
	if len(send) != c.Size() {
		return nil, fmt.Errorf("mpi: Alltoall needs %d send buffers, got %d", c.Size(), len(send))
	}
	tag := c.nextCollTag(trace.CollAlltoall)
	n := c.Size()
	recv := make([][]T, n)
	recv[c.rank] = send[c.rank]
	// Pairwise exchange pattern: in round k exchange with rank^?; using a
	// simple shifted schedule that avoids hot spots.
	for k := 1; k < n; k++ {
		dst := (c.rank + k) % n
		src := (c.rank - k + n) % n
		if err := c.send(dst, tag, send[dst]); err != nil {
			return nil, err
		}
		msg, err := c.recv(src, tag)
		if err != nil {
			return nil, err
		}
		part, ok := msg.Data.([]T)
		if !ok && msg.Data != nil {
			return nil, fmt.Errorf("mpi: Alltoall type mismatch: got %T", msg.Data)
		}
		recv[src] = part
	}
	return recv, nil
}

// Scan computes the inclusive prefix reduction: rank r receives
// op(in_0, ..., in_r), elementwise.
func Scan[T any](c *Comm, in []T, op func(a, b T) T) ([]T, error) {
	tag := c.nextCollTag(trace.CollScan)
	acc := append([]T(nil), in...)
	if c.rank > 0 {
		msg, err := c.recv(c.rank-1, tag)
		if err != nil {
			return nil, err
		}
		prev, ok := msg.Data.([]T)
		if !ok {
			return nil, fmt.Errorf("mpi: Scan type mismatch: got %T", msg.Data)
		}
		if len(prev) != len(acc) {
			return nil, fmt.Errorf("mpi: Scan length mismatch: %d vs %d", len(prev), len(acc))
		}
		for i := range acc {
			acc[i] = op(prev[i], acc[i])
		}
	}
	if c.rank < c.Size()-1 {
		if err := c.send(c.rank+1, tag, acc); err != nil {
			return nil, err
		}
	}
	return acc, nil
}

func checkRoot(c *Comm, root int) error {
	if root < 0 || root >= c.Size() {
		return fmt.Errorf("mpi: root %d outside communicator of size %d", root, c.Size())
	}
	return nil
}

// parentOf returns the binomial-tree parent of virtual rank v (> 0):
// clear the lowest set bit.
func parentOf(v int) int { return v & (v - 1) }

// childrenOf returns the binomial-tree children of virtual rank v in a
// tree over n virtual ranks: v | (1<<k) for k above v's lowest set bit.
func childrenOf(v, n int) []int {
	var children []int
	for bit := 1; ; bit <<= 1 {
		if v&bit != 0 {
			break
		}
		child := v | bit
		if child >= n {
			break
		}
		if child == v {
			continue
		}
		children = append(children, child)
	}
	return children
}
