package mpi

import (
	"fmt"
	"sync/atomic"
	"testing"
)

// TestSplitUnderCollectivePressure drives Split while collectives on
// both the parent and the derived communicators are in flight on every
// rank — the elastic-resize access pattern, where an epoch boundary
// splits a serving communicator out of the staging-wide one while
// telemetry exchanges keep running on the parent. Run under -race this
// checks that communicator derivation and mailbox matching never share
// unsynchronized state across ranks.
func TestSplitUnderCollectivePressure(t *testing.T) {
	const (
		n      = 8
		epochs = 12
	)
	err := Run(n, func(world *Comm) error {
		for e := 0; e < epochs; e++ {
			// Shift the active prefix every epoch so membership keeps
			// changing: epoch e keeps n - (e % (n-1)) ranks active.
			active := n - e%(n-1)
			color := 1
			if world.Rank() >= active {
				color = -1
			}
			sub, err := world.Split(color, world.Rank())
			if err != nil {
				return err
			}
			// Parent-comm traffic interleaves with child-comm traffic:
			// everyone exchanges on the world while the actives also
			// exchange on the freshly derived communicator.
			ids, err := Allgather(world, []int{epochID(sub)})
			if err != nil {
				return err
			}
			for r, row := range ids {
				if r < active && row[0] == 0 {
					return fmt.Errorf("epoch %d: active rank %d reported no sub-communicator", e, r)
				}
				if r >= active && row[0] != 0 {
					return fmt.Errorf("epoch %d: retired rank %d reported sub-communicator %d", e, r, row[0])
				}
			}
			if sub == nil {
				continue
			}
			if sub.Size() != active {
				return fmt.Errorf("epoch %d: sub size %d, want %d", e, sub.Size(), active)
			}
			sum, err := Allreduce(sub, []int{sub.Rank()}, func(a, b int) int { return a + b })
			if err != nil {
				return err
			}
			if want := active * (active - 1) / 2; sum[0] != want {
				return fmt.Errorf("epoch %d: rank sum %d, want %d", e, sum[0], want)
			}
			if err := sub.Barrier(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func epochID(c *Comm) int {
	if c == nil {
		return 0
	}
	return c.ID()
}

// TestSplitColorAssignmentOnRetirement retires one rank per epoch with a
// negative color mid-run and checks the surviving communicator's shape on
// every epoch: ids agree across members, ranks are dense and ordered by
// key, sizes shrink by exactly one, and retired ranks hold nil.
func TestSplitColorAssignmentOnRetirement(t *testing.T) {
	const n = 6
	var retiredOps atomic.Int64
	err := Run(n, func(world *Comm) error {
		cur := world
		for e := 0; e < n-1; e++ {
			retiree := n - 1 - e // world rank leaving this epoch
			if cur == nil {
				// Already retired: keep counting so the test can assert
				// retired ranks stop doing collective work entirely.
				retiredOps.Add(1)
				return nil
			}
			color := 0
			if world.Rank() == retiree {
				color = -1
			}
			// Reverse the key order so the derived communicator's rank
			// assignment is exercised, not just inherited.
			sub, err := cur.Split(color, n-world.Rank())
			if err != nil {
				return err
			}
			if world.Rank() == retiree {
				if sub != nil {
					return fmt.Errorf("epoch %d: retiring rank %d got a communicator", e, world.Rank())
				}
				return nil
			}
			if sub == nil {
				return fmt.Errorf("epoch %d: surviving rank %d got nil", e, world.Rank())
			}
			if want := n - 1 - e; sub.Size() != want {
				return fmt.Errorf("epoch %d: size %d, want %d", e, sub.Size(), want)
			}
			// Keys were n-worldRank, so communicator rank 0 must be the
			// highest surviving world rank.
			if wantRank := retiree - 1 - world.Rank(); sub.Rank() != wantRank {
				return fmt.Errorf("epoch %d: world rank %d got comm rank %d, want %d",
					e, world.Rank(), sub.Rank(), wantRank)
			}
			views, err := Allgather(sub, []int{sub.ID(), world.Rank()})
			if err != nil {
				return err
			}
			for r, v := range views {
				if v[0] != sub.ID() {
					return fmt.Errorf("epoch %d: rank %d sees id %d, rank %d sees %d",
						e, sub.Rank(), sub.ID(), r, v[0])
				}
				if want := retiree - 1 - r; v[1] != want {
					return fmt.Errorf("epoch %d: comm rank %d is world rank %d, want %d", e, r, v[1], want)
				}
			}
			cur = sub
		}
		if cur.Size() != 1 || cur.Rank() != 0 {
			return fmt.Errorf("final communicator size %d rank %d, want singleton", cur.Size(), cur.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := retiredOps.Load(); got != 0 {
		t.Fatalf("retired ranks performed %d collective operations after leaving", got)
	}
}
