package a

import "predata/internal/mpi"

func sum(x, y int) int { return x + y }

func badRootOnlyBarrier(c *mpi.Comm) error {
	if c.Rank() == 0 {
		return c.Barrier() // want `collective Comm\.Barrier inside rank-conditional branch`
	}
	return nil
}

func badEarlyReturn(c *mpi.Comm, data []int) ([]int, error) {
	rank := c.Rank()
	if rank%2 == 0 {
		return data, nil // want `rank-conditional return skips a later collective`
	}
	return mpi.Allreduce(c, data, sum)
}

func badDerivedTaint(c *mpi.Comm, data []int) ([]int, error) {
	me := c.Rank()
	isLeader := me == 0
	if isLeader {
		out, err := mpi.Gather(c, data, 0) // want `collective mpi\.Gather inside rank-conditional branch`
		if err != nil {
			return nil, err
		}
		return out[0], nil
	}
	return data, nil
}

func goodUniformSequence(c *mpi.Comm, data []int) ([]int, error) {
	if err := c.Barrier(); err != nil {
		return nil, err
	}
	return mpi.Allreduce(c, data, sum)
}

func goodRankArgs(c *mpi.Comm) (*mpi.Comm, error) {
	// Rank-dependent arguments are the normal pattern: every rank calls.
	return c.Split(c.Rank()%2, c.Rank())
}

func goodRankLocalWork(c *mpi.Comm, vals []float64) ([][]float64, error) {
	send := make([][]float64, c.Size())
	for i := range send {
		send[i] = []float64{float64(c.Rank()), float64(i)}
	}
	return mpi.Alltoall(c, send)
}

func goodClosureEarlyReturn(c *mpi.Comm, data []int) ([]int, error) {
	// The helper's early return exits the closure, not the rank's main
	// flow: every rank still reaches the collective below.
	rank := c.Rank()
	note := func() {
		if rank == 0 {
			return
		}
		_ = rank
	}
	note()
	return mpi.Allreduce(c, data, sum)
}

func badClosureSkipsOwnCollective(c *mpi.Comm, data []int) error {
	// A rank-conditional return inside the closure that skips a
	// collective in the SAME closure is still the deadlock shape.
	body := func() error {
		if c.Rank()%2 == 0 {
			return nil // want `rank-conditional return skips a later collective`
		}
		return c.Barrier()
	}
	return body()
}

func badTaglessSwitchCase(c *mpi.Comm) error {
	switch {
	case c.Rank() == 0:
		return c.Barrier() // want `collective Comm\.Barrier inside rank-conditional branch`
	}
	return nil
}

func badTypeSwitch(c *mpi.Comm, data []int) ([]int, error) {
	v := any(c.Rank())
	switch v.(type) {
	case int:
		return mpi.Allreduce(c, data, sum) // want `collective mpi\.Allreduce inside rank-conditional branch`
	}
	return data, nil
}

func badGoto(c *mpi.Comm) error {
	if c.Rank() == 0 {
		goto done // want `rank-conditional goto skips a later collective`
	}
	if err := c.Barrier(); err != nil {
		return err
	}
done:
	return nil
}

func badContinue(c *mpi.Comm, rounds []int) error {
	for range rounds {
		if c.Rank() == 0 {
			continue // want `rank-conditional continue skips a later collective`
		}
		if err := c.Barrier(); err != nil {
			return err
		}
	}
	return nil
}

func badLabelledContinue(c *mpi.Comm, rounds [][]int) error {
outer:
	for _, round := range rounds {
		for range round {
			if c.Rank() == 0 {
				continue outer // want `rank-conditional continue skips a later collective`
			}
		}
		if err := c.Barrier(); err != nil {
			return err
		}
	}
	return nil
}

func goodErrorAbortCase(c *mpi.Comm, size int) error {
	// A rank that fails the check leaves the run with an error; the ranks
	// that stay all reach the barrier.
	switch {
	case c.Rank() >= size:
		return errRankOutside{}
	}
	return c.Barrier()
}

func goodPanicUnderRankTest(c *mpi.Comm) error {
	if c.Rank() < 0 {
		panic("negative rank")
	}
	return c.Barrier()
}

func goodRankContinueBeforeExchange(c *mpi.Comm, rows [][]float64) ([][]float64, error) {
	// The shape of gtc.Step's migration: the rank-conditional continue
	// ends one iteration of the loop that routes rows, and every rank
	// leaves that loop for the all-to-all.
	send := make([][]float64, c.Size())
	var keep []float64
	for i, row := range rows {
		if dst := i % c.Size(); dst != c.Rank() {
			send[dst] = append(send[dst], row...)
			continue
		}
		keep = append(keep, row...)
	}
	recv, err := mpi.Alltoall(c, send)
	if err != nil {
		return nil, err
	}
	return append(recv, keep), nil
}

type errRankOutside struct{}

func (errRankOutside) Error() string { return "rank outside the configured size" }
