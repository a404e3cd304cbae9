package bench

import (
	"sync"
	"time"

	"predata/internal/apps/pixie3d"
	"predata/internal/bp"
	"predata/internal/ffs"
	"predata/internal/mpi"
	"predata/internal/ops"
	"predata/internal/pfs"
	"predata/internal/predata"
	"predata/internal/staging"
)

// pixieConfigComparison runs the Pixie3D proxy under both configurations
// with the real implementation: the In-Compute-Node path writes the
// unmerged shared BP file synchronously; the Staging path ships the
// fields through PreDatA where the reorg operator produces the merged
// file. It returns the mean visible I/O per dump under each
// configuration and the merged/unmerged read gap.
func pixieConfigComparison(grid [3]int, local, steps int) (icVisible, stVisible time.Duration, readSpeedup float64, err error) {
	ranks := grid[0] * grid[1] * grid[2]
	fs, err := pfs.New(pfs.Config{
		NumOSTs: 16, OSTBandwidth: 500e6, StripeSize: 1 << 20,
		OpLatency: 10 * time.Millisecond, Seed: 1,
	})
	if err != nil {
		return 0, 0, 0, err
	}

	newSim := func(rank int) (*pixie3d.Simulation, error) {
		return pixie3d.New(pixie3d.Config{
			Rank: rank, ProcGrid: grid, LocalSize: local, InnerIters: 1, Seed: 31,
		})
	}
	// In-Compute-Node: synchronous unmerged shared file.
	icVisible, err = inComputeVisible(fs, "pixie_ic.bp", ranks, steps,
		func(rank int) (proxy, error) { return newSim(rank) })
	if err != nil {
		return 0, 0, 0, err
	}

	// Staging: reorg into the merged file.
	merged, err := bp.CreateWriter(fs, "pixie_st.bp", 8)
	if err != nil {
		return 0, 0, 0, err
	}
	var (
		mu    sync.Mutex
		stSum time.Duration
		stN   int
	)
	operators := &checkedOps{build: func(int) ([]staging.Operator, error) {
		return one(ops.NewReorgOperator(ops.ReorgConfig{Vars: pixie3d.VarNames, Output: merged}))
	}}
	cfg := predata.PipelineConfig{NumCompute: ranks, NumStaging: max(1, ranks/4), Dumps: steps}
	_, err = predata.RunPipeline(cfg,
		func(comm *mpi.Comm, client *predata.Client) error {
			sim, err := newSim(comm.Rank())
			if err != nil {
				return err
			}
			for s := 0; s < steps; s++ {
				if err := sim.Step(comm); err != nil {
					return err
				}
				rec := ffs.Record{}
				for _, name := range pixie3d.VarNames {
					arr, err := sim.Field(name)
					if err != nil {
						return err
					}
					rec[name] = arr
				}
				visible, err := client.Write(pixie3d.Schema(), rec, int64(s))
				if err != nil {
					return err
				}
				mu.Lock()
				stSum += visible
				stN++
				mu.Unlock()
			}
			return nil
		},
		operators.factory)
	if err = operators.after(err); err != nil {
		return 0, 0, 0, err
	}
	if _, err := merged.Close(); err != nil {
		return 0, 0, 0, err
	}

	// Read gap, one field at the last step from each layout.
	step := int64(steps - 1)
	ru, err := bp.OpenReader(fs, "pixie_ic.bp")
	if err != nil {
		return 0, 0, 0, err
	}
	// The MPI-IO path stamps simulation step numbers starting at 1.
	_, _, du, err := ru.ReadVar("rho", step+1)
	if err != nil {
		return 0, 0, 0, err
	}
	rm, err := bp.OpenReader(fs, "pixie_st.bp")
	if err != nil {
		return 0, 0, 0, err
	}
	_, _, dm, err := rm.ReadVar("rho", step)
	if err != nil {
		return 0, 0, 0, err
	}
	return icVisible, stSum / time.Duration(stN),
		float64(du) / float64(dm), nil
}

// fig10Functional prints the real-implementation Pixie3D comparison.
func fig10Functional(rp *Report) error {
	rp.header("Fig. 10 — functional mini-run (Pixie3D proxy, 2x2x2 grid, both configurations)")
	ic, st, speedup, err := pixieConfigComparison([3]int{2, 2, 2}, 8, 2)
	if err != nil {
		return err
	}
	rp.printf("In-Compute-Node: mean visible I/O %v/dump (synchronous unmerged write)\n",
		ic.Round(time.Microsecond))
	rp.printf("Staging:         mean visible I/O %v/dump (pack only; reorg hidden in staging)\n",
		st.Round(time.Microsecond))
	rp.printf("merged-layout read gain: %.1fx\n", speedup)
	return nil
}
