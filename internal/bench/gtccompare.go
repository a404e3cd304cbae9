package bench

import (
	"sync"
	"time"

	"predata/internal/adios"
	"predata/internal/apps/gtc"
	"predata/internal/bp"
	"predata/internal/mpi"
	"predata/internal/ops"
	"predata/internal/pfs"
	"predata/internal/predata"
	"predata/internal/staging"
)

// proxy is what the two application proxies share: a simulation step and
// an output dump through an ADIOS writer.
type proxy interface {
	Step(*mpi.Comm) error
	WriteOutput(adios.Writer) (adios.StepResult, error)
}

// inComputeVisible runs a proxy under the In-Compute-Node configuration —
// every rank writes the shared BP file synchronously through the modeled
// parallel file system — and returns the mean modeled visible I/O per dump.
func inComputeVisible(fs *pfs.FileSystem, file string, ranks, steps int, newSim func(rank int) (proxy, error)) (time.Duration, error) {
	bw, err := bp.CreateWriter(fs, file, 8)
	if err != nil {
		return 0, err
	}
	var (
		mu    sync.Mutex
		total time.Duration
	)
	err = mpi.Run(ranks, func(comm *mpi.Comm) error {
		sim, err := newSim(comm.Rank())
		if err != nil {
			return err
		}
		w, err := adios.NewMPIIOWriter(bw, comm.Rank(), comm.Rank() == 0)
		if err != nil {
			return err
		}
		for s := 0; s < steps; s++ {
			if err := sim.Step(comm); err != nil {
				return err
			}
			sr, err := sim.WriteOutput(w)
			if err != nil {
				return err
			}
			mu.Lock()
			total += sr.Modeled
			mu.Unlock()
		}
		if err := comm.Barrier(); err != nil {
			return err
		}
		return w.Close()
	})
	return total / time.Duration(ranks*steps), err
}

// gtcConfigComparison runs the GTC proxy under the paper's two
// configurations with the real implementation and returns the mean
// visible I/O blocking per dump under each:
//
//   - In-Compute-Node: synchronous shared-BP-file write through the
//     modeled parallel file system (Modeled duration);
//   - Staging: PreDatA staging writer (real pack + dispatch time), with
//     the histogram operator consuming the dumps in the staging area.
func gtcConfigComparison(ranks, steps, perRank int) (inCompute, stagingVisible time.Duration, err error) {
	fs, err := pfs.New(pfs.Config{
		NumOSTs: 16, OSTBandwidth: 500e6, StripeSize: 1 << 20,
		OpLatency: 5 * time.Millisecond, Seed: 1,
	})
	if err != nil {
		return 0, 0, err
	}
	newSim := func(rank int) (*gtc.Simulation, error) {
		return gtc.New(gtc.Config{
			Rank: rank, NumRanks: ranks,
			ParticlesPerRank: perRank, MigrationFraction: 0.1, Seed: 11,
		})
	}
	inCompute, err = inComputeVisible(fs, "gtc_ic.bp", ranks, steps,
		func(rank int) (proxy, error) { return newSim(rank) })
	if err != nil {
		return 0, 0, err
	}

	// --- Staging configuration: same proxy, staging writer, histogram
	// operator consuming every dump. ---
	var (
		mu      sync.Mutex
		stTotal time.Duration
		stN     int
	)
	cfg := predata.PipelineConfig{
		NumCompute: ranks,
		NumStaging: max(1, ranks/4),
		Dumps:      steps,
		Engine:     staging.Config{Workers: 2},
	}
	operators := &checkedOps{build: func(int) ([]staging.Operator, error) {
		return one(ops.NewHistogramOperator(ops.HistogramConfig{
			Var: "electrons", Columns: []int{gtc.AttrZeta}, Bins: 32,
			Ranges: map[int][2]float64{gtc.AttrZeta: {0, 7}},
		}))
	}}
	_, err = predata.RunPipeline(cfg,
		func(comm *mpi.Comm, client *predata.Client) error {
			sim, err := newSim(comm.Rank())
			if err != nil {
				return err
			}
			w, err := adios.NewStagingWriter(client, gtc.Schema())
			if err != nil {
				return err
			}
			for s := 0; s < steps; s++ {
				if err := sim.Step(comm); err != nil {
					return err
				}
				if err := w.BeginStep(int64(s)); err != nil {
					return err
				}
				if err := w.Write("electrons", sim.Particles(gtc.Electrons)); err != nil {
					return err
				}
				if err := w.Write("ions", sim.Particles(gtc.Ions)); err != nil {
					return err
				}
				sr, err := w.EndStep()
				if err != nil {
					return err
				}
				mu.Lock()
				stTotal += sr.Real
				stN++
				mu.Unlock()
			}
			return nil
		},
		operators.factory)
	if err = operators.after(err); err != nil {
		return 0, 0, err
	}
	return inCompute, stTotal / time.Duration(stN), nil
}
