package bench

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"predata/internal/adios"
	"predata/internal/apps/gtc"
	"predata/internal/apps/pixie3d"
	"predata/internal/bp"
	"predata/internal/ffs"
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

// placement is one proxy application run under the paper's two
// configurations. Both run the same per-rank code — Step, then
// WriteOutput — and differ only in the adios.Writer it is handed.
type placement struct {
	fs     *pfs.FileSystem
	file   string // the In-Compute-Node side's shared BP file
	ranks  int
	dumps  int
	schema *ffs.Schema
	newSim func(rank int) (proxy, error)
	// ops builds the operators the staging side runs on every dump.
	ops func(dump int) ([]staging.Operator, error)
}

// run returns the mean visible I/O per dump under each configuration:
//
//   - In-Compute-Node: adios.MPIIOWriter, every rank writing p.file
//     synchronously through the modeled parallel file system;
//   - Staging: adios.StagingWriter inside predata.RunPipeline, the
//     operators consuming every dump in the staging area.
//
// A step's Modeled cost is what the simulation sees: the modeled write
// for MPI-IO, the real pack and fetch-request dispatch for staging.
func (p placement) run() (inCompute, staged time.Duration, err error) {
	var mu sync.Mutex
	body := func(comm *mpi.Comm, w adios.Writer, visible *time.Duration) error {
		sim, err := p.newSim(comm.Rank())
		if err != nil {
			return err
		}
		for d := 0; d < p.dumps; d++ {
			if err := sim.Step(comm); err != nil {
				return err
			}
			sr, err := sim.WriteOutput(w)
			if err != nil {
				return err
			}
			mu.Lock()
			*visible += sr.Modeled
			mu.Unlock()
		}
		return nil
	}

	bw, err := bp.CreateWriter(p.fs, p.file, 8)
	if err != nil {
		return 0, 0, err
	}
	err = mpi.Run(p.ranks, func(comm *mpi.Comm) error {
		w, err := adios.NewMPIIOWriter(bw, comm.Rank(), comm.Rank() == 0)
		if err != nil {
			return err
		}
		if err := body(comm, w, &inCompute); err != nil {
			return err
		}
		if err := comm.Barrier(); err != nil {
			return err
		}
		return w.Close()
	})
	if err != nil {
		return 0, 0, err
	}

	operators := &checkedOps{build: p.ops}
	cfg := predata.PipelineConfig{
		NumCompute: p.ranks,
		NumStaging: max(1, p.ranks/4),
		Dumps:      p.dumps,
		Engine:     staging.Config{Workers: 2},
	}
	_, err = predata.RunPipeline(cfg,
		func(comm *mpi.Comm, client *predata.Client) error {
			w, err := adios.NewStagingWriter(client, p.schema)
			if err != nil {
				return err
			}
			return body(comm, w, &staged)
		},
		operators.factory)
	if err = operators.after(err); err != nil {
		return 0, 0, err
	}
	n := time.Duration(p.ranks * p.dumps)
	return inCompute / n, staged / n, nil
}

// modeledFS is the functional runs' parallel file system: sixteen OSTs
// at 500 MB/s with the given per-operation latency.
func modeledFS(opLatency time.Duration) (*pfs.FileSystem, error) {
	return pfs.New(pfs.Config{
		NumOSTs: 16, OSTBandwidth: 500e6, StripeSize: 1 << 20,
		OpLatency: opLatency, Seed: 1,
	})
}

// gtcPlacements runs the GTC proxy under both configurations, the
// histogram operator consuming every staged dump.
func gtcPlacements(ranks, dumps, perRank int) (inCompute, staged time.Duration, err error) {
	fs, err := modeledFS(5 * time.Millisecond)
	if err != nil {
		return 0, 0, err
	}
	return placement{
		fs: fs, file: "gtc_ic.bp", ranks: ranks, dumps: dumps, schema: gtc.Schema(),
		newSim: func(rank int) (proxy, error) {
			sim, err := gtc.New(gtc.Config{
				Rank: rank, NumRanks: ranks,
				ParticlesPerRank: perRank, MigrationFraction: 0.1, Seed: 11,
			})
			return sim, err
		},
		ops: func(int) ([]staging.Operator, error) {
			return one(ops.NewHistogramOperator(ops.HistogramConfig{
				Var: "electrons", Columns: []int{gtc.AttrZeta}, Bins: 32,
				Ranges: map[int][2]float64{gtc.AttrZeta: {0, 7}},
			}))
		},
	}.run()
}

// pixieRun is what one Pixie3D proxy run under both configurations
// measured.
type pixieRun struct {
	inCompute, staged time.Duration // mean visible I/O per dump
	// unmergedRead and mergedRead are the modeled reads of rho at the
	// last dump from the In-Compute-Node file and from the file the reorg
	// operator merged; extents counts the unmerged file's pieces of it.
	unmergedRead, mergedRead time.Duration
	extents                  int
}

// pixiePlacements runs the Pixie3D proxy under both configurations — the
// In-Compute-Node side writes the unmerged shared file, the staging side's
// reorg operator the merged one — and reads rho back from each file at
// the same timestep, requiring both to hold the same values.
func pixiePlacements(grid [3]int, local, dumps int) (pixieRun, error) {
	var r pixieRun
	fs, err := modeledFS(10 * time.Millisecond)
	if err != nil {
		return r, err
	}
	merged, err := bp.CreateWriter(fs, "pixie_st.bp", 8)
	if err != nil {
		return r, err
	}
	r.inCompute, r.staged, err = placement{
		fs: fs, file: "pixie_ic.bp", ranks: grid[0] * grid[1] * grid[2], dumps: dumps,
		schema: pixie3d.Schema(),
		newSim: func(rank int) (proxy, error) {
			sim, err := pixie3d.New(pixie3d.Config{
				Rank: rank, ProcGrid: grid, LocalSize: local, InnerIters: 1, Seed: 31,
			})
			return sim, err
		},
		ops: func(int) ([]staging.Operator, error) {
			return one(ops.NewReorgOperator(ops.ReorgConfig{Vars: pixie3d.VarNames, Output: merged}))
		},
	}.run()
	if err != nil {
		return r, err
	}
	if _, err := merged.Close(); err != nil {
		return r, err
	}

	step := int64(dumps - 1)
	read := func(file string) (data []float64, d time.Duration, extents int, err error) {
		rd, err := bp.OpenReader(fs, file)
		if err != nil {
			return nil, 0, 0, err
		}
		if data, _, d, err = rd.ReadVar("rho", step); err != nil {
			return nil, 0, 0, err
		}
		for _, vi := range rd.Vars() {
			if vi.Name == "rho" && vi.Timestep == step {
				extents = vi.Chunks
			}
		}
		return data, d, extents, nil
	}
	dataU, du, extents, err := read("pixie_ic.bp")
	if err != nil {
		return r, err
	}
	dataM, dm, _, err := read("pixie_st.bp")
	if err != nil {
		return r, err
	}
	if !slices.Equal(dataU, dataM) {
		return r, fmt.Errorf("bench: merged rho differs from unmerged rho at timestep %d", step)
	}
	r.unmergedRead, r.mergedRead, r.extents = du, dm, extents
	return r, nil
}
