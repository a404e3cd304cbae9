// Pixie3D layout reorganization: the paper's second driver application.
//
// A Pixie3D proxy (eight 3D fields, collective-heavy inner loop) runs on
// a 2x2x2 process grid. Its output is written two ways:
//
//   - In-Compute-Node: every rank writes its local chunks synchronously
//     into a shared BP file (the unmerged, scattered layout);
//   - Staging: the chunks stream through PreDatA, where the reorg
//     operator merges each global array into one contiguous extent.
//
// The example then reads one field back from both files and reports the
// modeled read-time gap — the Fig. 11 effect — plus the diagnostics
// (energy, flux, divergence, max velocity) of the paper's Fig. 2.
//
// Run with: go run ./examples/pixie3d_reorg
package main

import (
	"fmt"
	"log"
	"time"

	"predata/internal/adios"
	"predata/internal/apps/pixie3d"
	"predata/internal/bp"
	"predata/internal/mpi"
	"predata/internal/ops"
	"predata/internal/pfs"
	"predata/internal/predata"
	"predata/internal/staging"
)

const (
	localSize = 12
	ranks     = 8 // 2x2x2 grid
)

func main() {
	fs, err := pfs.New(pfs.Config{
		NumOSTs: 16, OSTBandwidth: 500e6, StripeSize: 1 << 20,
		OpLatency: 10 * time.Millisecond, Seed: 1,
	})
	if err != nil {
		log.Fatal(err)
	}

	// One per-rank body runs under both configurations; only the
	// adios.Writer it is handed differs. Rank 0 keeps its visible write
	// time and its diagnostics.
	var (
		visible time.Duration
		diag    pixie3d.Diagnostics
	)
	body := func(comm *mpi.Comm, w adios.Writer) error {
		sim, err := pixie3d.New(pixie3d.Config{
			Rank: comm.Rank(), ProcGrid: [3]int{2, 2, 2},
			LocalSize: localSize, InnerIters: 2, Seed: 3,
		})
		if err != nil {
			return err
		}
		if err := sim.Step(comm); err != nil {
			return err
		}
		sr, err := sim.WriteOutput(w)
		if err != nil {
			return err
		}
		if comm.Rank() == 0 {
			visible, diag = sr.Modeled, sim.ComputeDiagnostics()
		}
		return nil
	}

	// --- In-Compute-Node configuration: synchronous unmerged write. ---
	unmerged, err := bp.CreateWriter(fs, "pixie_unmerged.bp", 8)
	if err != nil {
		log.Fatal(err)
	}
	err = mpi.Run(ranks, func(comm *mpi.Comm) error {
		w, err := adios.NewMPIIOWriter(unmerged, comm.Rank(), comm.Rank() == 0)
		if err != nil {
			return err
		}
		if err := body(comm, w); err != nil {
			return err
		}
		if err := comm.Barrier(); err != nil {
			return err
		}
		return w.Close()
	})
	if err != nil {
		log.Fatal(err)
	}
	icVisible := visible
	fmt.Printf("diagnostics (rank 0): energy=%.3f flux=%.3f divergence=%.3f maxVel=%.3f\n",
		diag.Energy, diag.Flux, diag.Divergence, diag.MaxVelocity)

	// --- Staging configuration: merge through the reorg operator. ---
	merged, err := bp.CreateWriter(fs, "pixie_merged.bp", 8)
	if err != nil {
		log.Fatal(err)
	}
	cfg := predata.PipelineConfig{NumCompute: ranks, NumStaging: 2, Dumps: 1}
	_, err = predata.RunPipeline(cfg,
		func(comm *mpi.Comm, client *predata.Client) error {
			w, err := adios.NewStagingWriter(client, pixie3d.Schema())
			if err != nil {
				return err
			}
			return body(comm, w)
		},
		func(dump int) []staging.Operator {
			op, err := ops.NewReorgOperator(ops.ReorgConfig{
				Vars: pixie3d.VarNames, Output: merged,
			})
			if err != nil {
				log.Fatal(err)
			}
			return []staging.Operator{op}
		})
	if err != nil {
		log.Fatal(err)
	}
	if _, err := merged.Close(); err != nil {
		log.Fatal(err)
	}
	stVisible := visible

	fmt.Printf("\nvisible write time per rank: In-Compute-Node %v (modeled sync) vs Staging %v (pack only)\n",
		icVisible.Round(time.Microsecond), stVisible.Round(time.Microsecond))

	// --- Read one field back from both layouts. ---
	report := func(file string) (time.Duration, []float64) {
		r, err := bp.OpenReader(fs, file)
		if err != nil {
			log.Fatal(err)
		}
		// Both configurations label the run's one dump timestep 0.
		data, dims, d, err := r.ReadVar("rho", 0)
		if err != nil {
			log.Fatal(err)
		}
		var extents int
		for _, vi := range r.Vars() {
			if vi.Name == "rho" {
				extents = vi.Chunks
			}
		}
		fmt.Printf("%-20s rho %v in %d extents: modeled read %v\n",
			file, dims, extents, d.Round(time.Millisecond))
		return d, data
	}
	dU, dataU := report("pixie_unmerged.bp")
	dM, dataM := report("pixie_merged.bp")
	for i := range dataU {
		if dataU[i] != dataM[i] {
			log.Fatalf("layouts disagree at element %d", i)
		}
	}
	fmt.Printf("\nlayout reorganization speeds up the read %.1fx (paper: ~10x at 4096 writers)\n",
		float64(dU)/float64(dM))
}
