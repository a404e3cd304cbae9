// GTC pipeline: the paper's first driver application, end to end.
//
// A GTC proxy simulation (particle drift + random inter-rank migration)
// runs on 8 compute ranks for three output steps. Each step's two
// particle species are committed through the PreDatA staging writer; the
// staging area runs all three paper operators on every dump — sorting by
// particle label, 1D histograms, and 2D histograms — and writes the
// sorted particles and histogram results into BP files on the modeled
// parallel file system.
//
// Run with: go run ./examples/gtc_pipeline
package main

import (
	"fmt"
	"log"
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

const (
	numCompute = 8
	numStaging = 2
	steps      = 3
	perRank    = 20000
)

func main() {
	fs, err := pfs.New(pfs.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	sortedOut, err := bp.CreateWriter(fs, "gtc_sorted.bp", 8)
	if err != nil {
		log.Fatal(err)
	}
	histOut, err := bp.CreateWriter(fs, "gtc_histograms.bp", 4)
	if err != nil {
		log.Fatal(err)
	}

	cfg := predata.PipelineConfig{
		NumCompute: numCompute,
		NumStaging: numStaging,
		Dumps:      steps,
		PartialCalculate: ops.MinMaxPartial("electrons",
			[]int{gtc.AttrZeta, gtc.AttrRadial, gtc.AttrVPar, gtc.AttrRank}),
		Aggregate: ops.MinMaxAggregate(),
		Engine:    staging.Config{Workers: 2},
	}

	res, err := predata.RunPipeline(cfg,
		func(comm *mpi.Comm, client *predata.Client) error {
			sim, err := gtc.New(gtc.Config{
				Rank: comm.Rank(), NumRanks: comm.Size(),
				ParticlesPerRank: perRank, MigrationFraction: 0.2, Seed: 7,
			})
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
				sr, err := sim.WriteOutput(w)
				if err != nil {
					return err
				}
				if comm.Rank() == 0 {
					fmt.Printf("step %d: %d electrons on rank 0, visible I/O %v for %.1f MB\n",
						s, sim.Count(gtc.Electrons), sr.Real.Round(time.Microsecond),
						float64(sr.Bytes)/1e6)
				}
			}
			return nil
		},
		func(dump int) []staging.Operator {
			sort, err := ops.NewSortOperator(ops.SortConfig{
				Var: "electrons", KeyMajor: gtc.AttrRank, KeyMinor: gtc.AttrLocalID,
				AggFromColumn: true, Output: sortedOut,
			})
			if err != nil {
				log.Fatal(err)
			}
			hist, err := ops.NewHistogramOperator(ops.HistogramConfig{
				Var:     "electrons",
				Columns: []int{gtc.AttrZeta, gtc.AttrRadial, gtc.AttrVPar},
				Bins:    64, AggRanges: true, Output: histOut,
			})
			if err != nil {
				log.Fatal(err)
			}
			hist2d, err := ops.NewHistogram2DOperator(ops.Histogram2DConfig{
				Var:   "electrons",
				Pairs: [][2]int{{gtc.AttrZeta, gtc.AttrRadial}},
				Bins:  32, AggRanges: true, Output: histOut,
			})
			if err != nil {
				log.Fatal(err)
			}
			return []staging.Operator{sort, hist, hist2d}
		})
	if err != nil {
		log.Fatal(err)
	}
	if _, err := sortedOut.Close(); err != nil {
		log.Fatal(err)
	}
	if _, err := histOut.Close(); err != nil {
		log.Fatal(err)
	}

	// Staging-side cost report.
	fmt.Println()
	for rank, dumps := range res.StagingStats {
		var pulled int64
		var pullModeled time.Duration
		for _, st := range dumps {
			pulled += st.BytesPulled
			pullModeled += st.PullModeled
		}
		fmt.Printf("staging rank %d: pulled %.1f MB over %d dumps (modeled transfer %v)\n",
			rank, float64(pulled)/1e6, len(dumps), pullModeled.Round(time.Millisecond))
	}

	// Verify the sorted output file: every staging rank wrote its sorted
	// run per dump.
	r, err := bp.OpenReader(fs, "gtc_sorted.bp")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ngtc_sorted.bp variables:")
	for _, vi := range r.Vars() {
		fmt.Printf("  %s step %d: %d chunks, dims %v\n", vi.Name, vi.Timestep, vi.Chunks, vi.Global)
	}
	hr, err := bp.OpenReader(fs, "gtc_histograms.bp")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("gtc_histograms.bp variables:")
	for _, vi := range hr.Vars() {
		fmt.Printf("  %s step %d: dims %v\n", vi.Name, vi.Timestep, vi.Global)
	}
	// Spot-check one histogram column read back from the file.
	data, _, _, err := hr.ReadVar("electrons_hist_col0", 0)
	if err != nil {
		log.Fatal(err)
	}
	var total float64
	for _, v := range data {
		total += v
	}
	fmt.Printf("\nhistogram of zeta at step 0 sums to %.0f particles (expect %d)\n",
		total, numCompute*perRank)
}
