// Online monitoring: the paper's motivating GTC use case — "statistical
// measures that can be used to validate the veracity of the ongoing
// simulation, gain understanding of the simulation progress, and
// potentially take early action when the simulation operates improperly".
//
// A GTC proxy runs several output steps. In the staging area, a custom
// operator (written against the five-phase API) computes a per-step
// histogram of particle weights and publishes it into a DataSpaces shared
// space versioned by timestep. A monitoring client subscribed to the
// space is notified as each step's statistics arrive and flags anomalous
// drift — all while the simulation keeps running.
//
// Run with: go run ./examples/online_monitoring
package main

import (
	"fmt"
	"log"
	"math"

	"predata/internal/adios"
	"predata/internal/apps/gtc"
	"predata/internal/bitmap"
	"predata/internal/dataspaces"
	"predata/internal/ffs"
	"predata/internal/mpi"
	"predata/internal/predata"
	"predata/internal/staging"
)

const (
	numCompute = 8
	numStaging = 2
	steps      = 4
	perRank    = 10000
	bins       = 32
)

// weightHistOp is a custom PreDatA operator: Map bins the weight column
// locally, Reduce sums counts and publishes the histogram into the shared
// space under the dump's timestep as its version.
type weightHistOp struct {
	space *dataspaces.Space
}

func (o *weightHistOp) Name() string { return "weighthist" }

func (o *weightHistOp) Initialize(ctx *staging.Context, agg map[string]any) error { return nil }

func (o *weightHistOp) Map(ctx *staging.Context, chunk *staging.Chunk) error {
	arr, ok := chunk.Record["electrons"].(*ffs.Array)
	if !ok {
		return fmt.Errorf("chunk missing electrons array")
	}
	counts := make([]int64, bins)
	rows := int(arr.Dims[0])
	k := int(arr.Dims[1])
	for i := 0; i < rows; i++ {
		// Weights start in [0,1) and drift slowly; outliers land in the
		// edge bins.
		counts[bitmap.Bin(arr.Float64[i*k+gtc.AttrWeight], [2]float64{0, 1}, bins)]++
	}
	staging.Emit(ctx, 0, counts)
	return nil
}

func (o *weightHistOp) Reduce(ctx *staging.Context, tag int, values [][]int64) error {
	sum := make([]float64, bins)
	for _, counts := range values {
		for i, c := range counts {
			sum[i] += float64(c)
		}
	}
	// Version the histogram by timestep so monitors can diff steps.
	return o.space.Put("weight_hist", int(ctx.Step()), []uint64{0}, []uint64{bins}, sum)
}

func (o *weightHistOp) Finalize(ctx *staging.Context) error { return nil }

func main() {
	space, err := dataspaces.New(dataspaces.Config{
		Servers: numStaging,
		Domain:  dataspaces.Domain{Dims: []uint64{bins}},
	})
	if err != nil {
		log.Fatal(err)
	}

	// The monitoring client: a continuous query over the histogram
	// object, independent of the simulation and the staging area.
	notify, cancel, err := space.Subscribe("weight_hist", []uint64{0}, []uint64{bins})
	if err != nil {
		log.Fatal(err)
	}
	defer cancel()
	monitorDone := make(chan struct{})
	go func() {
		defer close(monitorDone)
		var prevMean float64
		for seen := 0; seen < steps; {
			n, ok := <-notify
			if !ok {
				return
			}
			hist, err := space.Get("weight_hist", n.Version, []uint64{0}, []uint64{bins})
			if err != nil {
				log.Fatal(err)
			}
			var total, weighted float64
			for b, c := range hist {
				total += c
				weighted += c * (float64(b) + 0.5) / bins
			}
			mean := weighted / total
			status := "ok"
			if seen > 0 && math.Abs(mean-prevMean) > 0.05 {
				status = "ANOMALOUS DRIFT — inspect the run"
			}
			fmt.Printf("[monitor] step %d: %0.f particles, mean weight %.4f (%s)\n",
				n.Version, total, mean, status)
			prevMean = mean
			seen++
		}
	}()

	// The simulation + staging pipeline.
	cfg := predata.PipelineConfig{
		NumCompute: numCompute,
		NumStaging: numStaging,
		Dumps:      steps,
		Engine:     staging.Config{Workers: 2},
	}
	_, err = predata.RunPipeline(cfg,
		func(comm *mpi.Comm, client *predata.Client) error {
			sim, err := gtc.New(gtc.Config{
				Rank: comm.Rank(), NumRanks: comm.Size(),
				ParticlesPerRank: perRank, MigrationFraction: 0.1, Seed: 5,
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
				if _, err := sim.WriteOutput(w); err != nil {
					return err
				}
			}
			return nil
		},
		func(dump int) []staging.Operator {
			return []staging.Operator{&weightHistOp{space: space}}
		})
	if err != nil {
		log.Fatal(err)
	}
	<-monitorDone
	fmt.Printf("\nmonitored %d steps without touching the file system or blocking the simulation\n", steps)
	fmt.Printf("histogram versions in the space: %v\n", space.Versions("weight_hist"))
}
