// DataSpaces query: the model-to-model coupling scenario of the paper's
// Section IV-D and the Fig. 9 experiment, at laptop scale.
//
// GTC-proxy particles are staged through PreDatA and sorted by label;
// the sorted runs are then inserted into a DataSpaces shared space
// indexed on the (local id, writer rank) domain. A "querying
// application" retrieves disjoint sub-regions with get(), runs
// aggregation queries, and a continuous query demonstrates the
// notification service.
//
// Run with: go run ./examples/dataspaces_query
package main

import (
	"fmt"
	"log"
	"time"

	"predata/internal/apps/gtc"
	"predata/internal/bench"
	"predata/internal/dataspaces"
	"predata/internal/ffs"
	"predata/internal/mpi"
	"predata/internal/ops"
	"predata/internal/staging"
)

const (
	numCompute = 8
	numStaging = 2
	perRank    = 5000
)

func main() {
	// Stage and sort the particles with the real pipeline.
	var sorted []*ffs.Array
	res, _, err := bench.MiniPipeline(numCompute, numStaging, perRank,
		func(dump int) []staging.Operator {
			op, err := ops.NewSortOperator(ops.SortConfig{
				Var: "p", KeyMajor: gtc.AttrRank, KeyMinor: gtc.AttrLocalID,
				AggFromColumn: true, KeepResult: true,
			})
			if err != nil {
				log.Fatal(err)
			}
			return []staging.Operator{op}
		})
	if err != nil {
		log.Fatal(err)
	}
	for rank := 0; rank < numStaging; rank++ {
		arr := res.StagingResults[rank][0].PerOperator["sort"]["sorted"].(*ffs.Array)
		sorted = append(sorted, arr)
	}

	// Build the shared space over the (local id, writer rank) domain the
	// paper uses, and insert the sorted particles' weight attribute:
	// cell (id, rank) holds that particle's weight.
	space, err := dataspaces.New(dataspaces.Config{
		Servers: numStaging,
		Domain:  dataspaces.Domain{Dims: []uint64{perRank, numCompute}},
	})
	if err != nil {
		log.Fatal(err)
	}
	insertStart := time.Now()
	for _, arr := range sorted {
		rows := int(arr.Dims[0])
		for i := 0; i < rows; i++ {
			row := arr.Float64[i*gtc.AttrCount:]
			id := uint64(row[gtc.AttrLocalID])
			rank := uint64(row[gtc.AttrRank])
			err := space.Put("weight", 0, []uint64{id, rank}, []uint64{id + 1, rank + 1},
				[]float64{row[gtc.AttrWeight]})
			if err != nil {
				log.Fatal(err)
			}
		}
	}
	fmt.Printf("indexed %d particles into the space in %v\n",
		numCompute*perRank, time.Since(insertStart).Round(time.Millisecond))
	st := space.Stats()
	fmt.Printf("load balance: blocks per server %v\n", st.BlocksPerServer)

	// A querying application on 4 "cores", each getting a disjoint
	// sub-region of the domain (the Fig. 9 access pattern).
	err = mpi.Run(4, func(c *mpi.Comm) error {
		lo := uint64(c.Rank()) * perRank / 4
		hi := uint64(c.Rank()+1) * perRank / 4
		start := time.Now()
		region, err := space.Get("weight", 0, []uint64{lo, 0}, []uint64{hi, numCompute})
		if err != nil {
			return err
		}
		var sum float64
		for _, v := range region {
			sum += v
		}
		fmt.Printf("query core %d: got ids [%d,%d) x all ranks = %d weights (sum %.1f) in %v\n",
			c.Rank(), lo, hi, len(region), sum, time.Since(start).Round(time.Millisecond))
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}

	// Aggregation queries over a sub-region.
	for _, op := range []struct {
		name string
		op   dataspaces.ReduceOp
	}{{"min", dataspaces.ReduceMin}, {"max", dataspaces.ReduceMax}, {"avg", dataspaces.ReduceAvg}} {
		v, err := space.Reduce("weight", 0, []uint64{0, 0}, []uint64{perRank / 2, numCompute}, op.op)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("aggregate %s(weight over first half) = %.4f\n", op.name, v)
	}

	// Continuous query: register a region of interest, then a new
	// version arriving inside it triggers a notification.
	ch, cancel, err := space.Subscribe("weight", []uint64{0, 0}, []uint64{100, numCompute})
	if err != nil {
		log.Fatal(err)
	}
	defer cancel()
	err = space.Put("weight", 1, []uint64{10, 0}, []uint64{20, 1}, make([]float64, 10))
	if err != nil {
		log.Fatal(err)
	}
	select {
	case n := <-ch:
		fmt.Printf("continuous query notified: %s version %d region %v-%v\n",
			n.Name, n.Version, n.Lb, n.Ub)
	case <-time.After(time.Second):
		log.Fatal("no notification received")
	}

	// Coherency: a writer lock excludes readers while version 2 loads.
	space.AcquireWrite("weight")
	if err := space.Put("weight", 2, []uint64{0, 0}, []uint64{1, 1}, []float64{42}); err != nil {
		log.Fatal(err)
	}
	if err := space.ReleaseWrite("weight"); err != nil {
		log.Fatal(err)
	}
	space.AcquireRead("weight")
	v, err := space.Get("weight", 2, []uint64{0, 0}, []uint64{1, 1})
	if err != nil {
		log.Fatal(err)
	}
	if err := space.ReleaseRead("weight"); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("version 2 under read lock: %v; versions stored: %v\n", v, space.Versions("weight"))
}
