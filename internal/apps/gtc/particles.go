package gtc

import (
	"math/rand"

	"predata/internal/ffs"
)

// ParticleSchema is the ADIOS group of the single-array mini-workload:
// one particle array "p" per writer per dump.
var ParticleSchema = &ffs.Schema{
	Name:   "particles",
	Fields: []ffs.Field{{Name: "p", Kind: ffs.KindArray}},
}

// GenParticles builds a shuffled particle array for one writer rank
// without stepping a Simulation: the workload generator behind
// predata-run's default app and the bench harness's functional
// mini-runs. Deterministic per (rank, seed); labels are (rank, row
// number before the shuffle).
func GenParticles(rank, n int, seed int64) *ffs.Array {
	rng := rand.New(rand.NewSource(seed + int64(rank)*7919))
	data := make([]float64, n*AttrCount)
	for i := 0; i < n; i++ {
		row := data[i*AttrCount:]
		row[AttrZeta] = rng.Float64()
		row[AttrRadial] = rng.Float64()
		row[AttrTheta] = rng.Float64()
		row[AttrVPar] = rng.NormFloat64()
		row[AttrVPerp] = rng.NormFloat64()
		row[AttrWeight] = rng.Float64()
		row[AttrRank] = float64(rank)
		row[AttrLocalID] = float64(i)
	}
	rng.Shuffle(n, func(a, b int) {
		for c := 0; c < AttrCount; c++ {
			data[a*AttrCount+c], data[b*AttrCount+c] = data[b*AttrCount+c], data[a*AttrCount+c]
		}
	})
	return &ffs.Array{Dims: []uint64{uint64(n), AttrCount}, Float64: data}
}
