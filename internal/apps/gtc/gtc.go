// Package gtc is a proxy for the Gyrokinetic Toroidal Code's data
// behavior: a 3D particle-in-cell simulation whose output is two 2D
// particle arrays (electrons and ions), eight attributes per particle,
// with particles migrating randomly between ranks as the simulation
// evolves — which is exactly why the arrays end up out of label order and
// the PreDatA sorting operator exists.
//
// The proxy reproduces the properties PreDatA interacts with — array
// shapes, label structure, inter-rank migration, output cadence — without
// the plasma physics.
package gtc

import (
	"fmt"
	"math"
	"math/rand"

	"predata/internal/adios"
	"predata/internal/ffs"
	"predata/internal/mpi"
)

// Particle attribute columns (the paper's eight attributes: coordinates,
// velocities, weight, and the label pair).
const (
	AttrZeta = iota // toroidal angle
	AttrRadial
	AttrTheta // poloidal angle
	AttrVPar
	AttrVPerp
	AttrWeight
	AttrRank    // process rank at particle birth (label, immutable)
	AttrLocalID // id within birth process (label, immutable)
	AttrCount
)

// Species indexes the two particle arrays.
type Species int

// The two GTC particle species.
const (
	Electrons Species = iota
	Ions
	speciesCount
)

// String returns the species name.
func (s Species) String() string {
	switch s {
	case Electrons:
		return "electrons"
	case Ions:
		return "ions"
	default:
		return fmt.Sprintf("Species(%d)", int(s))
	}
}

// Config sizes the proxy.
type Config struct {
	// Rank and NumRanks place this process in the compute job.
	Rank, NumRanks int
	// ParticlesPerRank is the initial per-species particle count per rank
	// (2 million in the paper's production runs; much smaller in tests).
	ParticlesPerRank int
	// MigrationFraction is the fraction of particles leaving each rank
	// per step for a random neighbor.
	MigrationFraction float64
	// Seed controls the proxy's randomness.
	Seed int64
}

// Simulation is one rank's state.
type Simulation struct {
	cfg       Config
	rng       *rand.Rand
	particles [speciesCount][]float64
	outputs   int64 // outputs written so far: the next one's timestep
}

// New validates the configuration and builds the initial particle arrays.
func New(cfg Config) (*Simulation, error) {
	if cfg.NumRanks < 1 || cfg.Rank < 0 || cfg.Rank >= cfg.NumRanks {
		return nil, fmt.Errorf("gtc: rank %d outside job of %d", cfg.Rank, cfg.NumRanks)
	}
	if cfg.ParticlesPerRank < 0 {
		return nil, fmt.Errorf("gtc: negative particle count %d", cfg.ParticlesPerRank)
	}
	if cfg.MigrationFraction < 0 || cfg.MigrationFraction > 1 {
		return nil, fmt.Errorf("gtc: migration fraction %g outside [0,1]", cfg.MigrationFraction)
	}
	s := &Simulation{
		cfg: cfg,
		rng: rand.New(rand.NewSource(cfg.Seed + int64(cfg.Rank)*7919)),
	}
	for sp := Species(0); sp < speciesCount; sp++ {
		s.particles[sp] = s.spawn(sp)
	}
	return s, nil
}

// spawn creates this rank's initial particles with labels
// (rank, localID) — the global identifiers that remain fixed for life.
func (s *Simulation) spawn(sp Species) []float64 {
	n := s.cfg.ParticlesPerRank
	data := make([]float64, n*AttrCount)
	for i := 0; i < n; i++ {
		row := data[i*AttrCount:]
		row[AttrZeta] = s.rng.Float64() * 2 * math.Pi
		row[AttrRadial] = 0.1 + 0.8*s.rng.Float64()
		row[AttrTheta] = s.rng.Float64() * 2 * math.Pi
		row[AttrVPar] = s.rng.NormFloat64()
		row[AttrVPerp] = math.Abs(s.rng.NormFloat64())
		row[AttrWeight] = s.rng.Float64()
		row[AttrRank] = float64(s.cfg.Rank)
		row[AttrLocalID] = float64(int(sp)*n + i)
	}
	return data
}

// Step advances one simulation step: particles drift toroidally and a
// random fraction migrates to other ranks through an all-to-all exchange —
// the collective phase PreDatA's transfer scheduling must avoid.
func (s *Simulation) Step(comm *mpi.Comm) error {
	if comm.Size() != s.cfg.NumRanks || comm.Rank() != s.cfg.Rank {
		return fmt.Errorf("gtc: communicator (%d/%d) does not match config (%d/%d)",
			comm.Rank(), comm.Size(), s.cfg.Rank, s.cfg.NumRanks)
	}
	const dt = 0.01
	for sp := Species(0); sp < speciesCount; sp++ {
		data := s.particles[sp]
		n := len(data) / AttrCount
		// Drift phase: gyro-averaged toroidal motion proxy.
		for i := 0; i < n; i++ {
			row := data[i*AttrCount:]
			row[AttrZeta] = math.Mod(row[AttrZeta]+row[AttrVPar]*dt+2*math.Pi, 2*math.Pi)
			row[AttrTheta] = math.Mod(row[AttrTheta]+row[AttrVPerp]*dt*0.5+2*math.Pi, 2*math.Pi)
			row[AttrWeight] += 1e-4 * s.rng.NormFloat64()
		}
		// Migration phase: ship a random fraction to random ranks.
		if comm.Size() > 1 && s.cfg.MigrationFraction > 0 {
			send := make([][]float64, comm.Size())
			var keep []float64
			for i := 0; i < n; i++ {
				row := data[i*AttrCount : (i+1)*AttrCount]
				if s.rng.Float64() < s.cfg.MigrationFraction {
					dst := s.rng.Intn(comm.Size())
					if dst != comm.Rank() {
						send[dst] = append(send[dst], row...)
						continue
					}
				}
				keep = append(keep, row...)
			}
			recv, err := mpi.Alltoall(comm, send)
			if err != nil {
				return fmt.Errorf("gtc: migration exchange: %w", err)
			}
			for src, block := range recv {
				if src == comm.Rank() {
					continue
				}
				keep = append(keep, block...)
			}
			s.particles[sp] = keep
		}
	}
	return nil
}

// Count returns the current particle count of one species on this rank.
func (s *Simulation) Count(sp Species) int {
	return len(s.particles[sp]) / AttrCount
}

// Particles returns the species array as a [N, AttrCount] ffs array. The
// returned array aliases simulation state; callers must treat it as
// read-only snapshot for the current step.
func (s *Simulation) Particles(sp Species) *ffs.Array {
	n := uint64(s.Count(sp))
	return &ffs.Array{
		Dims:    []uint64{n, AttrCount},
		Float64: s.particles[sp],
	}
}

// Schema is the ADIOS output group of the GTC proxy: the two particle
// arrays.
func Schema() *ffs.Schema {
	return &ffs.Schema{
		Name: "gtc_particles",
		Fields: []ffs.Field{
			{Name: "electrons", Kind: ffs.KindArray},
			{Name: "ions", Kind: ffs.KindArray},
		},
	}
}

// WriteOutput commits both particle arrays for the current step through
// the given writer. Outputs are numbered from 0 in the order they are
// written, whichever writer takes them: dump i is timestep i in a BP file
// and the i-th dump a staging run serves.
func (s *Simulation) WriteOutput(w adios.Writer) (adios.StepResult, error) {
	if err := w.BeginStep(s.outputs); err != nil {
		return adios.StepResult{}, err
	}
	if err := w.Write("electrons", s.Particles(Electrons)); err != nil {
		return adios.StepResult{}, err
	}
	if err := w.Write("ions", s.Particles(Ions)); err != nil {
		return adios.StepResult{}, err
	}
	res, err := w.EndStep()
	if err == nil {
		s.outputs++
	}
	return res, err
}
