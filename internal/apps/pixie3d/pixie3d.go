// Package pixie3d is a proxy for the Pixie3D extended-MHD code's data and
// communication behavior: a 3D domain decomposition producing eight 3D
// global arrays per output step (mass density, three linear-momentum
// components, three vector-potential components, temperature), with an
// inner loop that interleaves short computations with collective
// communications (MPI_Reduce and MPI_Bcast) — the pattern that makes
// Pixie3D hard to overlap with asynchronous data movement, per the paper's
// Section V-C.
//
// The package also implements the diagnostic routines of the paper's
// Fig. 2: derived quantities (energy, flux, divergence, maximum velocity)
// computed from the raw fields.
package pixie3d

import (
	"fmt"
	"math"
	"math/rand"

	"predata/internal/adios"
	"predata/internal/ffs"
	"predata/internal/mpi"
)

// VarNames are the eight output arrays, in output order.
var VarNames = []string{
	"rho", "px", "py", "pz", "ax", "ay", "az", "temp",
}

// Config sizes the proxy.
type Config struct {
	// Rank and ProcGrid place this process: ranks map to a
	// ProcGrid[0] x ProcGrid[1] x ProcGrid[2] Cartesian grid in row-major
	// order.
	Rank     int
	ProcGrid [3]int
	// LocalSize is the per-dimension local array extent (the paper's
	// production setting is 32, i.e. 32x32x32 local arrays).
	LocalSize int
	// InnerIters is the number of compute+collective inner iterations per
	// Step (each performs one Allreduce and one Bcast).
	InnerIters int
	// Seed controls the initial condition.
	Seed int64
}

// Simulation is one rank's state: the eight local fields.
type Simulation struct {
	cfg     Config
	coords  [3]int
	fields  map[string][]float64
	outputs int64 // outputs written so far: the next one's timestep
	rng     *rand.Rand
}

// New validates the configuration and builds the initial fields.
func New(cfg Config) (*Simulation, error) {
	nprocs := cfg.ProcGrid[0] * cfg.ProcGrid[1] * cfg.ProcGrid[2]
	if nprocs < 1 {
		return nil, fmt.Errorf("pixie3d: process grid %v is empty", cfg.ProcGrid)
	}
	if cfg.Rank < 0 || cfg.Rank >= nprocs {
		return nil, fmt.Errorf("pixie3d: rank %d outside grid of %d", cfg.Rank, nprocs)
	}
	if cfg.LocalSize < 1 {
		return nil, fmt.Errorf("pixie3d: local size %d must be >= 1", cfg.LocalSize)
	}
	if cfg.InnerIters < 1 {
		cfg.InnerIters = 1
	}
	s := &Simulation{
		cfg:    cfg,
		fields: make(map[string][]float64, len(VarNames)),
		rng:    rand.New(rand.NewSource(cfg.Seed + int64(cfg.Rank)*104729)),
	}
	s.coords = [3]int{
		cfg.Rank / (cfg.ProcGrid[1] * cfg.ProcGrid[2]),
		cfg.Rank / cfg.ProcGrid[2] % cfg.ProcGrid[1],
		cfg.Rank % cfg.ProcGrid[2],
	}
	n := cfg.LocalSize
	for _, name := range VarNames {
		f := make([]float64, n*n*n)
		for i := range f {
			f[i] = s.rng.NormFloat64() * 0.1
		}
		s.fields[name] = f
	}
	// Density and temperature start positive.
	for _, name := range []string{"rho", "temp"} {
		f := s.fields[name]
		for i := range f {
			f[i] = 1 + math.Abs(f[i])
		}
	}
	return s, nil
}

// Coords returns this rank's position in the process grid.
func (s *Simulation) Coords() [3]int { return s.coords }

// Step advances one outer iteration: InnerIters rounds of a short local
// stencil update followed by the collectives of the implicit solver
// (a residual Allreduce and a solution Bcast).
func (s *Simulation) Step(comm *mpi.Comm) error {
	n := s.cfg.LocalSize
	for iter := 0; iter < s.cfg.InnerIters; iter++ {
		// Short computation: 7-point damped diffusion on each field.
		for _, name := range VarNames {
			f := s.fields[name]
			next := make([]float64, len(f))
			at := func(x, y, z int) float64 {
				// Periodic local wrap as a cheap halo stand-in.
				x, y, z = (x+n)%n, (y+n)%n, (z+n)%n
				return f[(x*n+y)*n+z]
			}
			for x := 0; x < n; x++ {
				for y := 0; y < n; y++ {
					for z := 0; z < n; z++ {
						lap := at(x+1, y, z) + at(x-1, y, z) +
							at(x, y+1, z) + at(x, y-1, z) +
							at(x, y, z+1) + at(x, y, z-1) - 6*at(x, y, z)
						next[(x*n+y)*n+z] = at(x, y, z) + 0.05*lap
					}
				}
			}
			s.fields[name] = next
		}
		// Collectives of the Newton-Krylov iteration.
		residual := []float64{s.localEnergy()}
		total, err := mpi.Allreduce(comm, residual, func(a, b float64) float64 { return a + b })
		if err != nil {
			return fmt.Errorf("pixie3d: residual allreduce: %w", err)
		}
		if _, err := mpi.Bcast(comm, total, 0); err != nil {
			return fmt.Errorf("pixie3d: solution bcast: %w", err)
		}
	}
	return nil
}

// localEnergy sums the kinetic proxy over the local domain.
func (s *Simulation) localEnergy() float64 {
	var e float64
	rho := s.fields["rho"]
	for _, c := range []string{"px", "py", "pz"} {
		f := s.fields[c]
		for i := range f {
			if rho[i] != 0 {
				e += f[i] * f[i] / rho[i]
			}
		}
	}
	return e / 2
}

// globalDims returns the global array dimensions.
func (s *Simulation) globalDims() []uint64 {
	n := uint64(s.cfg.LocalSize)
	return []uint64{
		n * uint64(s.cfg.ProcGrid[0]),
		n * uint64(s.cfg.ProcGrid[1]),
		n * uint64(s.cfg.ProcGrid[2]),
	}
}

// offsets returns this rank's chunk offsets in the global arrays.
func (s *Simulation) offsets() []uint64 {
	n := uint64(s.cfg.LocalSize)
	return []uint64{
		n * uint64(s.coords[0]),
		n * uint64(s.coords[1]),
		n * uint64(s.coords[2]),
	}
}

// Field returns the named field as a global-array chunk.
func (s *Simulation) Field(name string) (*ffs.Array, error) {
	f, ok := s.fields[name]
	if !ok {
		return nil, fmt.Errorf("pixie3d: unknown field %q", name)
	}
	n := uint64(s.cfg.LocalSize)
	return &ffs.Array{
		Dims:    []uint64{n, n, n},
		Global:  s.globalDims(),
		Offsets: s.offsets(),
		Float64: f,
	}, nil
}

// Schema is the ADIOS output group: the eight 3D arrays.
func Schema() *ffs.Schema {
	fields := make([]ffs.Field, len(VarNames))
	for i, name := range VarNames {
		fields[i] = ffs.Field{Name: name, Kind: ffs.KindArray}
	}
	return &ffs.Schema{Name: "pixie3d", Fields: fields}
}

// WriteOutput commits all eight arrays for the current step. Outputs are
// numbered from 0 in the order they are written, whichever writer takes
// them: dump i is timestep i in a BP file and the i-th dump a staging run
// serves.
func (s *Simulation) WriteOutput(w adios.Writer) (adios.StepResult, error) {
	if err := w.BeginStep(s.outputs); err != nil {
		return adios.StepResult{}, err
	}
	for _, name := range VarNames {
		arr, err := s.Field(name)
		if err != nil {
			return adios.StepResult{}, err
		}
		if err := w.Write(name, arr); err != nil {
			return adios.StepResult{}, err
		}
	}
	res, err := w.EndStep()
	if err == nil {
		s.outputs++
	}
	return res, err
}

// Diagnostics are the derived quantities of the paper's Fig. 2 computed
// over one rank's local domain; combine across ranks with an Allreduce
// (sums) and max-reduce (MaxVelocity).
type Diagnostics struct {
	Energy      float64 // kinetic energy proxy: sum p²/2rho
	Flux        float64 // boundary momentum flux proxy
	Divergence  float64 // L1 norm of div(a)
	MaxVelocity float64 // max |p|/rho
}

// ComputeDiagnostics evaluates the diagnostics on the local fields.
func (s *Simulation) ComputeDiagnostics() Diagnostics {
	n := s.cfg.LocalSize
	rho := s.fields["rho"]
	px, py, pz := s.fields["px"], s.fields["py"], s.fields["pz"]
	ax, ay, az := s.fields["ax"], s.fields["ay"], s.fields["az"]
	at := func(f []float64, x, y, z int) float64 {
		x, y, z = (x+n)%n, (y+n)%n, (z+n)%n
		return f[(x*n+y)*n+z]
	}
	var d Diagnostics
	d.Energy = s.localEnergy()
	for x := 0; x < n; x++ {
		for y := 0; y < n; y++ {
			for z := 0; z < n; z++ {
				i := (x*n+y)*n + z
				// Divergence of the vector potential, central differences.
				div := (at(ax, x+1, y, z)-at(ax, x-1, y, z))/2 +
					(at(ay, x, y+1, z)-at(ay, x, y-1, z))/2 +
					(at(az, x, y, z+1)-at(az, x, y, z-1))/2
				d.Divergence += math.Abs(div)
				speed := math.Sqrt(px[i]*px[i]+py[i]*py[i]+pz[i]*pz[i]) / rho[i]
				if speed > d.MaxVelocity {
					d.MaxVelocity = speed
				}
				// Momentum flux through the local x-boundary plane.
				if x == 0 {
					d.Flux += px[i]
				}
			}
		}
	}
	return d
}
