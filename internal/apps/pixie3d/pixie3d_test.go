package pixie3d

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	"predata/internal/adios"
	"predata/internal/bp"
	"predata/internal/mpi"
	"predata/internal/pfs"
	"predata/internal/predata"
	"predata/internal/staging"
)

func TestNewValidation(t *testing.T) {
	bad := []Config{
		{Rank: 0, ProcGrid: [3]int{0, 1, 1}, LocalSize: 4},
		{Rank: 8, ProcGrid: [3]int{2, 2, 2}, LocalSize: 4},
		{Rank: -1, ProcGrid: [3]int{1, 1, 1}, LocalSize: 4},
		{Rank: 0, ProcGrid: [3]int{1, 1, 1}, LocalSize: 0},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
}

func TestCoordsRowMajor(t *testing.T) {
	grid := [3]int{2, 3, 4}
	seen := map[[3]int]bool{}
	for rank := 0; rank < 24; rank++ {
		sim, err := New(Config{Rank: rank, ProcGrid: grid, LocalSize: 2})
		if err != nil {
			t.Fatal(err)
		}
		c := sim.Coords()
		if c[0] < 0 || c[0] >= 2 || c[1] < 0 || c[1] >= 3 || c[2] < 0 || c[2] >= 4 {
			t.Fatalf("rank %d coords %v", rank, c)
		}
		if seen[c] {
			t.Fatalf("coords %v duplicated", c)
		}
		seen[c] = true
	}
}

func TestFieldsInitialized(t *testing.T) {
	sim, err := New(Config{Rank: 0, ProcGrid: [3]int{1, 1, 1}, LocalSize: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range VarNames {
		arr, err := sim.Field(name)
		if err != nil {
			t.Fatal(err)
		}
		if len(arr.Float64) != 64 {
			t.Fatalf("%s has %d elems", name, len(arr.Float64))
		}
	}
	if _, err := sim.Field("bogus"); err == nil {
		t.Error("unknown field accepted")
	}
	// Density and temperature positive.
	for _, name := range []string{"rho", "temp"} {
		arr, _ := sim.Field(name)
		for i, v := range arr.Float64 {
			if v <= 0 {
				t.Fatalf("%s[%d] = %g not positive", name, i, v)
			}
		}
	}
}

func TestGlobalPlacement(t *testing.T) {
	grid := [3]int{2, 1, 2}
	for rank := 0; rank < 4; rank++ {
		sim, err := New(Config{Rank: rank, ProcGrid: grid, LocalSize: 8})
		if err != nil {
			t.Fatal(err)
		}
		arr, _ := sim.Field("rho")
		if arr.Global[0] != 16 || arr.Global[1] != 8 || arr.Global[2] != 16 {
			t.Fatalf("global dims %v", arr.Global)
		}
		c := sim.Coords()
		want := []uint64{uint64(c[0]) * 8, uint64(c[1]) * 8, uint64(c[2]) * 8}
		for d := 0; d < 3; d++ {
			if arr.Offsets[d] != want[d] {
				t.Fatalf("rank %d offsets %v want %v", rank, arr.Offsets, want)
			}
		}
	}
}

func TestStepRunsCollectives(t *testing.T) {
	const ranks = 4
	err := mpi.Run(ranks, func(c *mpi.Comm) error {
		sim, err := New(Config{
			Rank: c.Rank(), ProcGrid: [3]int{ranks, 1, 1}, LocalSize: 4,
			InnerIters: 3, Seed: 2,
		})
		if err != nil {
			return err
		}
		for s := 0; s < 2; s++ {
			if err := sim.Step(c); err != nil {
				return err
			}
		}
		// Fields stay finite under the damped stencil.
		for _, name := range VarNames {
			arr, _ := sim.Field(name)
			for i, v := range arr.Float64 {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					return fmt.Errorf("%s[%d] = %g", name, i, v)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDiagnostics(t *testing.T) {
	sim, err := New(Config{Rank: 0, ProcGrid: [3]int{1, 1, 1}, LocalSize: 6, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	d := sim.ComputeDiagnostics()
	if d.Energy < 0 {
		t.Errorf("negative energy %g", d.Energy)
	}
	if d.Divergence < 0 {
		t.Errorf("negative divergence %g", d.Divergence)
	}
	if d.MaxVelocity <= 0 {
		t.Errorf("max velocity %g", d.MaxVelocity)
	}
	if math.IsNaN(d.Flux) {
		t.Errorf("flux NaN")
	}
}

func TestDiagnosticsZeroMomentum(t *testing.T) {
	sim, err := New(Config{Rank: 0, ProcGrid: [3]int{1, 1, 1}, LocalSize: 4, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"px", "py", "pz"} {
		arr, _ := sim.Field(name)
		for i := range arr.Float64 {
			arr.Float64[i] = 0
		}
	}
	d := sim.ComputeDiagnostics()
	if d.Energy != 0 || d.MaxVelocity != 0 || d.Flux != 0 {
		t.Errorf("zero-momentum diagnostics %+v", d)
	}
}

func TestWriteOutputAllVars(t *testing.T) {
	fs, err := pfs.New(pfs.Config{NumOSTs: 4, OSTBandwidth: 1e9, StripeSize: 1 << 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	bw, err := bp.CreateWriter(fs, "pixie.bp", 4)
	if err != nil {
		t.Fatal(err)
	}
	const ranks = 8
	err = mpi.Run(ranks, func(c *mpi.Comm) error {
		sim, err := New(Config{
			Rank: c.Rank(), ProcGrid: [3]int{2, 2, 2}, LocalSize: 4, Seed: 5,
		})
		if err != nil {
			return err
		}
		if err := sim.Step(c); err != nil {
			return err
		}
		w, err := adios.NewMPIIOWriter(bw, c.Rank(), c.Rank() == 0)
		if err != nil {
			return err
		}
		if _, err := sim.WriteOutput(w); err != nil {
			return err
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		return w.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
	r, err := bp.OpenReader(fs, "pixie.bp")
	if err != nil {
		t.Fatal(err)
	}
	vars := r.Vars()
	if len(vars) != len(VarNames) {
		t.Fatalf("%d vars, want %d", len(vars), len(VarNames))
	}
	for _, vi := range vars {
		if vi.Chunks != ranks {
			t.Errorf("%s has %d chunks", vi.Name, vi.Chunks)
		}
		if vi.Global[0] != 8 || vi.Global[1] != 8 || vi.Global[2] != 8 {
			t.Errorf("%s global %v", vi.Name, vi.Global)
		}
	}
	data, _, _, err := r.ReadVar("temp", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 512 {
		t.Fatalf("temp has %d elems", len(data))
	}
}

func TestSchemaCoversAllVars(t *testing.T) {
	s := Schema()
	if len(s.Fields) != len(VarNames) {
		t.Fatalf("schema has %d fields", len(s.Fields))
	}
	for _, name := range VarNames {
		if s.FieldIndex(name) < 0 {
			t.Errorf("schema missing %s", name)
		}
	}
}

// TestWriteOutputEitherWriter: one per-rank body, Step then WriteOutput,
// runs unchanged under both ADIOS writers. A staging run serves dumps
// 0..Dumps-1, so it completes only if the proxy numbers its outputs from
// 0; the MPI-IO file then holds dump i under timestep i.
func TestWriteOutputEitherWriter(t *testing.T) {
	const dumps = 2
	grid := [3]int{2, 1, 1}
	body := func(comm *mpi.Comm, w adios.Writer) error {
		sim, err := New(Config{Rank: comm.Rank(), ProcGrid: grid, LocalSize: 4, Seed: 5})
		if err != nil {
			return err
		}
		for d := 0; d < dumps; d++ {
			if err := sim.Step(comm); err != nil {
				return err
			}
			if _, err := sim.WriteOutput(w); err != nil {
				return err
			}
		}
		return nil
	}
	_, err := predata.RunPipeline(
		predata.PipelineConfig{NumCompute: 2, NumStaging: 1, Dumps: dumps, Timeout: time.Minute},
		func(comm *mpi.Comm, client *predata.Client) error {
			w, err := adios.NewStagingWriter(client, Schema())
			if err != nil {
				return err
			}
			return body(comm, w)
		},
		func(int) []staging.Operator { return nil })
	if err != nil {
		t.Fatalf("staging run: %v", err)
	}

	fs, err := pfs.New(pfs.Config{NumOSTs: 4, OSTBandwidth: 1e9, StripeSize: 1 << 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	bw, err := bp.CreateWriter(fs, "pixie.bp", 4)
	if err != nil {
		t.Fatal(err)
	}
	err = mpi.Run(2, func(comm *mpi.Comm) error {
		w, err := adios.NewMPIIOWriter(bw, comm.Rank(), comm.Rank() == 0)
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
		t.Fatal(err)
	}
	r, err := bp.OpenReader(fs, "pixie.bp")
	if err != nil {
		t.Fatal(err)
	}
	var steps []int64
	for _, vi := range r.Vars() {
		if vi.Name == "rho" {
			steps = append(steps, vi.Timestep)
		}
	}
	if !slices.Equal(steps, []int64{0, 1}) {
		t.Fatalf("rho written at timesteps %v, want [0 1]", steps)
	}
}
