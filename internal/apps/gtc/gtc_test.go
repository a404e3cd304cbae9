package gtc

import (
	"fmt"
	"slices"
	"testing"
	"testing/quick"
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
		{Rank: 0, NumRanks: 0},
		{Rank: 2, NumRanks: 2, ParticlesPerRank: 1},
		{Rank: -1, NumRanks: 2},
		{Rank: 0, NumRanks: 1, ParticlesPerRank: -5},
		{Rank: 0, NumRanks: 1, MigrationFraction: 1.5},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
}

func TestSpeciesString(t *testing.T) {
	if Electrons.String() != "electrons" || Ions.String() != "ions" {
		t.Error("species names wrong")
	}
	if Species(9).String() == "" {
		t.Error("unknown species empty")
	}
}

func TestInitialLabels(t *testing.T) {
	sim, err := New(Config{Rank: 3, NumRanks: 4, ParticlesPerRank: 50, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for sp := Species(0); sp < speciesCount; sp++ {
		arr := sim.Particles(sp)
		n := int(arr.Dims[0])
		if n != 50 {
			t.Fatalf("species %v has %d particles", sp, n)
		}
		seen := map[int]bool{}
		for i := 0; i < n; i++ {
			row := arr.Float64[i*AttrCount:]
			if row[AttrRank] != 3 {
				t.Fatalf("particle %d has rank %g", i, row[AttrRank])
			}
			id := int(row[AttrLocalID])
			if seen[id] {
				t.Fatalf("duplicate local id %d", id)
			}
			seen[id] = true
		}
	}
}

// TestMigrationConservesParticles: after several steps with migration,
// the global particle count and label set are unchanged — particles move,
// never appear or vanish.
func TestMigrationConservesParticles(t *testing.T) {
	const (
		ranks   = 4
		perRank = 40
		steps   = 5
	)
	counts := make([]int, ranks)
	labels := make([]map[[2]int]bool, ranks)
	err := mpi.Run(ranks, func(c *mpi.Comm) error {
		sim, err := New(Config{
			Rank: c.Rank(), NumRanks: ranks, ParticlesPerRank: perRank,
			MigrationFraction: 0.3, Seed: 42,
		})
		if err != nil {
			return err
		}
		for s := 0; s < steps; s++ {
			if err := sim.Step(c); err != nil {
				return err
			}
		}
		counts[c.Rank()] = sim.Count(Electrons)
		set := map[[2]int]bool{}
		arr := sim.Particles(Electrons)
		for i := 0; i < sim.Count(Electrons); i++ {
			row := arr.Float64[i*AttrCount:]
			set[[2]int{int(row[AttrRank]), int(row[AttrLocalID])}] = true
		}
		labels[c.Rank()] = set
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	all := map[[2]int]bool{}
	for r := 0; r < ranks; r++ {
		total += counts[r]
		for l := range labels[r] {
			if all[l] {
				t.Fatalf("label %v on two ranks", l)
			}
			all[l] = true
		}
	}
	if total != ranks*perRank {
		t.Fatalf("total %d want %d", total, ranks*perRank)
	}
	if len(all) != ranks*perRank {
		t.Fatalf("labels %d want %d", len(all), ranks*perRank)
	}
}

func TestMigrationActuallyMoves(t *testing.T) {
	const ranks = 3
	moved := make([]bool, ranks)
	err := mpi.Run(ranks, func(c *mpi.Comm) error {
		sim, err := New(Config{
			Rank: c.Rank(), NumRanks: ranks, ParticlesPerRank: 100,
			MigrationFraction: 0.5, Seed: 7,
		})
		if err != nil {
			return err
		}
		if err := sim.Step(c); err != nil {
			return err
		}
		arr := sim.Particles(Ions)
		for i := 0; i < sim.Count(Ions); i++ {
			if int(arr.Float64[i*AttrCount+AttrRank]) != c.Rank() {
				moved[c.Rank()] = true
				break
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	any := false
	for _, m := range moved {
		any = any || m
	}
	if !any {
		t.Error("no particle migrated at 50% migration fraction")
	}
}

func TestStepCommMismatch(t *testing.T) {
	err := mpi.Run(2, func(c *mpi.Comm) error {
		sim, err := New(Config{Rank: 0, NumRanks: 4, ParticlesPerRank: 1})
		if err != nil {
			return err
		}
		if err := sim.Step(c); err == nil {
			return fmt.Errorf("mismatched communicator accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWriteOutputMPIIO(t *testing.T) {
	fs, err := pfs.New(pfs.Config{NumOSTs: 4, OSTBandwidth: 1e9, StripeSize: 1 << 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	bw, err := bp.CreateWriter(fs, "gtc.bp", 4)
	if err != nil {
		t.Fatal(err)
	}
	err = mpi.Run(1, func(c *mpi.Comm) error {
		sim, err := New(Config{Rank: 0, NumRanks: 1, ParticlesPerRank: 20, Seed: 1})
		if err != nil {
			return err
		}
		if err := sim.Step(c); err != nil {
			return err
		}
		w, err := adios.NewMPIIOWriter(bw, 0, true)
		if err != nil {
			return err
		}
		res, err := sim.WriteOutput(w)
		if err != nil {
			return err
		}
		if res.Bytes != 2*20*AttrCount*8 {
			return fmt.Errorf("bytes %d", res.Bytes)
		}
		return w.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
	r, err := bp.OpenReader(fs, "gtc.bp")
	if err != nil {
		t.Fatal(err)
	}
	vars := r.Vars()
	if len(vars) != 2 {
		t.Fatalf("vars %+v", vars)
	}
	data, dims, _, err := r.ReadVar("electrons", 0)
	if err != nil {
		t.Fatal(err)
	}
	if dims[0] != 20 || dims[1] != AttrCount || len(data) != 20*AttrCount {
		t.Fatalf("dims %v", dims)
	}
}

// TestWeightsStayFinite: the proxy's dynamics stay numerically sane over
// many steps for arbitrary seeds.
func TestWeightsStayFinite(t *testing.T) {
	f := func(seed int64) bool {
		ok := true
		err := mpi.Run(1, func(c *mpi.Comm) error {
			sim, err := New(Config{Rank: 0, NumRanks: 1, ParticlesPerRank: 10, Seed: seed})
			if err != nil {
				return err
			}
			for s := 0; s < 20; s++ {
				if err := sim.Step(c); err != nil {
					return err
				}
			}
			arr := sim.Particles(Electrons)
			for _, v := range arr.Float64 {
				if v != v { // NaN
					ok = false
				}
			}
			return nil
		})
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestSchema(t *testing.T) {
	s := Schema()
	if s.FieldIndex("electrons") != 0 || s.FieldIndex("ions") != 1 {
		t.Errorf("schema %+v", s)
	}
}

func TestGenParticlesShape(t *testing.T) {
	arr := GenParticles(3, 100, 1)
	if arr.Dims[0] != 100 || arr.Dims[1] != AttrCount {
		t.Fatalf("dims %v", arr.Dims)
	}
	// All rows carry the writer rank, and the local ids form a permutation.
	seen := make(map[int]bool)
	for i := 0; i < 100; i++ {
		row := arr.Float64[i*AttrCount:]
		if row[AttrRank] != 3 {
			t.Fatalf("row %d rank %g", i, row[AttrRank])
		}
		seen[int(row[AttrLocalID])] = true
	}
	if len(seen) != 100 {
		t.Fatalf("%d distinct ids", len(seen))
	}
	// Deterministic per (rank, seed).
	again := GenParticles(3, 100, 1)
	for i := range arr.Float64 {
		if arr.Float64[i] != again.Float64[i] {
			t.Fatal("generator not deterministic")
		}
	}
	other := GenParticles(4, 100, 1)
	diff := false
	for i := range arr.Float64 {
		if arr.Float64[i] != other.Float64[i] {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("different ranks produced identical particles")
	}
}

// TestWriteOutputEitherWriter: one per-rank body, Step then WriteOutput,
// runs unchanged under both ADIOS writers. A staging run serves dumps
// 0..Dumps-1, so it completes only if the proxy numbers its outputs from
// 0; the MPI-IO file then holds dump i under timestep i.
func TestWriteOutputEitherWriter(t *testing.T) {
	const ranks, dumps = 2, 2
	body := func(comm *mpi.Comm, w adios.Writer) error {
		sim, err := New(Config{
			Rank: comm.Rank(), NumRanks: comm.Size(),
			ParticlesPerRank: 30, MigrationFraction: 0.1, Seed: 3,
		})
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
		predata.PipelineConfig{NumCompute: ranks, NumStaging: 1, Dumps: dumps, Timeout: time.Minute},
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
	bw, err := bp.CreateWriter(fs, "gtc.bp", 4)
	if err != nil {
		t.Fatal(err)
	}
	err = mpi.Run(ranks, func(comm *mpi.Comm) error {
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
	r, err := bp.OpenReader(fs, "gtc.bp")
	if err != nil {
		t.Fatal(err)
	}
	var steps []int64
	for _, vi := range r.Vars() {
		if vi.Name == "electrons" {
			steps = append(steps, vi.Timestep)
		}
	}
	if !slices.Equal(steps, []int64{0, 1}) {
		t.Fatalf("electrons written at timesteps %v, want [0 1]", steps)
	}
}
