package adios

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"predata/internal/bp"
	"predata/internal/ffs"
	"predata/internal/mpi"
	"predata/internal/pfs"
	"predata/internal/predata"
	"predata/internal/staging"
)

func newFS(t testing.TB) *pfs.FileSystem {
	t.Helper()
	fs, err := pfs.New(pfs.Config{
		NumOSTs: 8, OSTBandwidth: 500e6, StripeSize: 1 << 20,
		OpLatency: time.Millisecond, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

func TestMPIIOWriterSingleRank(t *testing.T) {
	fs := newFS(t)
	bw, err := bp.CreateWriter(fs, "out.bp", 4)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewMPIIOWriter(bw, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.BeginStep(0); err != nil {
		t.Fatal(err)
	}
	if err := w.Write("scalar", 3.5); err != nil {
		t.Fatal(err)
	}
	if err := w.Write("local", []float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := w.Write("global", &ffs.Array{
		Dims: []uint64{2}, Global: []uint64{2}, Offsets: []uint64{0},
		Float64: []float64{7, 8},
	}); err != nil {
		t.Fatal(err)
	}
	res, err := w.EndStep()
	if err != nil {
		t.Fatal(err)
	}
	if res.Modeled <= 0 || res.Bytes != 6*8 {
		t.Errorf("step result %+v", res)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := bp.OpenReader(fs, "out.bp")
	if err != nil {
		t.Fatal(err)
	}
	got, _, _, err := r.ReadVar("global", 0)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 7 || got[1] != 8 {
		t.Errorf("global %v", got)
	}
	got, _, _, err = r.ReadVar("scalar", 0)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 3.5 {
		t.Errorf("scalar %v", got)
	}
}

func TestMPIIOWriterStepDiscipline(t *testing.T) {
	fs := newFS(t)
	bw, _ := bp.CreateWriter(fs, "d.bp", 4)
	w, _ := NewMPIIOWriter(bw, 0, true)
	if err := w.Write("x", 1.0); err == nil {
		t.Error("Write outside step accepted")
	}
	if _, err := w.EndStep(); err == nil {
		t.Error("EndStep outside step accepted")
	}
	if err := w.BeginStep(0); err != nil {
		t.Fatal(err)
	}
	if err := w.BeginStep(1); err == nil {
		t.Error("nested BeginStep accepted")
	}
	if err := w.Write("bad", "string"); err == nil {
		t.Error("unsupported type accepted")
	}
	if err := w.Write("badints", &ffs.Array{Dims: []uint64{1}, Int64: []int64{1}}); err == nil {
		t.Error("int64 array accepted by BP path")
	}
}

func TestNewWriterValidation(t *testing.T) {
	if _, err := NewMPIIOWriter(nil, 0, false); err == nil {
		t.Error("nil bp writer accepted")
	}
	if _, err := NewStagingWriter(nil, &ffs.Schema{Fields: []ffs.Field{{Name: "x"}}}); err == nil {
		t.Error("nil client accepted")
	}
}

func TestMPIIOWriterSharedFile(t *testing.T) {
	fs := newFS(t)
	bw, _ := bp.CreateWriter(fs, "shared.bp", 8)
	const ranks = 6
	err := mpi.Run(ranks, func(c *mpi.Comm) error {
		w, err := NewMPIIOWriter(bw, c.Rank(), c.Rank() == 0)
		if err != nil {
			return err
		}
		if err := w.BeginStep(0); err != nil {
			return err
		}
		lo := uint64(c.Rank()) * 10
		data := make([]float64, 10)
		for i := range data {
			data[i] = float64(lo) + float64(i)
		}
		if err := w.Write("v", &ffs.Array{
			Dims: []uint64{10}, Global: []uint64{ranks * 10}, Offsets: []uint64{lo},
			Float64: data,
		}); err != nil {
			return err
		}
		if _, err := w.EndStep(); err != nil {
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
	r, err := bp.OpenReader(fs, "shared.bp")
	if err != nil {
		t.Fatal(err)
	}
	got, dims, _, err := r.ReadVar("v", 0)
	if err != nil {
		t.Fatal(err)
	}
	if dims[0] != ranks*10 {
		t.Fatalf("dims %v", dims)
	}
	for i := range got {
		if got[i] != float64(i) {
			t.Fatalf("elem %d = %g", i, got[i])
		}
	}
}

// sinkOp records the float64 slice field "v" lengths it sees.
type sinkOp struct {
	mu sync.Mutex
	n  int64
}

func (s *sinkOp) Name() string                                              { return "sink" }
func (s *sinkOp) Initialize(ctx *staging.Context, agg map[string]any) error { return nil }
func (s *sinkOp) Map(ctx *staging.Context, chunk *staging.Chunk) error {
	arr, ok := chunk.Record["v"].(*ffs.Array)
	if !ok {
		return fmt.Errorf("chunk missing v: %v", chunk.Record)
	}
	staging.Emit(ctx, 0, int64(len(arr.Float64)))
	return nil
}
func (s *sinkOp) Reduce(ctx *staging.Context, tag int, values []int64) error {
	for _, v := range values {
		s.mu.Lock()
		s.n += v
		s.mu.Unlock()
	}
	return nil
}
func (s *sinkOp) Finalize(ctx *staging.Context) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	ctx.SetResult("n", s.n)
	return nil
}

func TestStagingWriterEndToEnd(t *testing.T) {
	group := &ffs.Schema{
		Name:   "g",
		Fields: []ffs.Field{{Name: "v", Kind: ffs.KindArray}},
	}
	cfg := predata.PipelineConfig{NumCompute: 4, NumStaging: 2, Dumps: 2}
	res, err := predata.RunPipeline(cfg,
		func(comm *mpi.Comm, client *predata.Client) error {
			w, err := NewStagingWriter(client, group)
			if err != nil {
				return err
			}
			for step := int64(0); step < 2; step++ {
				if err := w.BeginStep(step); err != nil {
					return err
				}
				if err := w.Write("nope", 1.0); err == nil {
					return fmt.Errorf("undeclared variable accepted")
				}
				data := make([]float64, 25)
				if err := w.Write("v", &ffs.Array{
					Dims: []uint64{25}, Global: []uint64{100},
					Offsets: []uint64{uint64(comm.Rank()) * 25}, Float64: data,
				}); err != nil {
					return err
				}
				sr, err := w.EndStep()
				if err != nil {
					return err
				}
				if sr.Bytes <= 0 {
					return fmt.Errorf("step bytes %d", sr.Bytes)
				}
			}
			return w.Close()
		},
		func(dump int) []staging.Operator { return []staging.Operator{&sinkOp{}} })
	if err != nil {
		t.Fatal(err)
	}
	for dump := 0; dump < 2; dump++ {
		var total int64
		for rank := 0; rank < 2; rank++ {
			n, _ := res.StagingResults[rank][dump].PerOperator["sink"]["n"].(int64)
			total += n
		}
		if total != 100 {
			t.Errorf("dump %d total %d want 100", dump, total)
		}
	}
}

func TestStagingWriterStepDiscipline(t *testing.T) {
	group := &ffs.Schema{Name: "g", Fields: []ffs.Field{{Name: "v", Kind: ffs.KindFloat64}}}
	cfg := predata.PipelineConfig{NumCompute: 1, NumStaging: 1, Dumps: 0}
	_, err := predata.RunPipeline(cfg,
		func(comm *mpi.Comm, client *predata.Client) error {
			w, err := NewStagingWriter(client, group)
			if err != nil {
				return err
			}
			if err := w.Write("v", 1.0); err == nil {
				return fmt.Errorf("write outside step accepted")
			}
			if _, err := w.EndStep(); err == nil {
				return fmt.Errorf("EndStep outside step accepted")
			}
			if err := w.BeginStep(0); err != nil {
				return err
			}
			if err := w.BeginStep(1); err == nil {
				return fmt.Errorf("nested BeginStep accepted")
			}
			return nil
		},
		func(dump int) []staging.Operator { return nil })
	if err != nil {
		t.Fatal(err)
	}
}
