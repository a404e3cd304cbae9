package predata_test

// Verify on use for the reorg: a dump whose operators all verify in Reduce
// pulls each chunk with only its seal header checked, and the reorg's slab
// scatter folds each chunk's rows into its check; a verify step after
// Reduce settles every chunk before anything is committed. These tests hold
// that path to the contract the pull-time check kept: wire corruption heals
// bit-identically, through a redo of the pass, and a bad source copy ends
// as it did with the check at the pull.

import (
	"fmt"
	"math"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"predata/internal/bp"
	"predata/internal/faults"
	"predata/internal/ffs"
	"predata/internal/mpi"
	"predata/internal/ops"
	"predata/internal/pfs"
	"predata/internal/predata"
	"predata/internal/staging"
	"predata/internal/trace"
)

const (
	rvCompute = 8 // a 2×2×2 grid of writers
	rvStaging = 3
	rvDumps   = 3
	rvLocal   = 16 // each writer's block is rvLocal³ cells of every variable
	rvGlobal  = 2 * rvLocal
)

var (
	rvVars   = []string{"rho", "px", "temp"}
	rvSchema = &ffs.Schema{Name: "cube", Fields: []ffs.Field{
		{Name: "rho", Kind: ffs.KindArray}, {Name: "px", Kind: ffs.KindArray}, {Name: "temp", Kind: ffs.KindArray},
	}}
)

// rvValue is cell i (row-major in the global array) of variable v at dump.
func rvValue(v, dump, i int) float64 {
	return float64((v*rvDumps+dump)*rvGlobal*rvGlobal*rvGlobal+i) + 0.25
}

// rvRecord is writer w's block of every variable at dump.
func rvRecord(w, dump int) ffs.Record {
	ox, oy, oz := w/4*rvLocal, w/2%2*rvLocal, w%2*rvLocal
	rec := ffs.Record{}
	for v, name := range rvVars {
		data := make([]float64, 0, rvLocal*rvLocal*rvLocal)
		for x := ox; x < ox+rvLocal; x++ {
			for y := oy; y < oy+rvLocal; y++ {
				for z := oz; z < oz+rvLocal; z++ {
					data = append(data, rvValue(v, dump, (x*rvGlobal+y)*rvGlobal+z))
				}
			}
		}
		rec[name] = &ffs.Array{Dims: []uint64{rvLocal, rvLocal, rvLocal}, Global: []uint64{rvGlobal, rvGlobal, rvGlobal},
			Offsets: []uint64{uint64(ox), uint64(oy), uint64(oz)}, Float64: data}
	}
	return rec
}

// watchedReorg is the reorg operator, counting the chunks that reach its
// Map unchecked and its passes over a dump.
type watchedReorg struct {
	*ops.ReorgOperator
	unverified, inits *atomic.Int64
}

func (w watchedReorg) Initialize(ctx *staging.Context, agg map[string]any) error {
	w.inits.Add(1)
	return w.ReorgOperator.Initialize(ctx, agg)
}

func (w watchedReorg) Map(ctx *staging.Context, chunk *staging.Chunk) error {
	if chunk.Unverified != nil {
		w.unverified.Add(1)
	}
	return w.ReorgOperator.Map(ctx, chunk)
}

// rvOutcome is one reorg pipeline run: its result and error, its
// recording, and what the watched operators counted.
type rvOutcome struct {
	res                      *predata.PipelineResult
	err                      error
	rec                      *trace.Recording
	unverified, inits, dumps int64
}

// redos is the number of extra passes the staging ranks made.
func (o rvOutcome) redos() int64 { return o.inits - o.dumps }

// rvRun runs the reorg pipeline under the fault plan spec (empty:
// fault-free): every (dump, staging rank) merges the variables it owns
// into its own BP file and keeps the committed arrays in its result.
func rvRun(t *testing.T, spec string, seed int64) rvOutcome {
	t.Helper()
	cfg := predata.PipelineConfig{NumCompute: rvCompute, NumStaging: rvStaging, Dumps: rvDumps, Timeout: 2 * time.Minute}
	if spec != "" {
		plan, err := faults.ParsePlan(spec, seed)
		if err != nil {
			t.Fatal(err)
		}
		cfg.FaultPlan = &plan
	}
	recorder := trace.New(trace.Config{NumCompute: rvCompute, NumStaging: rvStaging, Dumps: rvDumps})
	cfg.Tracer = recorder
	fs, err := pfs.New(pfs.Config{NumOSTs: 4, OSTBandwidth: 1e9, StripeSize: 1 << 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var unverified, inits, files atomic.Int64
	opsFor := func(int) []staging.Operator {
		w, err := bp.CreateWriter(fs, fmt.Sprintf("merged-%d.bp", files.Add(1)), 4)
		if err != nil {
			t.Error(err)
			return nil
		}
		r, err := ops.NewReorgOperator(ops.ReorgConfig{Vars: rvVars, Output: w, KeepResult: true})
		if err != nil {
			t.Error(err)
			return nil
		}
		return []staging.Operator{watchedReorg{r, &unverified, &inits}}
	}
	res, err := predata.RunPipeline(cfg, func(comm *mpi.Comm, client *predata.Client) error {
		for d := 0; d < rvDumps; d++ {
			if _, err := client.Write(rvSchema, rvRecord(comm.Rank(), d), int64(d)); err != nil {
				return err
			}
		}
		return nil
	}, opsFor)
	return rvOutcome{res: res, err: err, rec: recorder.Snapshot(),
		unverified: unverified.Load(), inits: inits.Load(), dumps: files.Load()}
}

// rvCheck fails t unless every dump's committed arrays are bit-identical to
// the direct reference and no dump is Degraded.
func rvCheck(t *testing.T, o rvOutcome) {
	t.Helper()
	if o.err != nil {
		t.Fatal(o.err)
	}
	for dump := 0; dump < rvDumps; dump++ {
		for v, name := range rvVars {
			var got *ffs.Array
			for rank := range o.res.StagingResults {
				r := o.res.StagingResults[rank][dump]
				if r.Degraded {
					t.Errorf("rank %d dump %d Degraded", rank, dump)
				}
				if a, ok := r.PerOperator["reorg"][name].(*ffs.Array); ok {
					got = a
				}
			}
			if got == nil || len(got.Float64) != rvGlobal*rvGlobal*rvGlobal {
				t.Fatalf("dump %d: no merged %s", dump, name)
			}
			for i, x := range got.Float64 {
				if math.Float64bits(x) != math.Float64bits(rvValue(v, dump, i)) {
					t.Fatalf("dump %d: %s[%d] = %v, want %v", dump, name, i, x, rvValue(v, dump, i))
				}
			}
		}
	}
}

// TestAdversaryReorgVerifyOnUse: the adversary soak's corruption legs over
// the reorg, whose chunks are checked in Reduce. The fault-free run merges
// every array exactly, and every chunk reaches Map unchecked. Wire
// corruption heals: damaged chunks are found by the verify step, re-pulled
// and the pass redone, and every committed array is bit-identical to the
// fault-free run's. A source copy that stays corrupt is dropped after the
// attempt budget, and the dump fails as it did with the check at the pull:
// the merged arrays no longer tile; the corruption-quarantine rule checks
// every drop, and the dropped chunk is never retired.
func TestAdversaryReorgVerifyOnUse(t *testing.T) {
	clean := rvRun(t, "", 1)
	rvCheck(t, clean)
	if want := int64(rvCompute * rvDumps); clean.unverified != want {
		t.Errorf("%d chunks reached the reorg's Map unchecked, want all %d", clean.unverified, want)
	}
	if n := clean.redos(); n != 0 {
		t.Errorf("fault-free run redid %d passes", n)
	}
	for _, seed := range []int64{1, 7} {
		t.Run(fmt.Sprintf("wire/seed%d", seed), func(t *testing.T) {
			o := rvRun(t, "corrupt:*:0.15:pull", seed)
			rvCheck(t, o)
			rep := o.res.Fault
			if rep == nil || rep.Corruptions == 0 || rep.CorruptPulls == 0 {
				t.Fatalf("p=0.15 wire corruption left no CRC failures: %+v", rep)
			}
			if rep.CorruptDrops != 0 || rep.DegradedDumps != 0 {
				t.Errorf("wire corruption must heal transparently: %+v", rep)
			}
			if o.redos() == 0 {
				t.Error("no pass was redone: the verify step never found a damaged chunk")
			}
			if _, err := trace.Verify(o.rec); err != nil {
				t.Errorf("trace.Verify: %v", err)
			}
		})
	}
	t.Run("source", func(t *testing.T) {
		o := rvRun(t, "corrupt:0:1:send", 1)
		if o.err == nil || !strings.Contains(o.err.Error(), "chunks cover") {
			t.Fatalf("pipeline error %v, want the reorg's coverage failure", o.err)
		}
		if !hasPhase(o.rec, trace.PhaseCorruptDrop) {
			t.Fatal("no corrupt-drop trace event")
		}
		vrep, _ := trace.Verify(o.rec)
		if vrep.Checks[trace.RuleCorruptQuarantine] == 0 {
			t.Errorf("corrupt drops recorded but quarantine unchecked: %+v", vrep)
		}
		for _, v := range vrep.Violations {
			if strings.HasPrefix(v, trace.RuleCorruptQuarantine.String()) {
				t.Error(v)
			}
		}
	})
}
