package predata_test

// Verify on use for the sort: a sort-only dump pulls each chunk with only
// its seal header checked, and the sort's Map folds each block of the
// chunk's rows into its check as its key pass reads them; the verify step
// after Reduce settles every chunk before anything is committed. These
// tests hold that path to the contract the pull-time check kept: a damaged
// key heals bit-identically, through a redo of the pass, and a bad source
// copy is dropped as it was with the check at the pull.

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
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
	svCompute = 8
	svStaging = 3
	svDumps   = 3
	svRows    = 2048 // rows per chunk; a row is its two labels, so every payload byte is a key byte
)

var svSchema = &ffs.Schema{Name: "labels", Fields: []ffs.Field{{Name: "p", Kind: ffs.KindArray}}}

// svLabels is writer w's [svRows, 2] label array at dump: (major, id) rows
// in a shuffled order, the majors spread over every writer's range so that
// each staging rank merges runs of several writers.
func svLabels(w, dump int) *ffs.Array {
	rng := rand.New(rand.NewSource(int64(w*svDumps + dump + 1)))
	data := make([]float64, 0, 2*svRows)
	for _, i := range rng.Perm(svRows) {
		data = append(data, float64((w+i)%svCompute), float64(i*svCompute+w)+0.5)
	}
	return &ffs.Array{Dims: []uint64{svRows, 2}, Float64: data}
}

// svReference is every surviving writer's rows at dump, sorted by label.
func svReference(dump int, dropped map[int]bool) []float64 {
	var rows [][2]float64
	for w := range svCompute {
		if dropped[w] {
			continue
		}
		a := svLabels(w, dump).Float64
		for r := 0; r < svRows; r++ {
			rows = append(rows, [2]float64{a[2*r], a[2*r+1]})
		}
	}
	slices.SortFunc(rows, func(a, b [2]float64) int { return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1])) })
	out := make([]float64, 0, 2*len(rows))
	for _, r := range rows {
		out = append(out, r[0], r[1])
	}
	return out
}

// watchedSort is the sort operator, counting the chunks that reach its Map
// unchecked and its passes over a dump.
type watchedSort struct {
	*ops.SortOperator
	unverified, inits *atomic.Int64
}

func (w watchedSort) Initialize(ctx *staging.Context, agg map[string]any) error {
	w.inits.Add(1)
	return w.SortOperator.Initialize(ctx, agg)
}

func (w watchedSort) Map(ctx *staging.Context, chunk *staging.Chunk) error {
	if chunk.Unverified != nil {
		w.unverified.Add(1)
	}
	return w.SortOperator.Map(ctx, chunk)
}

// svOutcome is one sort pipeline run: its result and error, its recording,
// and what the watched operators counted.
type svOutcome struct {
	res                      *predata.PipelineResult
	err                      error
	rec                      *trace.Recording
	unverified, inits, dumps int64
}

// redos is the number of extra passes the staging ranks made.
func (o svOutcome) redos() int64 { return o.inits - o.dumps }

// svRun runs the sort pipeline under the fault plan spec (empty:
// fault-free): every (dump, staging rank) writes the rows it owns, sorted,
// to its own BP file and keeps the committed rows in its result.
func svRun(t *testing.T, spec string, seed int64) svOutcome {
	t.Helper()
	cfg := predata.PipelineConfig{NumCompute: svCompute, NumStaging: svStaging, Dumps: svDumps, Timeout: 2 * time.Minute}
	if spec != "" {
		plan, err := faults.ParsePlan(spec, seed)
		if err != nil {
			t.Fatal(err)
		}
		cfg.FaultPlan = &plan
	}
	recorder := trace.New(trace.Config{NumCompute: svCompute, NumStaging: svStaging, Dumps: svDumps})
	cfg.Tracer = recorder
	fs, err := pfs.New(pfs.Config{NumOSTs: 4, OSTBandwidth: 1e9, StripeSize: 1 << 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var unverified, inits, files atomic.Int64
	opsFor := func(int) []staging.Operator {
		w, err := bp.CreateWriter(fs, fmt.Sprintf("sorted-%d.bp", files.Add(1)), 4)
		if err != nil {
			t.Error(err)
			return nil
		}
		s, err := ops.NewSortOperator(ops.SortConfig{Var: "p", KeyMajor: 0, KeyMinor: 1,
			MajorRange: [2]float64{0, svCompute - 1}, Output: w, KeepResult: true})
		if err != nil {
			t.Error(err)
			return nil
		}
		return []staging.Operator{watchedSort{s, &unverified, &inits}}
	}
	res, err := predata.RunPipeline(cfg, func(comm *mpi.Comm, client *predata.Client) error {
		for d := 0; d < svDumps; d++ {
			if _, err := client.Write(svSchema, ffs.Record{"p": svLabels(comm.Rank(), d)}, int64(d)); err != nil {
				return err
			}
		}
		return nil
	}, opsFor)
	return svOutcome{res: res, err: err, rec: recorder.Snapshot(),
		unverified: unverified.Load(), inits: inits.Load(), dumps: files.Load()}
}

// svSorted is dump's committed rows, the staging ranks' runs in rank
// order, and whether any rank marked the dump Degraded.
func svSorted(t *testing.T, o svOutcome, dump int) (rows []float64, degraded bool) {
	t.Helper()
	if o.err != nil {
		t.Fatal(o.err)
	}
	for rank := range o.res.StagingResults {
		r := o.res.StagingResults[rank][dump]
		degraded = degraded || r.Degraded
		if a, ok := r.PerOperator["sort"]["sorted"].(*ffs.Array); ok {
			rows = append(rows, a.Float64...)
		}
	}
	return rows, degraded
}

// svCheck fails t unless every dump's committed rows are bit-identical to
// the sorted rows of every writer not in dropped, and a dump is Degraded
// exactly when a writer was dropped.
func svCheck(t *testing.T, o svOutcome, dropped map[int]bool) {
	t.Helper()
	for dump := range svDumps {
		got, degraded := svSorted(t, o, dump)
		want := svReference(dump, dropped)
		if degraded != (len(dropped) > 0) {
			t.Errorf("dump %d: Degraded %v with writers %v dropped", dump, degraded, dropped)
		}
		if len(got) != len(want) {
			t.Fatalf("dump %d: %d sorted values, want %d", dump, len(got), len(want))
		}
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("dump %d: sorted value %d is %v, want %v", dump, i, got[i], want[i])
			}
		}
	}
}

// retired counts the PhaseChunk instants of each (writer, dump).
func retired(rec *trace.Recording) map[[2]int64]int {
	n := map[[2]int64]int{}
	for _, e := range rec.Events {
		if e.Phase == trace.PhaseChunk {
			n[[2]int64{e.Seq, e.Dump}]++
		}
	}
	return n
}

// TestCorruptSortKeyHealsBitIdentically: wire corruption that lands in a
// sort key — every payload byte of these chunks is one — reaches the sort's
// Map unchecked and moves rows to other places and other ranks. The verify
// step after Reduce must find it and redo the pass from re-pulled bytes, so
// every dump's committed rows are bit-identical to the fault-free run's, and
// each chunk is retired once, after its check passed.
func TestCorruptSortKeyHealsBitIdentically(t *testing.T) {
	clean := svRun(t, "", 1)
	svCheck(t, clean, nil)
	o := svRun(t, "corrupt:*:0.1:pull", 5)
	for dump := range svDumps {
		a, _ := svSorted(t, clean, dump)
		b, _ := svSorted(t, o, dump)
		if !slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }) {
			t.Fatalf("dump %d differs from the fault-free run", dump)
		}
	}
	svCheck(t, o, nil)
	var frame int64
	for _, e := range o.rec.Events {
		if e.Phase == trace.PhasePull && e.Kind == trace.KindSpan {
			frame = e.Arg
			break
		}
	}
	keys := 0
	for _, e := range o.rec.Events {
		if e.Phase == trace.PhaseCorrupt && e.Arg >= frame-svRows*2*8 {
			keys++
		}
	}
	if frame == 0 || keys == 0 {
		t.Fatalf("no corruption landed in a key (frames of %d bytes)", frame)
	}
	if o.redos() == 0 {
		t.Error("no pass was redone: the verify step never found a damaged key")
	}
	for w := range svCompute {
		for d := range svDumps {
			if n := retired(o.rec)[[2]int64{int64(w), int64(d)}]; n != 1 {
				t.Errorf("writer %d dump %d: %d PhaseChunk records, want 1", w, d, n)
			}
		}
	}
}

// TestAdversarySortVerifyOnUse: the adversary soak's corruption legs over
// the sort, whose chunks are checked in its Map key pass and settled after
// Reduce. The fault-free run sorts every row exactly, and every chunk
// reaches Map unchecked. Wire corruption heals: damaged chunks are found by
// the verify step, re-pulled and the pass redone, and every dump's rows are
// bit-identical to the direct reference. A source copy that stays corrupt is
// dropped after the attempt budget, as it was with the check at the pull:
// each dump is Degraded and holds exactly the other writers' rows; the
// corruption-quarantine rule checks every drop, and the dropped chunk is
// never retired.
func TestAdversarySortVerifyOnUse(t *testing.T) {
	clean := svRun(t, "", 1)
	svCheck(t, clean, nil)
	if want := int64(svCompute * svDumps); clean.unverified != want {
		t.Errorf("%d chunks reached the sort's Map unchecked, want all %d", clean.unverified, want)
	}
	if n := clean.redos(); n != 0 {
		t.Errorf("fault-free run redid %d passes", n)
	}
	for _, seed := range []int64{1, 7} {
		t.Run(fmt.Sprintf("wire/seed%d", seed), func(t *testing.T) {
			o := svRun(t, "corrupt:*:0.15:pull", seed)
			svCheck(t, o, nil)
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
		o := svRun(t, "corrupt:0:1:send", 1)
		svCheck(t, o, map[int]bool{0: true})
		if rep := o.res.Fault; rep == nil || rep.CorruptDrops != svDumps {
			t.Fatalf("source corruption: want %d corrupt drops (writer 0 every dump): %+v", svDumps, rep)
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
		for key := range retired(o.rec) {
			if key[0] == 0 {
				t.Errorf("dropped writer 0's chunk of dump %d was retired", key[1])
			}
		}
	})
}

// TestCorruptHistSortDumpChecksBeforeMap: a dump that mixes the sort with a
// histogram is neither all block mappers nor all verifying reducers, so the
// engine checks each payload whole before its first Map: under wire
// corruption no chunk reaches either operator unchecked — not in Map, not in
// StartMap — and the output is still the fault-free run's.
func TestCorruptHistSortDumpChecksBeforeMap(t *testing.T) {
	var unverified, inits atomic.Int64
	opsFor := func(int) []staging.Operator {
		h, err := ops.NewHistogramOperator(ops.HistogramConfig{Var: "p", Columns: bmCols, Bins: bmBins, Ranges: bmRanges})
		if err != nil {
			t.Error(err)
		}
		s, err := ops.NewSortOperator(ops.SortConfig{Var: "p", KeyMajor: 0, KeyMinor: 3, MajorRange: bmRanges[0], KeepResult: true})
		if err != nil {
			t.Error(err)
		}
		return []staging.Operator{watchedHist{h, &unverified}, watchedSort{s, &unverified, &inits}}
	}
	clean, _, _ := bmRun(t, "", 2, opsFor, nil)
	res, _, _ := bmRun(t, "corrupt:*:0.2:pull", 2, opsFor, nil)
	bmSameAsClean(t, clean, res)
	if rep := res.Fault; rep == nil || rep.CorruptPulls == 0 {
		t.Fatalf("want CRC failures: %+v", rep)
	}
	if n := unverified.Load(); n != 0 {
		t.Fatalf("%d chunks of a hist+sort dump reached an operator unchecked", n)
	}
}
