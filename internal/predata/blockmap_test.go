package predata_test

// Verify on use through the whole pipeline: a dump whose operators are all
// block mappers (the histograms) pulls each chunk with only its seal header
// checked, and the engine checks the payload in the walk that bins it. These
// tests hold that path to the contract the pull-time check kept — corrupted
// bytes never reach Reduce, wire corruption heals bit-identically, a bad
// source copy ends Degraded with the quarantine rule checking it — and hold
// a dump with any other operator to a whole-payload check before its first
// Map.

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"predata/internal/bitmap"
	"predata/internal/fabric"
	"predata/internal/faults"
	"predata/internal/ffs"
	"predata/internal/flowctl"
	"predata/internal/mpi"
	"predata/internal/ops"
	"predata/internal/predata"
	"predata/internal/staging"
	"predata/internal/trace"
)

const (
	bmCompute = 8
	bmStaging = 3
	bmDumps   = 4
	// bmLastRows is the last walk block of a chunk: an [n, 8] array's block
	// is 4,096 rows, so a chunk of bmRows rows is one whole block and a
	// 3,000-row last block, about 40 % of its bytes.
	bmLastRows = 3000
	bmRows     = 4096 + bmLastRows
	bmBins     = 64
)

var (
	bmSchema = &ffs.Schema{Name: "particles", Fields: []ffs.Field{{Name: "p", Kind: ffs.KindArray}}}
	bmCols   = []int{0, 3, 5}
	bmRanges = map[int][2]float64{0: {0, 1}, 3: {-2, 2}, 5: {0, 1}}
)

// bmParticles is writer rank's [bmRows, 8] array at a dump, the same in
// every run.
func bmParticles(rank int, dump int64) *ffs.Array {
	rng := rand.New(rand.NewSource(int64(rank)*1000 + dump + 1))
	data := make([]float64, bmRows*8)
	for i := range data {
		data[i] = rng.Float64()
		if i%8 == 3 {
			data[i] = rng.NormFloat64()
		}
	}
	return &ffs.Array{Dims: []uint64{bmRows, 8}, Float64: data}
}

// bmHistOps plugs a 1-D histogram over bmCols and a 2-D one over two pairs.
func bmHistOps(t *testing.T) predata.OperatorFactory {
	return func(int) []staging.Operator {
		h, err := ops.NewHistogramOperator(ops.HistogramConfig{Var: "p", Columns: bmCols, Bins: bmBins, Ranges: bmRanges})
		if err != nil {
			t.Error(err)
		}
		h2, err := ops.NewHistogram2DOperator(ops.Histogram2DConfig{Var: "p", Pairs: [][2]int{{0, 5}, {3, 0}}, Bins: 16, Ranges: bmRanges})
		if err != nil {
			t.Error(err)
		}
		return []staging.Operator{h, h2}
	}
}

// bmRun runs the particle pipeline under the fault plan spec (empty:
// fault-free) with the flight recorder on, after tune (when non-nil) has
// adjusted the configuration. It fails t on a pipeline error, on a writer
// region still exposed after the run (an Ack skipped on some path), and on
// any trace.Verify violation.
func bmRun(t *testing.T, spec string, seed int64, opsFor predata.OperatorFactory, tune func(*predata.PipelineConfig)) (*predata.PipelineResult, *trace.Recording, *trace.VerifyReport) {
	t.Helper()
	cfg := predata.PipelineConfig{NumCompute: bmCompute, NumStaging: bmStaging, Dumps: bmDumps, Timeout: 2 * time.Minute}
	if tune != nil {
		tune(&cfg)
	}
	if spec != "" {
		plan, err := faults.ParsePlan(spec, seed)
		if err != nil {
			t.Fatal(err)
		}
		cfg.FaultPlan = &plan
	}
	recorder := trace.New(trace.Config{NumCompute: bmCompute, NumStaging: bmStaging, Dumps: bmDumps})
	cfg.Tracer = recorder
	writers := make([]*fabric.Endpoint, bmCompute)
	res, err := predata.RunPipeline(cfg, func(comm *mpi.Comm, client *predata.Client) error {
		writers[comm.Rank()] = client.Endpoint()
		for d := int64(0); d < bmDumps; d++ {
			if _, err := client.Write(bmSchema, ffs.Record{"p": bmParticles(comm.Rank(), d)}, d); err != nil {
				return err
			}
		}
		return nil
	}, opsFor)
	if err != nil {
		t.Fatal(err)
	}
	for rank, ep := range writers {
		if n := ep.ExposedBytes(); n != 0 {
			t.Errorf("writer %d still exposes %d bytes after the run", rank, n)
		}
	}
	rec := recorder.Snapshot()
	rep, err := trace.Verify(rec)
	if err != nil {
		t.Fatalf("trace.Verify: %v", err)
	}
	return res, rec, rep
}

// bmSameAsClean fails t unless every (rank, dump) result equals the
// fault-free run's and none is Degraded.
func bmSameAsClean(t *testing.T, clean, got *predata.PipelineResult) {
	t.Helper()
	bmCheck(t, clean, got, false)
}

// bmCheck fails t unless every (rank, dump) result equals the fault-free
// run's or, when degradedOK, is explicitly Degraded.
func bmCheck(t *testing.T, clean, got *predata.PipelineResult, degradedOK bool) {
	t.Helper()
	for rank := range got.StagingResults {
		for dump, r := range got.StagingResults[rank] {
			if r.Degraded && degradedOK {
				continue
			}
			if r.Degraded || !reflect.DeepEqual(r.PerOperator, clean.StagingResults[rank][dump].PerOperator) {
				t.Errorf("rank %d dump %d: Degraded %v or differs from the fault-free run", rank, dump, r.Degraded)
			}
		}
	}
}

// bmHistograms merges the 1-D histograms the staging ranks own at dump.
func bmHistograms(res *predata.PipelineResult, dump int) map[int][]int64 {
	got := map[int][]int64{}
	for rank := range res.StagingResults {
		hs, _ := res.StagingResults[rank][dump].PerOperator["histogram"]["histograms"].(map[int][]int64)
		for c, counts := range hs {
			got[c] = counts
		}
	}
	return got
}

// bmReference bins every row of the given writers at dump directly.
func bmReference(dump int64, writers ...int) map[int][]int64 {
	ref := map[int][]int64{}
	for _, c := range bmCols {
		ref[c] = make([]int64, bmBins)
	}
	for _, w := range writers {
		a := bmParticles(w, dump)
		for row := 0; row < bmRows; row++ {
			for _, c := range bmCols {
				ref[c][bitmap.Bin(a.Float64[row*8+c], bmRanges[c], bmBins)]++
			}
		}
	}
	return ref
}

// TestAdversaryHistogramVerifyOnUse: the adversary soak's corruption legs
// over the histograms, whose chunks are checked in the engine's walk. The
// fault-free run matches a direct binning of every row. Wire corruption
// heals on re-pull: every dump is bit-identical to the fault-free run. A
// source copy that stays corrupt is dropped after the attempt budget: the
// dump is Degraded, its histograms are exactly those of the other writers,
// and the corruption-quarantine rule checks every drop.
func TestAdversaryHistogramVerifyOnUse(t *testing.T) {
	clean, _, _ := bmRun(t, "", 1, bmHistOps(t), nil)
	all := []int{0, 1, 2, 3, 4, 5, 6, 7}
	for dump := 0; dump < bmDumps; dump++ {
		if got, want := bmHistograms(clean, dump), bmReference(int64(dump), all...); !reflect.DeepEqual(got, want) {
			t.Fatalf("dump %d: fault-free histograms differ from the direct binning", dump)
		}
	}
	for _, seed := range []int64{1, 7} {
		t.Run(fmt.Sprintf("wire/seed%d", seed), func(t *testing.T) {
			res, rec, _ := bmRun(t, "corrupt:*:0.15:pull", seed, bmHistOps(t), nil)
			bmSameAsClean(t, clean, res)
			rep := res.Fault
			if rep == nil || rep.Corruptions == 0 || rep.CorruptPulls == 0 {
				t.Fatalf("p=0.15 wire corruption left no CRC failures: %+v", rep)
			}
			if rep.CorruptDrops != 0 || rep.DegradedDumps != 0 {
				t.Errorf("wire corruption must heal transparently: %+v", rep)
			}
			if !hasPhase(rec, trace.PhaseCorruptDetect) {
				t.Error("no CRC detection in the recording")
			}
		})
	}
	t.Run("wire/journal", func(t *testing.T) {
		// With a journal every region is held until its dump commits,
		// checked in the walk or not; the commit's Ack releases it.
		res, _, _ := bmRun(t, "corrupt:*:0.15:pull", 1, bmHistOps(t), func(cfg *predata.PipelineConfig) {
			cfg.WALDir = t.TempDir()
		})
		bmSameAsClean(t, clean, res)
		if rep := res.Fault; rep == nil || rep.CorruptPulls == 0 || rep.CorruptDrops != 0 {
			t.Errorf("want healed CRC failures: %+v", rep)
		}
	})
	t.Run("wire/budget", func(t *testing.T) {
		// Under a 1 MB budget, two chunks' worth, each pull is admitted
		// first, and behind a histogram that takes 5 ms a chunk a rank's
		// third chunk of a dump waits out the patience and spills. A
		// processed chunk is checked in the walk, a spilled one in the walk
		// once it is replayed. The output is the fault-free run's or
		// explicitly Degraded.
		paced := func(dump int) []staging.Operator {
			hs := bmHistOps(t)(dump)
			hs[0] = pacedHist{hs[0].(*ops.HistogramOperator), 5 * time.Millisecond}
			return hs
		}
		res, _, _ := bmRun(t, "corrupt:*:0.15:pull", 1, paced, func(cfg *predata.PipelineConfig) {
			cfg.BufferMB, cfg.PullConcurrency = 1, 4
			cfg.Overload = flowctl.Policy{Patience: time.Millisecond, SpillDir: t.TempDir()}
		})
		bmCheck(t, clean, res, true)
		if rep := res.Fault; rep == nil || rep.CorruptPulls == 0 || rep.CorruptDrops != 0 {
			t.Errorf("want healed CRC failures: %+v", rep)
		}
		if ov := res.Overload; ov == nil || ov.SpilledChunks == 0 || ov.ReplayedChunks != ov.SpilledChunks {
			t.Errorf("want spilled chunks, each replayed: %+v", ov)
		}
	})
	t.Run("source", func(t *testing.T) {
		res, rec, vrep := bmRun(t, "corrupt:0:1:send", 1, bmHistOps(t), nil)
		rep := res.Fault
		if rep == nil || rep.CorruptDrops != bmDumps || rep.CorruptPulls == 0 {
			t.Fatalf("source corruption: want %d corrupt drops (writer 0 every dump): %+v", bmDumps, rep)
		}
		others := all[1:]
		for dump := 0; dump < bmDumps; dump++ {
			degraded := false
			for rank := range res.StagingResults {
				degraded = degraded || res.StagingResults[rank][dump].Degraded
			}
			if !degraded {
				t.Errorf("dump %d lost writer 0 without being marked Degraded", dump)
			}
			if got, want := bmHistograms(res, dump), bmReference(int64(dump), others...); !reflect.DeepEqual(got, want) {
				t.Errorf("dump %d: histograms are not exactly the surviving writers'", dump)
			}
		}
		if !hasPhase(rec, trace.PhaseCorruptDrop) {
			t.Error("no corrupt-drop trace event")
		}
		if vrep.Checks[trace.RuleCorruptQuarantine] == 0 {
			t.Errorf("corrupt drops recorded but quarantine unchecked: %+v", vrep)
		}
	})
}

// TestCorruptLastBlockHealsBitIdentically: wire corruption that lands in a
// chunk's last walk block is found only after the walk has handed every
// block to the histograms. The re-pull must still give exactly the
// fault-free dump — nothing of the damaged walk was emitted — and the run
// must show such a corruption happened.
func TestCorruptLastBlockHealsBitIdentically(t *testing.T) {
	clean, _, _ := bmRun(t, "", 3, bmHistOps(t), nil)
	res, rec, _ := bmRun(t, "corrupt:*:0.3:pull", 3, bmHistOps(t), nil)
	bmSameAsClean(t, clean, res)
	if rep := res.Fault; rep == nil || rep.CorruptPulls == 0 || rep.CorruptDrops != 0 {
		t.Fatalf("want healed CRC failures: %+v", rep)
	}
	var frame int64
	for _, e := range rec.Events {
		if e.Phase == trace.PhasePull && e.Kind == trace.KindSpan {
			frame = e.Arg
			break
		}
	}
	last := 0
	for _, e := range rec.Events {
		if e.Phase == trace.PhaseCorrupt && e.Arg >= frame-bmLastRows*8*8 {
			last++
		}
	}
	if frame == 0 || last == 0 {
		t.Fatalf("no corruption landed in a last block (frames of %d bytes)", frame)
	}
}

// pacedHist is the histogram operator with a modeled Map cost per chunk:
// a consumer slower than the pulls, so a budget fills and chunks spill.
type pacedHist struct {
	*ops.HistogramOperator
	perChunk time.Duration
}

func (p pacedHist) StartMap(ctx *staging.Context, chunk *staging.Chunk) (staging.RowMapper, error) {
	time.Sleep(p.perChunk)
	return p.HistogramOperator.StartMap(ctx, chunk)
}

func (p pacedHist) Map(ctx *staging.Context, chunk *staging.Chunk) error {
	time.Sleep(p.perChunk)
	return p.HistogramOperator.Map(ctx, chunk)
}

// watchedHist is the histogram operator, counting the chunks that reach it
// with their payload still unchecked.
type watchedHist struct {
	*ops.HistogramOperator
	unverified *atomic.Int64
}

func (w watchedHist) note(chunk *staging.Chunk) {
	if chunk.Unverified != nil {
		w.unverified.Add(1)
	}
}

func (w watchedHist) StartMap(ctx *staging.Context, chunk *staging.Chunk) (staging.RowMapper, error) {
	w.note(chunk)
	return w.HistogramOperator.StartMap(ctx, chunk)
}

func (w watchedHist) Map(ctx *staging.Context, chunk *staging.Chunk) error {
	w.note(chunk)
	return w.HistogramOperator.Map(ctx, chunk)
}

// plainOp maps whole chunks (it is no block mapper), counting the ones
// that reach it unchecked.
type plainOp struct{ unverified *atomic.Int64 }

func (plainOp) Name() string                                      { return "plain" }
func (plainOp) Initialize(*staging.Context, map[string]any) error { return nil }
func (plainOp) Finalize(*staging.Context) error                   { return nil }
func (p plainOp) Map(_ *staging.Context, chunk *staging.Chunk) error {
	if chunk.Unverified != nil {
		p.unverified.Add(1)
	}
	return nil
}

// TestCorruptMixedDumpChecksBeforeMap: a dump that mixes a block mapper
// with an operator that is not one checks each payload whole before its
// first Map, so under wire corruption no chunk reaches either operator
// unchecked — not in Map, not in StartMap — and the output is still the
// fault-free run's. The same histogram alone gets every chunk unchecked:
// the engine's walk checks it.
func TestCorruptMixedDumpChecksBeforeMap(t *testing.T) {
	var unverified atomic.Int64
	watched := func(plain bool) predata.OperatorFactory {
		return func(int) []staging.Operator {
			h, err := ops.NewHistogramOperator(ops.HistogramConfig{Var: "p", Columns: bmCols, Bins: bmBins, Ranges: bmRanges})
			if err != nil {
				t.Error(err)
			}
			out := []staging.Operator{watchedHist{h, &unverified}}
			if plain {
				out = append(out, plainOp{&unverified})
			}
			return out
		}
	}
	clean, _, _ := bmRun(t, "", 2, watched(true), nil)
	res, _, _ := bmRun(t, "corrupt:*:0.2:pull", 2, watched(true), nil)
	bmSameAsClean(t, clean, res)
	if rep := res.Fault; rep == nil || rep.CorruptPulls == 0 {
		t.Fatalf("want CRC failures: %+v", rep)
	}
	if n := unverified.Load(); n != 0 {
		t.Fatalf("%d chunks of a mixed dump reached an operator unchecked", n)
	}
	bmRun(t, "", 2, watched(false), nil)
	if n, want := unverified.Load(), int64(bmCompute*bmDumps); n != want {
		t.Errorf("%d chunks of a histogram-only dump reached it unchecked, want all %d", n, want)
	}
}

func hasPhase(rec *trace.Recording, ph trace.Phase) bool {
	for _, e := range rec.Events {
		if e.Phase == ph {
			return true
		}
	}
	return false
}
