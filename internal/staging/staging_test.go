package staging

import (
	"errors"
	"fmt"
	"math/rand"

	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"predata/internal/ffs"
	"predata/internal/mpi"
	"predata/internal/trace"
)

// histOp is a toy histogram operator: Map bins a float64 slice field,
// Reduce sums per-bin counts, Finalize stores the histogram.
type histOp struct {
	bins     int
	min, max float64
	mu       sync.Mutex
	final    map[int]int64
	combines int32
	useComb  bool
}

func (h *histOp) Name() string { return "hist" }

func (h *histOp) Initialize(ctx *Context, agg map[string]any) error {
	h.final = make(map[int]int64)
	if v, ok := agg["min"].(float64); ok {
		h.min = v
	}
	if v, ok := agg["max"].(float64); ok {
		h.max = v
	}
	return nil
}

func (h *histOp) Map(ctx *Context, chunk *Chunk) error {
	vals, ok := chunk.Record["values"].([]float64)
	if !ok {
		return fmt.Errorf("chunk has no values field")
	}
	for _, v := range vals {
		bin := int(float64(h.bins) * (v - h.min) / (h.max - h.min))
		if bin >= h.bins {
			bin = h.bins - 1
		}
		if bin < 0 {
			bin = 0
		}
		Emit(ctx, bin, int64(1))
	}
	return nil
}

func (h *histOp) Combine(tag int, values []int64) ([]int64, error) {
	if !h.useComb {
		return values, nil
	}
	atomic.AddInt32(&h.combines, 1)
	var sum int64
	for _, v := range values {
		sum += v
	}
	return []int64{sum}, nil
}

func (h *histOp) Reduce(ctx *Context, tag int, values []int64) error {
	var sum int64
	for _, v := range values {
		sum += v
	}
	h.mu.Lock()
	h.final[tag] = sum
	h.mu.Unlock()
	return nil
}

func (h *histOp) Finalize(ctx *Context) error {
	h.mu.Lock()
	local := make(map[int]int64, len(h.final))
	for k, v := range h.final {
		local[k] = v
	}
	h.mu.Unlock()
	ctx.SetResult("bins", local)
	return nil
}

func makeChunk(rank int, values []float64) *Chunk {
	return &Chunk{
		WriterRank: rank,
		Timestep:   1,
		Schema:     &ffs.Schema{Name: "test"},
		Record:     ffs.Record{"values": values},
	}
}

func feed(chunks []*Chunk) <-chan *Chunk {
	ch := make(chan *Chunk, len(chunks))
	for _, c := range chunks {
		ch <- c
	}
	close(ch)
	return ch
}

func TestEngineHistogramSingleRank(t *testing.T) {
	err := mpi.Run(1, func(c *mpi.Comm) error {
		op := &histOp{bins: 4, min: 0, max: 4}
		eng := NewEngine(Config{Workers: 1})
		chunks := []*Chunk{
			makeChunk(0, []float64{0.5, 1.5, 2.5, 3.5}),
			makeChunk(1, []float64{0.5, 0.7}),
		}
		res, err := eng.ProcessDump(c, feed(chunks), []Operator{op}, nil)
		if err != nil {
			return err
		}
		if res.Chunks != 2 {
			return fmt.Errorf("chunks %d", res.Chunks)
		}
		bins := res.PerOperator["hist"]["bins"].(map[int]int64)
		want := map[int]int64{0: 3, 1: 1, 2: 1, 3: 1}
		for k, v := range want {
			if bins[k] != v {
				return fmt.Errorf("bin %d = %d want %d (%v)", k, bins[k], v, bins)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestEngineHistogramMultiRankPartitioned(t *testing.T) {
	const ranks = 4
	// Global totals assembled from all ranks' reduce outputs.
	var mu sync.Mutex
	global := make(map[int]int64)
	err := mpi.Run(ranks, func(c *mpi.Comm) error {
		op := &histOp{bins: 8, min: 0, max: 8}
		eng := NewEngine(Config{Workers: 2})
		// Each rank feeds chunks with values equal to its rank and
		// rank+4, one per chunk.
		chunks := []*Chunk{
			makeChunk(c.Rank(), []float64{float64(c.Rank()) + 0.5}),
			makeChunk(c.Rank(), []float64{float64(c.Rank()) + 4.5}),
		}
		res, err := eng.ProcessDump(c, feed(chunks), []Operator{op}, nil)
		if err != nil {
			return err
		}
		bins := res.PerOperator["hist"]["bins"].(map[int]int64)
		// The shuffle routes tag t to rank t%4: this rank must
		// only own tags congruent to its rank.
		for tag := range bins {
			if tag%ranks != c.Rank() {
				return fmt.Errorf("rank %d owns tag %d", c.Rank(), tag)
			}
		}
		mu.Lock()
		for k, v := range bins {
			global[k] += v
		}
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for bin := 0; bin < 8; bin++ {
		if global[bin] != 1 {
			t.Errorf("bin %d = %d want 1 (%v)", bin, global[bin], global)
		}
	}
}

func TestCombinerReducesShuffleVolume(t *testing.T) {
	err := mpi.Run(2, func(c *mpi.Comm) error {
		op := &histOp{bins: 2, min: 0, max: 2, useComb: true}
		eng := NewEngine(Config{Workers: 1})
		var chunks []*Chunk
		for i := 0; i < 10; i++ {
			chunks = append(chunks, makeChunk(c.Rank(), []float64{0.5, 1.5}))
		}
		res, err := eng.ProcessDump(c, feed(chunks), []Operator{op}, nil)
		if err != nil {
			return err
		}
		bins := res.PerOperator["hist"]["bins"].(map[int]int64)
		// Tag 0 on rank 0, tag 1 on rank 1; each bin saw 10 values from
		// each of 2 ranks.
		if v, ok := bins[c.Rank()]; ok && v != 20 {
			return fmt.Errorf("rank %d bin count %d", c.Rank(), v)
		}
		if atomic.LoadInt32(&op.combines) == 0 {
			return errors.New("combiner never invoked")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestInitializeReceivesAggregates(t *testing.T) {
	err := mpi.Run(1, func(c *mpi.Comm) error {
		op := &histOp{bins: 2, min: 99, max: 100} // overwritten by agg
		eng := NewEngine(Config{})
		agg := map[string]any{"min": 0.0, "max": 2.0}
		chunks := []*Chunk{makeChunk(0, []float64{0.5, 1.5})}
		res, err := eng.ProcessDump(c, feed(chunks), []Operator{op}, agg)
		if err != nil {
			return err
		}
		bins := res.PerOperator["hist"]["bins"].(map[int]int64)
		if bins[0] != 1 || bins[1] != 1 {
			return fmt.Errorf("agg not applied: %v", bins)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// failOp fails in a chosen phase.
type failOp struct{ phase string }

func (f *failOp) Name() string { return "fail" }
func (f *failOp) Initialize(ctx *Context, agg map[string]any) error {
	if f.phase == "init" {
		return errors.New("init boom")
	}
	return nil
}
func (f *failOp) Map(ctx *Context, chunk *Chunk) error {
	if f.phase == "map" {
		return errors.New("map boom")
	}
	Emit(ctx, 0, 1)
	return nil
}
func (f *failOp) Reduce(ctx *Context, tag int, values []int) error {
	if f.phase == "reduce" {
		return errors.New("reduce boom")
	}
	return nil
}
func (f *failOp) Finalize(ctx *Context) error {
	if f.phase == "finalize" {
		return errors.New("finalize boom")
	}
	return nil
}

func TestPhaseErrorsPropagate(t *testing.T) {
	for _, phase := range []string{"init", "map", "finalize"} {
		phase := phase
		t.Run(phase, func(t *testing.T) {
			err := mpi.Run(2, func(c *mpi.Comm) error {
				eng := NewEngine(Config{})
				_, err := eng.ProcessDump(c, feed([]*Chunk{makeChunk(0, nil)}),
					[]Operator{&failOp{phase: phase}}, nil)
				if err == nil {
					return fmt.Errorf("phase %s error not propagated", phase)
				}
				if !strings.Contains(err.Error(), "boom") {
					return fmt.Errorf("unexpected error %v", err)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestReduceErrorPropagates(t *testing.T) {
	// Reduce only fails on the rank owning tag 0; other ranks complete.
	err := mpi.Run(2, func(c *mpi.Comm) error {
		eng := NewEngine(Config{})
		_, err := eng.ProcessDump(c, feed([]*Chunk{makeChunk(0, nil)}),
			[]Operator{&failOp{phase: "reduce"}}, nil)
		if c.Rank() == 0 {
			if err == nil || !strings.Contains(err.Error(), "boom") {
				return fmt.Errorf("rank 0: err = %v", err)
			}
		} else if err != nil {
			return fmt.Errorf("rank 1: unexpected err %v", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// runWithin is mpi.Run over n ranks, failing t when the ranks have not
// all returned within d: a rank left waiting in a collective.
func runWithin(t *testing.T, d time.Duration, n int, fn func(c *mpi.Comm) error) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- mpi.Run(n, fn) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(d):
		t.Fatalf("the ranks had not all returned after %v", d)
	}
}

// rank0Fail is failOp failing on rank 0 only, verifying in Reduce.
type rank0Fail struct{ failOp }

func (*rank0Fail) VerifiesInReduce() {}

func (o *rank0Fail) Map(ctx *Context, chunk *Chunk) error {
	if ctx.Rank() == 0 {
		return o.failOp.Map(ctx, chunk)
	}
	Emit(ctx, 0, 1)
	return nil
}

// TestMapErrorInVerifyingDumpFailsEveryRank: in a dump whose checks wait
// for Reduce, the rank whose Map failed still joins the verify step,
// reporting its failure there, so its peer learns of it and fails instead
// of waiting for it.
func TestMapErrorInVerifyingDumpFailsEveryRank(t *testing.T) {
	runWithin(t, 2*time.Second, 2, func(c *mpi.Comm) error {
		_, err := NewEngine(Config{}).ProcessDump(c, feed([]*Chunk{makeChunk(c.Rank(), nil)}),
			[]Operator{&rank0Fail{failOp{phase: "map"}}}, nil)
		switch {
		case err == nil:
			return fmt.Errorf("rank %d: no error", c.Rank())
		case c.Rank() == 0 && !strings.Contains(err.Error(), "map boom"):
			return fmt.Errorf("rank 0: err = %v", err)
		}
		return nil
	})
}

// TestReduceErrorBeforeLaterOperatorFailsAlone: a Reduce error on rank 0
// in the first of two operators fails rank 0 only; it still joins the
// second operator's shuffle, so rank 1 finishes the dump.
func TestReduceErrorBeforeLaterOperatorFailsAlone(t *testing.T) {
	runWithin(t, 2*time.Second, 2, func(c *mpi.Comm) error {
		hist := &histOp{bins: 2, min: 0, max: 2}
		_, err := NewEngine(Config{}).ProcessDump(c, feed([]*Chunk{makeChunk(c.Rank(), []float64{0.5, 1.5})}),
			[]Operator{&failOp{phase: "reduce"}, hist}, nil)
		switch {
		case c.Rank() == 0 && (err == nil || !strings.Contains(err.Error(), "reduce boom")):
			return fmt.Errorf("rank 0: err = %v", err)
		case c.Rank() == 1 && err != nil:
			return fmt.Errorf("rank 1: unexpected err %v", err)
		}
		return nil
	})
}

// hookFail fails in one hook when armed, and emits a value to every
// rank's tag, so that every rank reduces.
type hookFail struct {
	hook  string
	armed bool
}

func (f *hookFail) Name() string { return "hookfail" }
func (f *hookFail) fail(hook string) error {
	if f.armed && f.hook == hook {
		return fmt.Errorf("%s boom", hook)
	}
	return nil
}
func (f *hookFail) Initialize(*Context, map[string]any) error { return f.fail("init") }
func (f *hookFail) Map(ctx *Context, chunk *Chunk) error {
	for tag := range ctx.Ranks() {
		Emit(ctx, tag, 1)
	}
	return f.fail("map")
}
func (f *hookFail) Combine(tag int, values []int) ([]int, error) { return values, f.fail("combine") }
func (f *hookFail) Reduce(*Context, int, []int) error            { return f.fail("reduce") }
func (f *hookFail) Finalize(*Context) error                      { return f.fail("finalize") }

// verifyingHookFail is hookFail verifying in Reduce.
type verifyingHookFail struct{ hookFail }

func (*verifyingHookFail) VerifiesInReduce() {}

// TestFailedHookKeepsRanksJoined sweeps a failure through every operator
// hook, on the first and on the last of 3 ranks, with the failing
// operator alone, ahead of another, and verifying in Reduce: every rank
// returns within 2 s (the failing one still joins every collective), the
// failing rank returns its error, its peers return nil or, when the
// failure reaches the verify step, the peer error, and the
// communicator's next dump succeeds.
func TestFailedHookKeepsRanksJoined(t *testing.T) {
	layouts := []struct {
		name string
		ops  func(f hookFail) []Operator
	}{
		{"alone", func(f hookFail) []Operator { return []Operator{&f} }},
		{"ahead", func(f hookFail) []Operator { return []Operator{&f, &histOp{bins: 2, min: 0, max: 2}} }},
		{"verifying", func(f hookFail) []Operator { return []Operator{&verifyingHookFail{f}} }},
	}
	for _, hook := range []string{"init", "map", "combine", "reduce", "finalize"} {
		for _, bad := range []int{0, 2} {
			for _, layout := range layouts {
				t.Run(fmt.Sprintf("%s/rank%d/%s", hook, bad, layout.name), func(t *testing.T) {
					runWithin(t, 2*time.Second, 3, func(c *mpi.Comm) error {
						chunks := func() <-chan *Chunk { return feed([]*Chunk{makeChunk(c.Rank(), []float64{0.5, 1.5})}) }
						ops := layout.ops(hookFail{hook: hook, armed: c.Rank() == bad})
						_, err := NewEngine(Config{}).ProcessDump(c, chunks(), ops, nil)
						switch {
						case c.Rank() == bad:
							if err == nil || !strings.Contains(err.Error(), hook+" boom") {
								return fmt.Errorf("failing rank %d: err = %v", bad, err)
							}
						case layout.name == "verifying" && hook != "finalize":
							if err == nil || !strings.Contains(err.Error(), "another rank failed") {
								return fmt.Errorf("rank %d: err = %v, want the peer error", c.Rank(), err)
							}
						case err != nil:
							return fmt.Errorf("rank %d: unexpected err %v", c.Rank(), err)
						}
						if _, err := NewEngine(Config{}).ProcessDump(c, chunks(), []Operator{&histOp{bins: 2, min: 0, max: 2}}, nil); err != nil {
							return fmt.Errorf("rank %d: the next dump failed: %w", c.Rank(), err)
						}
						return nil
					})
				})
			}
		}
	}
}

// initOnceFail is verifyingHookFail whose Initialize fails once at most.
type initOnceFail struct{ verifyingHookFail }

func (f *initOnceFail) Initialize(ctx *Context, agg map[string]any) error {
	err := f.hookFail.Initialize(ctx, agg)
	f.armed = false
	return err
}

// TestInitializeFailureOutlastsRedo: rank 0's Initialize fails in the first
// pass of a dump verifying in Reduce, and rank 1's chunk fails its check,
// so both ranks redo the pass. Rank 0 released its chunk unmapped, so it
// must fail the redo too, though its Initialize succeeds there.
func TestInitializeFailureOutlastsRedo(t *testing.T) {
	runWithin(t, 2*time.Second, 2, func(c *mpi.Comm) error {
		chunk := makeChunk(c.Rank(), []float64{0.5})
		if c.Rank() == 1 {
			chunk.Unverified, chunk.Sum = []byte{1}, 0 // the sum of {1} is not 0
			chunk.Corrupt = func() (*Chunk, error) { return makeChunk(1, []float64{0.5}), nil }
		}
		op := &initOnceFail{verifyingHookFail{hookFail{hook: "init", armed: c.Rank() == 0}}}
		_, err := NewEngine(Config{}).ProcessDump(c, feed([]*Chunk{chunk}), []Operator{op}, nil)
		if c.Rank() == 0 && (err == nil || !strings.Contains(err.Error(), "init boom")) {
			return fmt.Errorf("rank 0: err = %v, want its Initialize error", err)
		}
		return nil
	})
}

func TestMultipleOperatorsShareStream(t *testing.T) {
	err := mpi.Run(2, func(c *mpi.Comm) error {
		opA := &histOp{bins: 2, min: 0, max: 2}
		opB := &histOp{bins: 2, min: 0, max: 2}
		// Distinct names so results do not collide.
		eng := NewEngine(Config{Workers: 3})
		chunks := []*Chunk{
			makeChunk(c.Rank(), []float64{0.5}),
			makeChunk(c.Rank(), []float64{1.5}),
		}
		res, err := eng.ProcessDump(c, feed(chunks), []Operator{opA, &namedComb{opB, "hist2"}}, nil)
		if err != nil {
			return err
		}
		if len(res.PerOperator) != 2 {
			return fmt.Errorf("results for %d operators", len(res.PerOperator))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestDuplicateOperatorNameRejected: results are keyed by operator name,
// so a second operator of the same name would overwrite the first's.
// Every rank rejects the list before Initialize, so none is left waiting
// in a collective.
func TestDuplicateOperatorNameRejected(t *testing.T) {
	err := mpi.Run(2, func(c *mpi.Comm) error {
		opA := &histOp{bins: 2, min: 0, max: 2}
		opB := &histOp{bins: 2, min: 0, max: 2}
		eng := NewEngine(Config{})
		_, err := eng.ProcessDump(c, feed([]*Chunk{makeChunk(c.Rank(), []float64{0.5})}),
			[]Operator{opA, opB}, nil)
		if err == nil || !strings.Contains(err.Error(), `"hist" given twice`) {
			return fmt.Errorf("rank %d: err = %v, want the repeated name rejected", c.Rank(), err)
		}
		if opA.final != nil || opB.final != nil {
			return fmt.Errorf("rank %d: an operator was initialized", c.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDecodeChunk(t *testing.T) {
	schema := &ffs.Schema{Name: "g", Fields: []ffs.Field{
		{Name: "_rank", Kind: ffs.KindInt64},
		{Name: "_timestep", Kind: ffs.KindInt64},
		{Name: "x", Kind: ffs.KindFloat64},
	}}
	buf, err := ffs.Encode(schema, ffs.Record{"_rank": int64(7), "_timestep": int64(3), "x": 1.5})
	if err != nil {
		t.Fatal(err)
	}
	c, err := DecodeChunk(buf)
	if err != nil {
		t.Fatal(err)
	}
	if c.WriterRank != 7 || c.Timestep != 3 || c.Record["x"] != 1.5 {
		t.Fatalf("chunk %+v", c)
	}
	// Missing reserved fields.
	schema2 := &ffs.Schema{Name: "g", Fields: []ffs.Field{{Name: "x", Kind: ffs.KindFloat64}}}
	buf2, _ := ffs.Encode(schema2, ffs.Record{"x": 1.0})
	if _, err := DecodeChunk(buf2); err == nil {
		t.Error("chunk without reserved fields accepted")
	}
	if _, err := DecodeChunk([]byte{1, 2}); err == nil {
		t.Error("garbage chunk accepted")
	}
}

func TestOperatorBreakdownAttributed(t *testing.T) {
	err := mpi.Run(2, func(c *mpi.Comm) error {
		opA := &histOp{bins: 4, min: 0, max: 4}
		opB := &namedComb{&histOp{bins: 4, min: 0, max: 4}, "histB"}
		eng := NewEngine(Config{Workers: 2})
		chunks := []*Chunk{
			makeChunk(c.Rank(), []float64{0.5, 1.5, 2.5}),
			makeChunk(c.Rank(), []float64{3.5}),
		}
		res, err := eng.ProcessDump(c, feed(chunks), []Operator{opA, opB}, nil)
		if err != nil {
			return err
		}
		if len(res.OperatorBreakdown) != 2 {
			return fmt.Errorf("breakdown for %d operators", len(res.OperatorBreakdown))
		}
		for _, name := range []string{"hist", "histB"} {
			bd, ok := res.OperatorBreakdown[name]
			if !ok {
				return fmt.Errorf("no breakdown for %s", name)
			}
			// Every operator mapped both chunks.
			if bd.Get("map") <= 0 {
				return fmt.Errorf("%s map time %v", name, bd.Get("map"))
			}
			// Shuffle time is attributed per operator too.
			if bd.Get("shuffle") <= 0 {
				return fmt.Errorf("%s shuffle time %v", name, bd.Get("shuffle"))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBreakdownPopulated(t *testing.T) {
	err := mpi.Run(1, func(c *mpi.Comm) error {
		op := &histOp{bins: 2, min: 0, max: 2}
		eng := NewEngine(Config{})
		res, err := eng.ProcessDump(c, feed([]*Chunk{makeChunk(0, []float64{0.5})}), []Operator{op}, nil)
		if err != nil {
			return err
		}
		names := res.Breakdown.Names()
		want := []string{"initialize", "map", "combine", "shuffle", "reduce", "finalize"}
		if len(names) != len(want) {
			return fmt.Errorf("breakdown buckets %v", names)
		}
		for i := range want {
			if names[i] != want[i] {
				return fmt.Errorf("bucket %d = %s want %s", i, names[i], want[i])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestHistogramConservationProperty: total count across all bins on all
// ranks equals total values fed, for random inputs and rank counts.
func TestHistogramConservationProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ranks := 1 + rng.Intn(4)
		perRank := 1 + rng.Intn(5)
		valsPerChunk := rng.Intn(20)
		var total int64
		var mu sync.Mutex
		err := mpi.Run(ranks, func(c *mpi.Comm) error {
			op := &histOp{bins: 8, min: 0, max: 1}
			eng := NewEngine(Config{Workers: 1 + c.Rank()%3})
			var chunks []*Chunk
			localRng := rand.New(rand.NewSource(seed + int64(c.Rank())))
			for i := 0; i < perRank; i++ {
				vals := make([]float64, valsPerChunk)
				for j := range vals {
					vals[j] = localRng.Float64()
				}
				chunks = append(chunks, makeChunk(c.Rank(), vals))
			}
			res, err := eng.ProcessDump(c, feed(chunks), []Operator{op}, nil)
			if err != nil {
				return err
			}
			bins := res.PerOperator["hist"]["bins"].(map[int]int64)
			mu.Lock()
			for _, v := range bins {
				total += v
			}
			mu.Unlock()
			return nil
		})
		if err != nil {
			t.Log(err)
			return false
		}
		return total == int64(ranks*perRank*valsPerChunk)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEngineMapShuffleReduce(b *testing.B) {
	vals := make([]float64, 10000)
	for i := range vals {
		vals[i] = rand.Float64()
	}
	b.ReportAllocs()
	b.SetBytes(4 * 2 * int64(len(vals)) * 8) // four ranks map two chunks each
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := mpi.Run(4, func(c *mpi.Comm) error {
			op := &histOp{bins: 64, min: 0, max: 1, useComb: true}
			eng := NewEngine(Config{Workers: 2})
			chunks := []*Chunk{makeChunk(c.Rank(), vals), makeChunk(c.Rank(), vals)}
			_, err := eng.ProcessDump(c, feed(chunks), []Operator{op}, nil)
			return err
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// namedComb renames a histOp, keeping its Reducer and Combiner promoted.
type namedComb struct {
	*histOp
	name string
}

func (n *namedComb) Name() string { return n.name }

// TestOperatorEmittedCountsShuffleVolume: each operator's Combine span
// records the values it emitted locally after Combine — its shuffle
// volume.
func TestOperatorEmittedCountsShuffleVolume(t *testing.T) {
	rec := trace.New(trace.Config{NumCompute: 2, NumStaging: 1, Dumps: 1})
	err := mpi.Run(1, func(c *mpi.Comm) error {
		plain := &histOp{bins: 4, min: 0, max: 4}
		combined := &namedComb{&histOp{bins: 4, min: 0, max: 4, useComb: true}, "histC"}
		eng := NewEngine(Config{})
		eng.SetTracer(rec, 2)
		chunks := []*Chunk{
			makeChunk(0, []float64{0.5, 1.5, 2.5}),
			makeChunk(1, []float64{0.5, 1.5, 2.5}),
		}
		_, err := eng.ProcessDump(c, feed(chunks), []Operator{plain, combined}, nil)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	emitted := map[int64]int64{}
	for _, e := range rec.Snapshot().Events {
		if e.Phase == trace.PhaseCombine {
			emitted[e.Seq] = e.Arg
		}
	}
	// Without a combiner: one emit per value = 6; with: one per tag = 3.
	if len(emitted) != 2 || emitted[0] != 6 || emitted[1] != 3 {
		t.Errorf("Combine spans record %v emitted by operator, want 0:6 1:3", emitted)
	}
}

// TestChunkInstantReadBeforeRelease: a chunk's PhaseChunk instant names
// the writer and timestep the chunk had before its Release, which hands
// the chunk back for reuse (here: overwrites its fields).
func TestChunkInstantReadBeforeRelease(t *testing.T) {
	rec := trace.New(trace.Config{NumCompute: 2, NumStaging: 1, Dumps: 2})
	err := mpi.Run(1, func(c *mpi.Comm) error {
		eng := NewEngine(Config{Workers: 1})
		eng.SetTracer(rec, 2)
		chunk := makeChunk(1, []float64{0.5})
		chunk.Release = func() { chunk.WriterRank, chunk.Timestep = 99, -7 }
		_, err := eng.ProcessDump(c, feed([]*Chunk{chunk}), []Operator{&histOp{bins: 2, min: 0, max: 2}}, nil)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	var got []trace.Event
	for _, e := range rec.Snapshot().Events {
		if e.Phase == trace.PhaseChunk {
			got = append(got, e)
		}
	}
	if len(got) != 1 || got[0].Endpoint != 1 || got[0].Seq != 1 || got[0].Dump != 1 {
		t.Fatalf("PhaseChunk instants %+v, want one for writer 1 at timestep 1", got)
	}
}
