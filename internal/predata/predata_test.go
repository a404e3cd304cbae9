package predata

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"predata/internal/fabric"
	"predata/internal/ffs"
	"predata/internal/mpi"
	"predata/internal/staging"
)

func TestDefaultRouteProperties(t *testing.T) {
	f := func(nc, ns uint8) bool {
		numCompute := int(nc)%256 + 1
		numStaging := int(ns)%16 + 1
		if numStaging > numCompute {
			numStaging = numCompute
		}
		prev := 0
		counts := make([]int, numStaging)
		for r := 0; r < numCompute; r++ {
			idx := DefaultRoute(r, numCompute, numStaging)
			if idx < 0 || idx >= numStaging {
				return false
			}
			if idx < prev { // monotone non-decreasing: contiguous blocks
				return false
			}
			prev = idx
			counts[idx]++
		}
		// Every staging rank serves at least one compute rank, and the
		// blocks are balanced within one.
		min, max := counts[0], counts[0]
		for _, c := range counts {
			if c < min {
				min = c
			}
			if c > max {
				max = c
			}
		}
		return min >= 1 && max-min <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDefaultRouteDegenerate(t *testing.T) {
	if DefaultRoute(5, 10, 0) != 0 {
		t.Error("zero staging should route to 0")
	}
	if got := DefaultRoute(9, 10, 3); got != 2 {
		t.Errorf("last block route %d", got)
	}
}

func TestNewClientValidation(t *testing.T) {
	fab, _ := fabric.New(fabric.DefaultConfig(2))
	ep, _ := fab.Endpoint(0)
	cases := []ClientConfig{
		{},
		{Endpoint: ep, NumCompute: 0, NumStaging: 1},
		{Endpoint: ep, NumCompute: 1, NumStaging: 0},
		{Endpoint: ep, NumCompute: 2, NumStaging: 1, WriterRank: 5},
	}
	for i, cfg := range cases {
		if _, err := NewClient(cfg); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
}

func TestNewServerValidation(t *testing.T) {
	fab, _ := fabric.New(fabric.DefaultConfig(2))
	ep, _ := fab.Endpoint(0)
	if _, err := NewServer(ServerConfig{}); err == nil {
		t.Error("empty server config accepted")
	}
	err := mpi.Run(1, func(c *mpi.Comm) error {
		if _, err := NewServer(ServerConfig{Endpoint: ep, Comm: c, NumCompute: 0}); err == nil {
			return fmt.Errorf("zero compute accepted")
		}
		s, err := NewServer(ServerConfig{Endpoint: ep, Comm: c, NumCompute: 8})
		if err != nil {
			return err
		}
		if got := s.Served(); len(got) != 8 {
			return fmt.Errorf("served %v", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// minmaxHist is a histogram operator whose binning range comes from the
// aggregated global min/max computed from piggybacked partials — the
// paper's canonical PartialCalculate/Aggregate use case.
type minmaxHist struct {
	bins  int
	mu    sync.Mutex
	total map[int]int64
	lo    float64
	hi    float64
}

func (h *minmaxHist) Name() string { return "minmaxhist" }

func (h *minmaxHist) Initialize(ctx *staging.Context, agg map[string]any) error {
	h.total = make(map[int]int64)
	lo, ok := agg["min"].(float64)
	if !ok {
		return fmt.Errorf("aggregate missing min")
	}
	hi, ok := agg["max"].(float64)
	if !ok {
		return fmt.Errorf("aggregate missing max")
	}
	h.lo, h.hi = lo, hi
	return nil
}

func (h *minmaxHist) Map(ctx *staging.Context, chunk *staging.Chunk) error {
	vals, ok := chunk.Record["values"].([]float64)
	if !ok {
		return fmt.Errorf("chunk missing values")
	}
	span := h.hi - h.lo
	if span <= 0 {
		span = 1
	}
	for _, v := range vals {
		bin := int(float64(h.bins) * (v - h.lo) / span)
		if bin >= h.bins {
			bin = h.bins - 1
		}
		staging.Emit(ctx, bin, int64(1))
	}
	return nil
}

func (h *minmaxHist) Combine(tag int, values []int64) ([]int64, error) {
	var sum int64
	for _, v := range values {
		sum += v
	}
	return []int64{sum}, nil
}

func (h *minmaxHist) Reduce(ctx *staging.Context, tag int, values []int64) error {
	var sum int64
	for _, v := range values {
		sum += v
	}
	h.mu.Lock()
	h.total[tag] += sum
	h.mu.Unlock()
	return nil
}

func (h *minmaxHist) Finalize(ctx *staging.Context) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make(map[int]int64, len(h.total))
	for k, v := range h.total {
		out[k] = v
	}
	ctx.SetResult("bins", out)
	ctx.SetResult("range", [2]float64{h.lo, h.hi})
	return nil
}

// localMinMax is the PartialCalculate hook: local min and max.
func localMinMax(schema *ffs.Schema, rec ffs.Record) (any, error) {
	vals, ok := rec["values"].([]float64)
	if !ok {
		return nil, fmt.Errorf("record missing values")
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range vals {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	return [2]float64{lo, hi}, nil
}

// globalMinMax is the Aggregate hook: global min and max.
func globalMinMax(partials []RankPartial) map[string]any {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, p := range partials {
		mm, ok := p.Partial.([2]float64)
		if !ok {
			continue
		}
		lo = math.Min(lo, mm[0])
		hi = math.Max(hi, mm[1])
	}
	return map[string]any{"min": lo, "max": hi}
}

var testSchema = &ffs.Schema{
	Name:   "gtc_like",
	Fields: []ffs.Field{{Name: "values", Kind: ffs.KindFloat64Slice}},
}

func TestPipelineEndToEnd(t *testing.T) {
	const (
		numCompute = 8
		numStaging = 2
		dumps      = 3
		perRank    = 100
	)
	cfg := PipelineConfig{
		NumCompute:       numCompute,
		NumStaging:       numStaging,
		Dumps:            dumps,
		PartialCalculate: localMinMax,
		Aggregate:        globalMinMax,
		Engine:           staging.Config{Workers: 2},
		PullConcurrency:  2,
	}
	ops := make([][]*minmaxHist, numStaging)
	res, err := RunPipeline(cfg,
		func(comm *mpi.Comm, client *Client) error {
			rng := rand.New(rand.NewSource(int64(comm.Rank())))
			for step := 0; step < dumps; step++ {
				vals := make([]float64, perRank)
				for i := range vals {
					vals[i] = rng.Float64()*10 - 5
				}
				visible, err := client.Write(testSchema, ffs.Record{"values": vals}, int64(step))
				if err != nil {
					return err
				}
				if visible <= 0 {
					return fmt.Errorf("visible time %v", visible)
				}
			}
			return nil
		},
		func(dump int) []staging.Operator {
			op := &minmaxHist{bins: 16}
			// Record per staging rank lazily: the factory runs on the
			// staging rank's goroutine, so index by length.
			return []staging.Operator{op}
		})
	if err != nil {
		t.Fatal(err)
	}
	_ = ops
	// Each dump's bins must sum to numCompute*perRank across staging ranks.
	for dump := 0; dump < dumps; dump++ {
		var total int64
		for rank := 0; rank < numStaging; rank++ {
			r := res.StagingResults[rank][dump]
			bins := r.PerOperator["minmaxhist"]["bins"].(map[int]int64)
			for _, v := range bins {
				total += v
			}
			rg := r.PerOperator["minmaxhist"]["range"].([2]float64)
			if rg[0] < -5 || rg[1] > 5 || rg[0] >= rg[1] {
				t.Errorf("dump %d rank %d range %v", dump, rank, rg)
			}
		}
		if total != numCompute*perRank {
			t.Errorf("dump %d total %d want %d", dump, total, numCompute*perRank)
		}
	}
	// Stats: each staging rank served 4 compute ranks per dump.
	for rank := 0; rank < numStaging; rank++ {
		for dump := 0; dump < dumps; dump++ {
			st := res.StagingStats[rank][dump]
			if st.Requests != numCompute/numStaging {
				t.Errorf("rank %d dump %d requests %d", rank, dump, st.Requests)
			}
			if st.BytesPulled <= 0 || st.PullModeled <= 0 {
				t.Errorf("rank %d dump %d stats %+v", rank, dump, st)
			}
		}
	}
	for rank, v := range res.ClientVisible {
		if v <= 0 {
			t.Errorf("compute rank %d visible time %v", rank, v)
		}
	}
}

func TestPipelineValidation(t *testing.T) {
	if _, err := RunPipeline(PipelineConfig{NumCompute: 0, NumStaging: 1}, nil, nil); err == nil {
		t.Error("zero compute accepted")
	}
	if _, err := RunPipeline(PipelineConfig{NumCompute: 1, NumStaging: 0}, nil, nil); err == nil {
		t.Error("zero staging accepted")
	}
	if _, err := RunPipeline(PipelineConfig{NumCompute: 1, NumStaging: 1, Dumps: -1}, nil, nil); err == nil {
		t.Error("negative dumps accepted")
	}
}

// TestPipelineAbortsOnComputeFailure: a compute rank failing mid-job must
// abort the whole pipeline promptly — staging ranks blocked waiting for
// that rank's fetch request must error out rather than deadlock. This is
// a regression test for a hang where the staging server waited forever in
// RecvCtl after a client error.
func TestPipelineAbortsOnComputeFailure(t *testing.T) {
	cfg := PipelineConfig{NumCompute: 2, NumStaging: 1, Dumps: 1}
	done := make(chan error, 1)
	go func() {
		_, err := RunPipeline(cfg,
			func(comm *mpi.Comm, client *Client) error {
				if comm.Rank() == 1 {
					// Never writes: its fetch request will never arrive.
					return fmt.Errorf("compute rank died before the dump")
				}
				_, err := client.Write(testSchema, ffs.Record{"values": []float64{1}}, 0)
				return err
			},
			func(dump int) []staging.Operator { return []staging.Operator{&countOp{}} })
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("pipeline succeeded despite dead compute rank")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("pipeline deadlocked on compute failure")
	}
}

func TestPipelinePropagatesComputeError(t *testing.T) {
	cfg := PipelineConfig{NumCompute: 2, NumStaging: 1, Dumps: 0}
	_, err := RunPipeline(cfg,
		func(comm *mpi.Comm, client *Client) error {
			if comm.Rank() == 1 {
				return fmt.Errorf("application exploded")
			}
			return nil
		},
		func(dump int) []staging.Operator { return nil })
	if err == nil {
		t.Fatal("compute error not propagated")
	}
}

// TestOutOfOrderDumpArrival: with one staging rank serving two compute
// ranks over two dumps, one compute rank races ahead and writes dump 1
// before the other has written dump 0. The server must buffer the early
// request and still assemble both dumps correctly.
func TestOutOfOrderDumpArrival(t *testing.T) {
	cfg := PipelineConfig{
		NumCompute: 2,
		NumStaging: 1,
		Dumps:      2,
	}
	res, err := RunPipeline(cfg,
		func(comm *mpi.Comm, client *Client) error {
			write := func(step int64, v float64) error {
				_, err := client.Write(testSchema, ffs.Record{"values": []float64{v}}, step)
				return err
			}
			if comm.Rank() == 0 {
				// Race ahead: both dumps immediately.
				if err := write(0, 1); err != nil {
					return err
				}
				if err := write(1, 2); err != nil {
					return err
				}
				return comm.Barrier()
			}
			// Rank 1 waits until rank 0 is done, then writes both.
			if err := comm.Barrier(); err != nil {
				return err
			}
			if err := write(0, 3); err != nil {
				return err
			}
			return write(1, 4)
		},
		func(dump int) []staging.Operator {
			return []staging.Operator{&countOp{}}
		})
	if err != nil {
		t.Fatal(err)
	}
	for dump := 0; dump < 2; dump++ {
		n := res.StagingResults[0][dump].PerOperator["count"]["n"].(int64)
		if n != 2 {
			t.Errorf("dump %d counted %d values, want 2", dump, n)
		}
	}
}

// countOp counts values across chunks.
type countOp struct {
	mu sync.Mutex
	n  int64
}

func (c *countOp) Name() string { return "count" }
func (c *countOp) Initialize(ctx *staging.Context, agg map[string]any) error {
	return nil
}
func (c *countOp) Map(ctx *staging.Context, chunk *staging.Chunk) error {
	vals, _ := chunk.Record["values"].([]float64)
	staging.Emit(ctx, 0, int64(len(vals)))
	return nil
}
func (c *countOp) Reduce(ctx *staging.Context, tag int, values []int64) error {
	for _, v := range values {
		c.mu.Lock()
		c.n += v
		c.mu.Unlock()
	}
	return nil
}
func (c *countOp) Finalize(ctx *staging.Context) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	ctx.SetResult("n", c.n)
	return nil
}

// TestPipelineConservationProperty: random sizes, dumps and staging
// ratios always conserve the number of values.
func TestPipelineConservationProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		numCompute := 1 + rng.Intn(6)
		numStaging := 1 + rng.Intn(numCompute)
		dumps := 1 + rng.Intn(3)
		perRank := rng.Intn(50)
		cfg := PipelineConfig{
			NumCompute: numCompute,
			NumStaging: numStaging,
			Dumps:      dumps,
			Engine:     staging.Config{Workers: 1 + rng.Intn(3)},
		}
		res, err := RunPipeline(cfg,
			func(comm *mpi.Comm, client *Client) error {
				for step := 0; step < dumps; step++ {
					vals := make([]float64, perRank)
					_, err := client.Write(testSchema, ffs.Record{"values": vals}, int64(step))
					if err != nil {
						return err
					}
				}
				return nil
			},
			func(dump int) []staging.Operator { return []staging.Operator{&countOp{}} })
		if err != nil {
			t.Log(err)
			return false
		}
		for dump := 0; dump < dumps; dump++ {
			var total int64
			for rank := 0; rank < numStaging; rank++ {
				n, _ := res.StagingResults[rank][dump].PerOperator["count"]["n"].(int64)
				total += n
			}
			if total != int64(numCompute*perRank) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestPipelineTimeout: a compute rank that never writes leaves the
// staging server waiting; the watchdog must abort the job with a timeout
// error instead of hanging forever.
func TestPipelineTimeout(t *testing.T) {
	cfg := PipelineConfig{
		NumCompute: 1,
		NumStaging: 1,
		Dumps:      1,
		Timeout:    200 * time.Millisecond,
	}
	done := make(chan error, 1)
	go func() {
		_, err := RunPipeline(cfg,
			func(comm *mpi.Comm, client *Client) error {
				// Never write; just return successfully so only the
				// staging side blocks (in RecvCtl, a fabric wait).
				return nil
			},
			func(dump int) []staging.Operator { return nil })
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("pipeline succeeded despite missing dump")
		}
		if !strings.Contains(err.Error(), "timed out") {
			t.Fatalf("error does not mention timeout: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("watchdog never fired")
	}
}

// TestServeDumpTimestepMismatchFailsFast: if every served rank has moved
// on to a later timestep, ServeDump must error instead of waiting forever
// for requests that will never come.
func TestServeDumpTimestepMismatchFailsFast(t *testing.T) {
	cfg := PipelineConfig{NumCompute: 2, NumStaging: 1, Dumps: 1}
	_, err := RunPipeline(cfg,
		func(comm *mpi.Comm, client *Client) error {
			// Both ranks write timestep 5; the server serves timestep 0.
			_, err := client.Write(testSchema, ffs.Record{"values": []float64{1}}, 5)
			return err
		},
		func(dump int) []staging.Operator { return []staging.Operator{&countOp{}} })
	if err == nil {
		t.Fatal("timestep mismatch accepted")
	}
	if !strings.Contains(err.Error(), "timestep") {
		t.Fatalf("error does not mention the mismatch: %v", err)
	}
}

// refuseOp fails every dump in Initialize, once the dump's chunk feed has
// backed up: its terminal stone is blocked handing a chunk to the engine.
// It records how many goroutines feedGoroutines counted then (0 if the
// feed never backed up).
type refuseOp struct {
	countOp
	blockedFeed *atomic.Int64
}

var errRefused = errors.New("operator refused the dump")

func (o *refuseOp) Initialize(*staging.Context, map[string]any) error {
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if feedBlocked() {
			o.blockedFeed.Store(int64(feedGoroutines()))
			break
		}
	}
	return errRefused
}

// goroutineStacks returns the stack of every goroutine, one per element.
func goroutineStacks() []string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return strings.Split(string(buf[:n]), "\n\n")
		}
		buf = make([]byte, 2*len(buf))
	}
}

// feedBlocked reports whether a stone graph's terminal stage is blocked
// sending a chunk to its engine.
func feedBlocked() bool {
	for _, g := range goroutineStacks() {
		if strings.Contains(g, "[chan send") && strings.Contains(g, "predata.(*Server).newStoneGraph.func") {
			return true
		}
	}
	return false
}

// feedGoroutines counts the goroutines running a dump's chunk feed or its
// stone graph's terminal stage.
func feedGoroutines() int {
	n := 0
	for _, g := range goroutineStacks() {
		if strings.Contains(g, "predata.(*Server).feedPulled") || strings.Contains(g, "predata.(*Server).reduceDump.func") ||
			strings.Contains(g, "predata.(*Server).newStoneGraph.func") {
			n++
		}
	}
	return n
}

// TestFailedDumpDrainsItsFeed: a dump whose operator fails Initialize
// returns that error only after its chunk feed has run out. The operator
// fails once the feed is blocked on the chunk channel, so an engine that
// returned without reading the chunks would leave the feed blocked there
// forever, and the server would read the dump's held regions while the
// feed may still append to them (go test -race reports that). While the
// feed is blocked, feedGoroutines must see at least the terminal stage and
// the goroutine that runs the feed, or the leak check below would pass
// without looking at them.
func TestFailedDumpDrainsItsFeed(t *testing.T) {
	before := feedGoroutines()
	var blockedFeed atomic.Int64
	cfg := PipelineConfig{NumCompute: 16, NumStaging: 1, Dumps: 1, PullConcurrency: 1, Timeout: 10 * time.Second}
	_, err := RunPipeline(cfg,
		func(comm *mpi.Comm, client *Client) error {
			_, err := client.Write(testSchema, ffs.Record{"values": make([]float64, 64)}, 0)
			return err
		},
		func(int) []staging.Operator { return []staging.Operator{&refuseOp{blockedFeed: &blockedFeed}} })
	if !errors.Is(err, errRefused) {
		t.Fatalf("pipeline returned %v, want the operator's Initialize error", err)
	}
	live := int(blockedFeed.Load())
	if live == 0 {
		t.Fatal("the feed never blocked on the engine; the test proves nothing")
	}
	if live-before < 2 {
		t.Fatalf("while the feed was blocked, feedGoroutines counted %d goroutines above its baseline, want at least 2 (the terminal stage and the feed's runner); the leak check proves nothing", live-before)
	}
	deadline := time.Now().Add(5 * time.Second)
	for feedGoroutines() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d feed goroutines outlive the failed dump", feedGoroutines()-before)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
