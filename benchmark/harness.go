package main

import (
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"
)

// scale selects the input sizes: "full" is the benchmark, "tiny" exists
// for the harness self-test and finishes in well under a second.
type scale string

const (
	scaleFull scale = "full"
	scaleTiny scale = "tiny"
)

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	why  string
	// setup generates the inputs from seed, computes the naive reference
	// and builds the file system or daemon. scratch is a directory inside
	// the output directory for journals and spill segments.
	setup func(seed int64, sc scale, scratch string) (instance, error)
}

// workloads are run in this order; the names are final.
var workloads = []workload{gtcHist, gtcSort, pixieReorgDurable, serveMixed}

// instance is a set-up workload, ready to repeat.
type instance interface {
	// sizes describes the inputs for the environment record.
	sizes() map[string]any
	// reference reports the payload bytes the naive single-goroutine
	// reference processed during set-up and how long it took.
	reference() (int64, time.Duration)
	// rep runs one repetition and checks its outputs. A non-nil recorder
	// marks the traced repetition.
	rep(sp *spanRecorder) (*repResult, error)
	// walk returns the inputs of the layer walk.
	walk() *walkInput
	close() error
}

// repResult is what one repetition measured.
type repResult struct {
	// payload is the array-data bytes moved; wall the time from the first
	// Client.Write to RunPipeline's return (the writer's wall on
	// serve-mixed); use the process cost over the same interval.
	payload int64
	wall    time.Duration
	use     usage
	// visible holds one duration in seconds per Write/Ingest call,
	// latency one per dump turnaround or first-touch query.
	visible []float64
	latency []float64
	// attempted and failed count operations and oracle checks.
	attempted, failed int64
	// layer holds the ledger rows this repetition can supply.
	layer map[string]float64
}

// usage is the process cost of an interval.
type usage struct {
	cpu        float64 // user+system CPU seconds
	allocBytes float64
	mallocs    float64
	gcCPU      float64 // CPU seconds the runtime attributes to GC
}

type meter struct {
	cpu   float64
	mem   runtime.MemStats
	gcCPU float64
}

func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

func startMeter() *meter {
	m := &meter{}
	runtime.ReadMemStats(&m.mem)
	m.gcCPU = gcCPUSeconds()
	m.cpu = processCPU()
	return m
}

func (m *meter) stop() usage {
	cpu := processCPU()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	return usage{
		cpu:        cpu - m.cpu,
		allocBytes: float64(mem.TotalAlloc - m.mem.TotalAlloc),
		mallocs:    float64(mem.Mallocs - m.mem.Mallocs),
		gcCPU:      gcCPUSeconds() - m.gcCPU,
	}
}

// How a run divides its time. Set-up is repeated so setup_s can be a
// median: at least minSetupRuns times, and — most set-ups take tens of
// milliseconds, which one page-fault storm can double — until
// setupBudget is spent or maxSetupRuns is reached. With tracing on, the
// timed repetitions keep enough of the budget for a median wall to
// compare the traced repetition with, and the layer walk gets the rest.
const (
	minSetupRuns    = 5
	maxSetupRuns    = 25
	setupBudget     = time.Second
	minTimedReps    = 2
	tracedTimedPart = 0.45
	tracedWalkPart  = 0.35
)

type options struct {
	seed    int64
	seconds float64
	trace   bool
	scale   scale
	outDir  string
	env     envRecord
}

// runWorkload measures one workload: set-up (several times), one untimed
// warm-up repetition (the first repetition grows the heap and is never
// timed), timed repetitions until the budget is spent and, with tracing,
// one traced repetition and the layer walk.
func runWorkload(w workload, o options, scratch string) (rec *runRecord, err error) {
	var (
		inst       instance
		setupTimes []float64
		refMBps    []float64
		closeErr   error
	)
	closeInst := func() {
		if inst != nil {
			closeErr = errors.Join(closeErr, inst.close())
			inst = nil
		}
	}
	defer func() {
		closeInst()
		err = errors.Join(err, closeErr)
	}()
	for spent := time.Duration(0); len(setupTimes) < minSetupRuns ||
		(spent < setupBudget && len(setupTimes) < maxSetupRuns); {
		closeInst()
		// Collect the previous instance first, or its garbage is swept
		// somewhere inside the set-up being timed.
		runtime.GC()
		t0 := time.Now()
		inst, err = w.setup(o.seed, o.scale, scratch)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		took := time.Since(t0)
		spent += took
		setupTimes = append(setupTimes, took.Seconds())
		refBytes, refTook := inst.reference()
		refMBps = append(refMBps, ratio(float64(refBytes)/1e6, refTook.Seconds()))
	}

	warmUp, err := inst.rep(nil)
	if err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}

	budget := time.Duration(o.seconds * float64(time.Second))
	timedBudget := budget
	if o.trace {
		timedBudget = time.Duration(float64(budget) * tracedTimedPart)
	}
	var reps []*repResult
	for start := time.Now(); ; {
		r, err := inst.rep(nil)
		if err != nil {
			return nil, err
		}
		reps = append(reps, r)
		// Stop where the next repetition would overshoot the budget by
		// more than it undershoots now.
		if len(reps) >= minTimedReps && time.Since(start)+r.wall/2 >= timedBudget {
			break
		}
	}
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)

	rec = newRunRecord(w, o, inst.sizes())
	rec.summarize(reps, setupTimes)
	rec.countChecks(warmUp)
	rec.setLayer("reference.direct_mbps", median(refMBps))
	rec.setLayer("runtime.peak_heap_mb", float64(mem.HeapSys)/1e6)
	if !o.trace {
		return rec, nil
	}

	sp := newSpanRecorder(w.name)
	sp.setRep(len(reps) + 1)
	traced, err := inst.rep(sp)
	if err != nil {
		return nil, fmt.Errorf("traced repetition: %w", err)
	}
	rec.addTraced(traced, reps)
	walkBudget := time.Duration(float64(budget) * tracedWalkPart)
	rows, err := walkLayers(inst.walk(), walkBudget, scratch, sp)
	if err != nil {
		return nil, fmt.Errorf("%s: layer walk: %w", w.name, err)
	}
	rec.addWalk(rows)
	if err := sp.write(filepath.Join(o.outDir, "trace-"+w.name+".json")); err != nil {
		return nil, err
	}
	return rec, nil
}
