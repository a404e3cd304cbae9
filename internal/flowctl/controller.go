package flowctl

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sync"
	"time"

	"predata/internal/trace"
	"predata/internal/wal"
)

// Ladder levels. Under persistent overload a dump escalates monotonically
// through spill and shed to pass-through; only the spill level relaxes
// back to normal (when the budget falls below its low watermark), because
// shedding and pass-through have already degraded the dump's results.
const (
	// LevelNormal admits chunks against the budget, waiting up to the
	// policy's patience for credits.
	LevelNormal = iota
	// LevelSpill admits what fits immediately and defers the rest: the
	// chunk waits in its writer's region and is pulled before Reduce —
	// lossless, slower.
	LevelSpill
	// LevelShed additionally starves optional operators down to sampled
	// input; their results are flagged Degraded.
	LevelShed
	// LevelPass stops processing entirely: chunks bypass the operators
	// and go raw to the parallel file system. Data survives; results for
	// this dump's tail do not.
	LevelPass
)

// LevelName returns the config/report spelling of a ladder level.
func LevelName(level int) string {
	switch level {
	case LevelNormal:
		return "normal"
	case LevelSpill:
		return "spill"
	case LevelShed:
		return "shed"
	case LevelPass:
		return "pass"
	default:
		return fmt.Sprintf("level(%d)", level)
	}
}

// Decision is the fate Admit assigns one incoming chunk.
type Decision int

// Admission decisions.
const (
	// DecideProcess: credits held — pull and stream through the engine.
	DecideProcess Decision = iota
	// DecideSpill: no credits — leave the chunk in its writer's region
	// and pull it after the dump's other chunks (Replay).
	DecideSpill
	// DecidePass: ladder exhausted — pull and write raw to the PFS sink.
	DecidePass
)

// Policy tunes the budget and the ladder. The zero value of every field
// takes a default; BudgetBytes must be positive.
type Policy struct {
	// BudgetBytes is the accountant's capacity — the staging rank's
	// in-memory allowance for in-flight chunk data (the ADIOS
	// <buffer size-MB> hint made binding).
	BudgetBytes int64
	// Patience is how long a normal-level admission waits for credits
	// before the dump escalates to spilling. Default 20ms.
	Patience time.Duration
	// SpillLimitBytes caps the bytes one dump may spill before escalating
	// to shedding. Default 8x BudgetBytes.
	SpillLimitBytes int64
	// ShedSample is the sampling stride while shedding: optional
	// operators see one in ShedSample chunks. Default 8.
	ShedSample int
	// PassLimitBytes caps the spilled bytes before the dump escalates to
	// raw pass-through. Default 4x SpillLimitBytes.
	PassLimitBytes int64
	// SpillDir hosts each dump's retained pass log directory ("" = OS
	// temp dir), the log raw pass-through chunks go to.
	SpillDir string
}

func (p Policy) withDefaults() Policy {
	if p.Patience <= 0 {
		p.Patience = 20 * time.Millisecond
	}
	if p.SpillLimitBytes <= 0 {
		p.SpillLimitBytes = 8 * p.BudgetBytes
	}
	if p.ShedSample < 1 {
		p.ShedSample = 8
	}
	if p.PassLimitBytes <= 0 {
		p.PassLimitBytes = 4 * p.SpillLimitBytes
	}
	return p
}

// OverloadStats counts one dump's throttle/spill/shed/pass decisions —
// the overload analogue of the fault layer's FaultReport counters.
type OverloadStats struct {
	// Throttles and ThrottleWait count admissions that waited for budget
	// credits, and the wall time they spent waiting.
	Throttles    int64
	ThrottleWait time.Duration
	// SpilledChunks/SpilledBytes were deferred: left in their writers'
	// regions when admitted; ReplayedChunks of them were pulled back
	// before Reduce (always all of them unless the dump failed).
	SpilledChunks  int64
	SpilledBytes   int64
	ReplayedChunks int64
	// SampledChunks were shown to optional operators while shedding;
	// ShedChunks were withheld from them.
	SampledChunks int64
	ShedChunks    int64
	// PassedChunks/PassedBytes bypassed the operators entirely, raw to
	// the PFS sink.
	PassedChunks int64
	PassedBytes  int64
	// PeakBytes is the accountant's high-water mark (rank lifetime, not
	// just this dump).
	PeakBytes int64
	// MaxLevel is the highest ladder level the dump reached.
	MaxLevel int
	// Lease utilization for this dump alone: BudgetBytes is the
	// accountant's capacity, HeldPeakBytes the most bytes held against it
	// at any instant during the dump, and HeldMeanBytes the time-weighted
	// mean held over the dump. UtilizationPeak/UtilizationMean restate
	// the held figures as fractions of capacity — the signal the elastic
	// autoscaler's shrink rule reads (an idle pool shows near-zero mean
	// utilization even though the lifetime PeakBytes stays high forever).
	BudgetBytes     int64
	HeldPeakBytes   int64
	HeldMeanBytes   int64
	UtilizationPeak float64
	UtilizationMean float64
}

// OverloadSum folds (rank, dump) OverloadStats rows into one view, the
// same way for a run's report and for the elastic autoscaler's per-dump
// exchange: counters are summed; PeakBytes, HeldPeakBytes,
// UtilizationPeak and MaxLevel are maxima; HeldMeanBytes and
// UtilizationMean are the mean of the rows' time-weighted means. Rows
// counts the rows folded in — a rank without a controller adds none.
// BudgetBytes is left to the caller. The zero value is an empty fold.
type OverloadSum struct {
	OverloadStats
	Rows int

	heldSum int64   // the rows' HeldMeanBytes summed
	utilSum float64 // the rows' UtilizationMean summed
}

// Add folds one row into s; nil is a rank without a controller.
func (s *OverloadSum) Add(o *OverloadStats) {
	if o != nil {
		s.Merge(&OverloadSum{OverloadStats: *o, Rows: 1, heldSum: o.HeldMeanBytes, utilSum: o.UtilizationMean})
	}
}

// Merge folds another sum into s.
func (s *OverloadSum) Merge(o *OverloadSum) {
	s.Throttles += o.Throttles
	s.ThrottleWait += o.ThrottleWait
	s.SpilledChunks += o.SpilledChunks
	s.SpilledBytes += o.SpilledBytes
	s.ReplayedChunks += o.ReplayedChunks
	s.SampledChunks += o.SampledChunks
	s.ShedChunks += o.ShedChunks
	s.PassedChunks += o.PassedChunks
	s.PassedBytes += o.PassedBytes
	s.PeakBytes = max(s.PeakBytes, o.PeakBytes)
	s.HeldPeakBytes = max(s.HeldPeakBytes, o.HeldPeakBytes)
	s.MaxLevel = max(s.MaxLevel, o.MaxLevel)
	s.UtilizationPeak = max(s.UtilizationPeak, o.UtilizationPeak)
	s.Rows += o.Rows
	s.heldSum += o.heldSum
	s.utilSum += o.utilSum
	if s.Rows > 0 {
		s.HeldMeanBytes = s.heldSum / int64(s.Rows)
		s.UtilizationMean = s.utilSum / float64(s.Rows)
	}
}

// Controller owns one staging rank's budget and stamps out per-dump flow
// state. One controller per server; dumps on a rank are served serially.
type Controller struct {
	pol    Policy
	budget *Budget

	// Flight-recorder state, set once via SetTracer before serving.
	tracer  *trace.Recorder
	traceEP int
}

// SetTracer attaches a flight recorder to the controller and its
// budget: lease movements, throttle waits, overload latch transitions,
// and spill/shed/pass/replay decisions all record events stamped with
// the given world rank. Call before the rank starts serving.
func (c *Controller) SetTracer(tr *trace.Recorder, endpoint int) {
	c.tracer = tr
	c.traceEP = endpoint
	c.budget.SetTracer(tr, endpoint)
}

// NewController validates the policy and builds the rank's accountant,
// whose overload latch trips at 90% of BudgetBytes and clears at 50%.
func NewController(pol Policy) (*Controller, error) {
	pol = pol.withDefaults()
	b, err := NewBudget(pol.BudgetBytes, 0.9, 0.5)
	if err != nil {
		return nil, err
	}
	return &Controller{pol: pol, budget: b}, nil
}

// Budget exposes the rank's accountant.
func (c *Controller) Budget() *Budget { return c.budget }

// Policy returns the resolved (defaulted) policy.
func (c *Controller) Policy() Policy { return c.pol }

// StartDump opens per-dump flow state: ladder level, pass log, and
// decision counters.
func (c *Controller) StartDump(timestep int64) *DumpFlow {
	c.budget.ResetWindow()
	return &DumpFlow{
		c:        c,
		timestep: timestep,
		base:     c.budget.Stats(),
		passSlot: make(chan struct{}, 1),
	}
}

// DumpFlow tracks one dump's ladder state on one staging rank.
type DumpFlow struct {
	c        *Controller
	timestep int64
	base     BudgetStats // budget counters at StartDump, for per-dump deltas

	// passSlot serializes overdraft pulls: at most one passing chunk is
	// in memory at a time, bounding the accountant's peak at capacity +
	// one chunk. A channel token (not a mutex) so waiting is ctx-aware.
	passSlot chan struct{}

	mu        sync.Mutex
	level     int
	maxLevel  int
	spilled   int64    // bytes spilled this dump
	shedTick  int64    // sampling counter while shedding
	pass      *wal.Log // chunk records, opened at the first pass
	stats     OverloadStats
	finished  bool
	finalStat OverloadStats
}

// Level returns the current ladder level.
func (df *DumpFlow) Level() int {
	df.mu.Lock()
	defer df.mu.Unlock()
	return df.level
}

// escalateLocked raises the ladder level (never lowers it).
func (df *DumpFlow) escalateLocked(level int) {
	if level > df.level {
		df.level = level
	}
	if df.level > df.maxLevel {
		df.maxLevel = df.level
	}
}

// decideLocked resolves the level the next admission runs at, relaxing
// spill mode back to normal once the budget has drained below its low
// watermark. Shed and pass are sticky for the dump.
func (df *DumpFlow) decideLocked() int {
	if df.level == LevelSpill && !df.c.budget.Overloaded() {
		df.level = LevelNormal
	}
	return df.level
}

// Admission is the outcome of admitting one chunk: a decision plus the
// resources backing it (a budget lease for DecideProcess, a serialized
// overdraft for DecidePass, nothing for DecideSpill). Exactly one of
// Keep, Spill, Pass, or Abort must be called.
type Admission struct {
	df       *DumpFlow
	decision Decision
	lease    *Lease // process: real credits; pass: overdraft
	slot     bool   // holds df.passSlot
	done     bool
}

// Decision returns the admission's fate.
func (a *Admission) Decision() Decision { return a.decision }

// Admit decides the fate of one incoming chunk of n bytes, blocking at
// most the policy's patience (and never past ctx). The returned Admission
// carries the credits or overdraft backing the decision.
func (df *DumpFlow) Admit(ctx context.Context, n int64) (*Admission, error) {
	df.mu.Lock()
	level := df.decideLocked()
	df.mu.Unlock()

	if level == LevelNormal {
		pctx, cancel := context.WithTimeout(ctx, df.c.pol.Patience)
		lease, err := df.c.budget.Acquire(pctx, n)
		cancel()
		if err == nil {
			return &Admission{df: df, decision: DecideProcess, lease: lease}, nil
		}
		if ctx.Err() != nil {
			return nil, fmt.Errorf("flowctl: admission at dump %d: %w", df.timestep, ctx.Err())
		}
		// Patience exhausted: the budget cannot absorb the burst. Climb
		// to spill and fall through to the spill rung for this chunk.
		df.mu.Lock()
		df.escalateLocked(LevelSpill)
		level = df.level
		df.mu.Unlock()
	}

	// Spill/shed levels: admit immediately what fits, defer the rest
	// without waiting; the chunk stays in its writer's region.
	if level < LevelPass {
		if lease, ok := df.c.budget.TryAcquire(n); ok {
			return &Admission{df: df, decision: DecideProcess, lease: lease}, nil
		}
		return &Admission{df: df, decision: DecideSpill}, nil
	}
	// Pass: serialize on the pass slot, then take an overdraft for the
	// transient pull buffer.
	select {
	case df.passSlot <- struct{}{}:
	case <-ctx.Done():
		return nil, fmt.Errorf("flowctl: waiting for pass slot at dump %d: %w", df.timestep, ctx.Err())
	}
	return &Admission{
		df:       df,
		decision: DecidePass,
		lease:    df.c.budget.Overdraft(n),
		slot:     true,
	}, nil
}

// Keep finalizes a DecideProcess admission, returning the release hook to
// attach to the decoded chunk — called by the engine once the last
// operator's Map has seen it.
func (a *Admission) Keep() (release func(), err error) {
	if a.decision != DecideProcess || a.done {
		return nil, errors.New("flowctl: Keep on a non-process or finished admission")
	}
	a.done = true
	return a.lease.Release, nil
}

// finish releases the admission's overdraft and pass slot.
func (a *Admission) finish() {
	a.done = true
	a.lease.Release()
	if a.slot {
		a.slot = false
		<-a.df.passSlot
	}
}

// Abort releases the admission's resources without consuming a chunk —
// the pull failed or the dump is dying. Safe on any decision.
func (a *Admission) Abort() {
	if a.done {
		return
	}
	a.finish()
}

// Spill finalizes a DecideSpill admission of writer's n-byte chunk: it
// counts the chunk, whose pull is deferred to Replay, and escalates the
// ladder when the spill volume crosses the policy's limits.
func (a *Admission) Spill(writer int, timestep int64, n int64) error {
	if a.decision != DecideSpill || a.done {
		return errors.New("flowctl: Spill on a non-spill or finished admission")
	}
	a.done = true
	df := a.df
	df.c.tracer.Instant(trace.PhaseSpill, df.c.traceEP, writer, timestep, 0, n)
	df.mu.Lock()
	defer df.mu.Unlock()
	df.spilled += n
	df.stats.SpilledChunks++
	df.stats.SpilledBytes += n
	if df.spilled > df.c.pol.PassLimitBytes {
		df.escalateLocked(LevelPass)
	} else if df.spilled > df.c.pol.SpillLimitBytes {
		df.escalateLocked(LevelShed)
	}
	return nil
}

// Pass finalizes a DecidePass admission: append the raw payload to the
// retained pass log and release the overdraft.
func (a *Admission) Pass(writer int, timestep int64, payload []byte) error {
	if a.decision != DecidePass || a.done {
		return errors.New("flowctl: Pass on a non-pass or finished admission")
	}
	df := a.df
	l, err := df.passLog()
	if err == nil {
		err = l.AppendChunk(writer, timestep, payload)
	}
	if err == nil {
		df.c.tracer.Instant(trace.PhasePass, df.c.traceEP, writer, timestep, 0, int64(len(payload)))
		df.mu.Lock()
		df.stats.PassedChunks++
		df.stats.PassedBytes += int64(len(payload))
		df.mu.Unlock()
	}
	a.finish()
	return err
}

// passLog returns the dump's pass log, opening it in a fresh directory
// under the policy's SpillDir at the dump's first pass.
func (df *DumpFlow) passLog() (*wal.Log, error) {
	df.mu.Lock()
	defer df.mu.Unlock()
	if df.pass == nil {
		dir, err := os.MkdirTemp(df.c.pol.SpillDir, "predata-pass-*")
		if err != nil {
			return nil, fmt.Errorf("flowctl: %w", err)
		}
		if df.pass, err = wal.Open(dir); err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
	}
	return df.pass, nil
}

// ShedClass reports how the next chunk entering the engine should be
// classed: (false, false) outside shed mode — optional operators see it
// normally; (true, sampled) in shed mode — optional operators see it only
// when sampled is true (one in ShedSample chunks).
func (df *DumpFlow) ShedClass() (shedding, sampled bool) {
	df.mu.Lock()
	defer df.mu.Unlock()
	if df.level < LevelShed {
		return false, false
	}
	df.shedTick++
	sampled = df.shedTick%int64(df.c.pol.ShedSample) == 1 || df.c.pol.ShedSample == 1
	arg := int64(0)
	if sampled {
		df.stats.SampledChunks++
		arg = 1
	} else {
		df.stats.ShedChunks++
	}
	df.c.tracer.Instant(trace.PhaseShed, df.c.traceEP, -1, df.timestep, 0, arg)
	return true, sampled
}

// Replay admits a spilled chunk of n bytes for its deferred pull: it
// waits for real budget credits — the backpressure that makes replay
// drain no faster than the engine — and returns a DecideProcess
// admission over them.
func (df *DumpFlow) Replay(ctx context.Context, writer int, timestep int64, n int64) (*Admission, error) {
	lease, err := df.c.budget.Acquire(ctx, n)
	if err != nil {
		return nil, err
	}
	df.c.tracer.Instant(trace.PhaseReplay, df.c.traceEP, writer, timestep, int64(writer), n)
	df.mu.Lock()
	df.stats.ReplayedChunks++
	df.mu.Unlock()
	return &Admission{df: df, decision: DecideProcess, lease: lease}, nil
}

// PassLogDir returns the directory of the retained pass-through log, a
// wal journal of chunk records ("" if the dump passed nothing).
func (df *DumpFlow) PassLogDir() string {
	df.mu.Lock()
	defer df.mu.Unlock()
	if df.pass == nil {
		return ""
	}
	return df.pass.Dir()
}

// Finish closes the dump's flow state and returns its OverloadStats.
// Idempotent: later calls return the same snapshot. The pass log is
// closed and kept.
func (df *DumpFlow) Finish() OverloadStats {
	df.mu.Lock()
	defer df.mu.Unlock()
	if df.finished {
		return df.finalStat
	}
	df.finished = true
	if df.pass != nil {
		df.pass.Close()
	}
	now := df.c.budget.Stats()
	df.stats.Throttles = now.Throttles - df.base.Throttles
	df.stats.ThrottleWait = now.ThrottleWait - df.base.ThrottleWait
	df.stats.PeakBytes = now.Peak
	df.stats.MaxLevel = df.maxLevel
	win := df.c.budget.Window()
	df.stats.BudgetBytes = now.Capacity
	df.stats.HeldPeakBytes = win.PeakBytes
	df.stats.HeldMeanBytes = win.MeanBytes
	if now.Capacity > 0 {
		df.stats.UtilizationPeak = float64(win.PeakBytes) / float64(now.Capacity)
		df.stats.UtilizationMean = float64(win.MeanBytes) / float64(now.Capacity)
	}
	df.finalStat = df.stats
	return df.finalStat
}
