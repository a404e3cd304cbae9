// Package elastic closes the loop between the staging area's overload
// telemetry and its size: an autoscaler that, at dump boundaries,
// decides to grow, shrink, or hold the staging pool from streaks of
// flow-control and fault signals.
//
// PreDatA sizes the staging ground statically, so a burst that outruns
// the provisioned ranks can only spill or shed, and an idle pool wastes
// nodes. The X-ray-science staging workloads that motivate this package
// are bursty by nature — detector frames arrive in irregular bunches
// with order-of-magnitude dump-to-dump variance — which defeats any
// static size. The autoscaler grows the pool when the overload latch
// trips for K consecutive dumps with sustained spill/shed volume, and
// shrinks it when lease utilization sits below a low-water fraction for
// J consecutive dumps, with hysteresis (opposing evidence resets a
// streak), a cooldown after every resize, hard min/max bounds, and a
// max-step so one decision never moves the pool by more than one
// increment.
//
// Determinism is the design invariant that replaces a membership
// protocol: every staging rank feeds the identical merged Telemetry
// into an identical Autoscaler, so all ranks compute the same Decision
// independently — the same shared-derivation idiom the crash-recovery
// path uses with the fault plan.
package elastic

import (
	"fmt"

	"predata/internal/flowctl"
)

// Policy tunes the autoscaler. Zero fields take defaults; Min and Max
// must be set by the caller.
type Policy struct {
	// Min and Max bound the active staging rank count.
	Min, Max int
	// GrowK is the number of consecutive overloaded dumps (latch tripped
	// with nonzero spill/shed/pass volume) required to grow. Default 2.
	GrowK int
	// ShrinkJ is the number of consecutive low-utilization dumps
	// required to shrink. Default 4.
	ShrinkJ int
	// LowUtil is the utilization low-water mark: a dump whose peak lease
	// utilization stays below it counts toward a shrink. Default 0.25.
	LowUtil float64
	// Cooldown is the number of dumps after a resize during which both
	// streaks are frozen at zero, letting the new size show its effect
	// before the next decision. Default 2.
	Cooldown int
	// MaxStep bounds how many ranks one decision may add or remove.
	// Default 1 — the paper-scale handoff cost argues for gradual moves.
	MaxStep int
}

func (p Policy) withDefaults() Policy {
	if p.GrowK <= 0 {
		p.GrowK = 2
	}
	if p.ShrinkJ <= 0 {
		p.ShrinkJ = 4
	}
	if p.LowUtil <= 0 {
		p.LowUtil = 0.25
	}
	if p.Cooldown < 0 {
		p.Cooldown = 0
	} else if p.Cooldown == 0 {
		p.Cooldown = 2
	}
	if p.MaxStep <= 0 {
		p.MaxStep = 1
	}
	return p
}

// Validate checks the policy's bounds.
func (p Policy) Validate() error {
	if p.Min < 1 {
		return fmt.Errorf("elastic: Min %d must be >= 1", p.Min)
	}
	if p.Max < p.Min {
		return fmt.Errorf("elastic: Max %d must be >= Min %d", p.Max, p.Min)
	}
	if !(p.LowUtil >= 0 && p.LowUtil < 1) { // written to also reject NaN
		return fmt.Errorf("elastic: LowUtil %g must be in [0, 1)", p.LowUtil)
	}
	return nil
}

// Telemetry is the merged view of one dump across all active staging
// ranks — the input every rank feeds its scaler after the boundary
// exchange. Merge folds the per-rank rows, each made by FromOverload.
type Telemetry struct {
	Dump int64
	// Faults observed this dump (crashed ranks discovered at the
	// boundary); a faulted dump never counts toward a shrink.
	RanksLost int
	// The ranks' flow-control stats for the dump: overflow volume
	// (spilled, passed, shed), throttles, and lease utilization, whose
	// peak is the highest per-rank peak and whose mean is the mean of the
	// per-rank time-weighted means.
	flowctl.OverloadSum
}

// Overloaded reports whether any rank's ladder escalated past normal
// admission during the dump: its budget patience was exhausted.
func (t *Telemetry) Overloaded() bool { return t.MaxLevel >= flowctl.LevelSpill }

// Merge folds per-rank telemetry rows for one dump into the combined
// view. Rows must all carry the same Dump.
func Merge(rows []Telemetry) Telemetry {
	var out Telemetry
	if len(rows) == 0 {
		return out
	}
	out.Dump = rows[0].Dump
	for i := range rows {
		out.RanksLost += rows[i].RanksLost
		out.Merge(&rows[i].OverloadSum)
	}
	return out
}

// Direction of a Decision.
const (
	Shrink = -1
	Hold   = 0
	Grow   = +1
)

// Decision is one dump boundary's verdict: the target active rank
// count for the next dump and why.
type Decision struct {
	// Target is the active rank count the pool should run at next.
	Target int
	// Direction is Grow, Shrink, or Hold.
	Direction int
	// Reason is a short human-readable explanation for reports.
	Reason string
}

// Autoscaler is the deterministic grow/shrink/hold state machine. It is
// not safe for concurrent use; each rank owns one and feeds it the same
// merged telemetry, so all ranks stay in lockstep without messaging.
type Autoscaler struct {
	pol     Policy
	current int

	growStreak   int
	shrinkStreak int
	cooldown     int // dumps remaining before decisions may fire again

	decisions, grows, shrinks, holds, cooldownHolds int64
}

// New builds an autoscaler starting at the given active count, clamped
// into the policy's bounds.
func New(pol Policy, start int) (*Autoscaler, error) {
	if err := pol.Validate(); err != nil {
		return nil, err
	}
	pol = pol.withDefaults()
	if start < pol.Min {
		start = pol.Min
	}
	if start > pol.Max {
		start = pol.Max
	}
	return &Autoscaler{pol: pol, current: start}, nil
}

// Current returns the active rank count of the latest decision.
func (a *Autoscaler) Current() int { return a.current }

// Policy returns the resolved (defaulted) policy.
func (a *Autoscaler) Policy() Policy { return a.pol }

// growSignal reports whether the dump provides grow evidence: the
// overload latch tripped and the ladder actually overflowed (spill,
// pass, or shed volume) — throttling alone that the budget absorbed is
// not sustained pressure.
func growSignal(t Telemetry) bool {
	return t.Overloaded() && (t.SpilledBytes > 0 || t.PassedBytes > 0 || t.ShedChunks > 0)
}

// shrinkSignal reports whether the dump provides shrink evidence: every
// rank's leases stayed below the low-water utilization, nothing
// overflowed, and no rank was lost (a faulted boundary is already a
// membership change; piling a shrink on top would double-step).
func (a *Autoscaler) shrinkSignal(t Telemetry) bool {
	return !t.Overloaded() &&
		t.SpilledBytes == 0 && t.PassedBytes == 0 && t.ShedChunks == 0 &&
		t.UtilizationPeak < a.pol.LowUtil &&
		t.RanksLost == 0
}

// Observe folds one dump's merged telemetry into the streak counters and
// returns the decision for the next dump. Deterministic: the same
// telemetry sequence always yields the same decisions.
func (a *Autoscaler) Observe(t Telemetry) Decision {
	a.decisions++

	// Hysteresis: evidence for one direction resets the opposite streak,
	// and neutral dumps reset both.
	grow := growSignal(t)
	shrink := a.shrinkSignal(t)
	switch {
	case grow:
		a.growStreak++
		a.shrinkStreak = 0
	case shrink:
		a.shrinkStreak++
		a.growStreak = 0
	default:
		a.growStreak = 0
		a.shrinkStreak = 0
	}

	if a.cooldown > 0 {
		a.cooldown--
		a.cooldownHolds++
		a.holds++
		return Decision{Target: a.current, Direction: Hold,
			Reason: fmt.Sprintf("cooldown (%d dumps remaining)", a.cooldown)}
	}

	if a.growStreak >= a.pol.GrowK && a.current < a.pol.Max {
		step := a.pol.MaxStep
		if a.current+step > a.pol.Max {
			step = a.pol.Max - a.current
		}
		a.current += step
		a.growStreak, a.shrinkStreak = 0, 0
		a.cooldown = a.pol.Cooldown
		a.grows++
		return Decision{Target: a.current, Direction: Grow,
			Reason: fmt.Sprintf("overloaded %d consecutive dumps (%d B spilled, %d B passed, %d shed at dump %d)",
				a.pol.GrowK, t.SpilledBytes, t.PassedBytes, t.ShedChunks, t.Dump)}
	}
	if a.shrinkStreak >= a.pol.ShrinkJ && a.current > a.pol.Min {
		step := a.pol.MaxStep
		if a.current-step < a.pol.Min {
			step = a.current - a.pol.Min
		}
		a.current -= step
		a.growStreak, a.shrinkStreak = 0, 0
		a.cooldown = a.pol.Cooldown
		a.shrinks++
		return Decision{Target: a.current, Direction: Shrink,
			Reason: fmt.Sprintf("utilization peak %.2f below %.2f for %d consecutive dumps",
				t.UtilizationPeak, a.pol.LowUtil, a.pol.ShrinkJ)}
	}
	a.holds++
	return Decision{Target: a.current, Direction: Hold, Reason: "no sustained signal"}
}

// Stats snapshots the scaler's decision counters.
type Stats struct {
	Decisions     int64
	Grows         int64
	Shrinks       int64
	Holds         int64
	CooldownHolds int64
}

// Stats returns the decision counters so far.
func (a *Autoscaler) Stats() Stats {
	return Stats{Decisions: a.decisions, Grows: a.grows, Shrinks: a.shrinks,
		Holds: a.holds, CooldownHolds: a.cooldownHolds}
}

// FromOverload adapts one rank's per-dump flowctl counters into its
// Telemetry row. A nil stats (rank served without a flow controller, or
// sat parked) yields an inert row. ranksLost is the number of staging
// ranks this boundary discovered crashed.
func FromOverload(dump int64, o *flowctl.OverloadStats, ranksLost int) Telemetry {
	t := Telemetry{Dump: dump, RanksLost: ranksLost}
	t.Add(o)
	return t
}
