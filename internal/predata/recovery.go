package predata

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"time"

	"predata/internal/elastic"
	"predata/internal/faults"
	"predata/internal/staging"
)

// RetryPolicy bounds how the compute and staging runtimes react to
// transient fabric faults: capped exponential backoff between attempts,
// and a per-dump deadline on the staging side so a dump that cannot
// complete fails fast instead of wedging the collective staging area.
type RetryPolicy struct {
	// MaxAttempts is the attempt budget for one operation (send or pull).
	MaxAttempts int
	// BaseDelay is the backoff before the first retry; it doubles per
	// retry up to MaxDelay, with +-50% jitter to decorrelate retry storms.
	BaseDelay time.Duration
	MaxDelay  time.Duration
	// DumpDeadline caps the wall time one ServeDump may spend gathering
	// fetch requests (including transient-retry loops).
	DumpDeadline time.Duration
}

// DefaultRetryPolicy returns the policy used when a field is zero.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{
		MaxAttempts:  8,
		BaseDelay:    200 * time.Microsecond,
		MaxDelay:     10 * time.Millisecond,
		DumpDeadline: 30 * time.Second,
	}
}

// withDefaults fills zero fields from DefaultRetryPolicy.
func (p RetryPolicy) withDefaults() RetryPolicy {
	d := DefaultRetryPolicy()
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = d.MaxAttempts
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = d.BaseDelay
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = d.MaxDelay
	}
	if p.DumpDeadline <= 0 {
		p.DumpDeadline = d.DumpDeadline
	}
	return p
}

// backoff returns the sleep before retry number retry (0-based): doubling
// from BaseDelay, capped at MaxDelay, jittered into [0.5, 1.5)x. Jitter
// deliberately uses the global generator — it has no effect on *which*
// faults fire, so reproducibility does not depend on it.
func (p RetryPolicy) backoff(retry int) time.Duration {
	return p.backoffAt(retry, rand.Float64())
}

// backoffAt is backoff with the jitter sample u (in [0,1)) made explicit,
// so tests can drive the schedule from a seeded source.
func (p RetryPolicy) backoffAt(retry int, u float64) time.Duration {
	d := p.BaseDelay
	for i := 0; i < retry && d < p.MaxDelay; i++ {
		d *= 2
	}
	if d > p.MaxDelay {
		d = p.MaxDelay
	}
	return time.Duration(float64(d) * (0.5 + u))
}

// liveStagingAt returns the staging indices whose endpoints the plan has
// not crashed by dump, in ascending order. With a nil injector every
// index is live.
func liveStagingAt(inj *faults.Injector, stagingBase, numStaging int, dump int64) []int {
	live := make([]int, 0, numStaging)
	for i := 0; i < numStaging; i++ {
		if !inj.DownAt(stagingBase+i, dump) {
			live = append(live, i)
		}
	}
	return live
}

// stagingReach counts the live staging ranks (itself included) that
// live staging index i can reach at dump — the dump-aligned probe.
func stagingReach(inj *faults.Injector, stagingBase int, live []int, i int, dump int64) int {
	reach := 0
	for _, j := range live {
		if j == i || !inj.Unreachable(stagingBase+i, stagingBase+j, dump) {
			reach++
		}
	}
	return reach
}

// stagingQuorumAt reports whether live staging index i reaches a strict
// majority of the live staging set at dump. A rank partitioned away
// from the majority is *fenced* for the window: it is alive but must
// not serve, or the two sides of the cut would run split-brain dumps
// against the same membership epoch.
func stagingQuorumAt(inj *faults.Injector, stagingBase int, live []int, i int, dump int64) bool {
	return stagingReach(inj, stagingBase, live, i, dump)*2 > len(live)
}

// activeStagingAt returns the members of live — a dump's uncrashed
// staging indices — that the plan lets serve it: live minus ranks a
// partition fences away from the staging-side quorum, minus ranks
// sitting out a restart window (down for the bounce but still live
// membership — they rejoin with their journal). With no partitions or
// restarts in the plan it is live itself, so crash-only schedules keep
// their behavior.
func activeStagingAt(inj *faults.Injector, stagingBase int, live []int, dump int64) []int {
	if inj == nil || (len(inj.Plan().Partitions) == 0 && len(inj.Plan().Restarts) == 0) {
		return live
	}
	hasPartitions := len(inj.Plan().Partitions) > 0
	active := make([]int, 0, len(live))
	for _, i := range live {
		if inj.RestartDownAt(stagingBase+i, dump) {
			continue
		}
		if hasPartitions && !stagingQuorumAt(inj, stagingBase, live, i, dump) {
			continue
		}
		active = append(active, i)
	}
	return active
}

// Membership is the one value a run derives staging membership from.
// Compute clients route with it, staging servers derive the writers they
// serve from it, and the staging loop diffs consecutive dumps of it into
// membership epochs — so all three always agree without running a
// membership protocol. The fault plan decides who is live and who a
// partition or restart window keeps from serving; an elastic run
// additionally caps the serving set at the autoscaler's announced count.
// A Client or Server built without one gets a fixed, fault-free value
// over its own layout.
type Membership struct {
	inj                                 *faults.Injector
	numCompute, numStaging, stagingBase int
	// everyone is the view with every staging rank serving: each dump's
	// view when nothing can change membership, and what a fixed pool's
	// first dump is diffed against.
	everyone epochView
	// sched, when non-nil, is the elastic schedule: at blocks — bounded
	// by deadline, so a dead pool cannot wedge a writer — until the
	// dump's active count has been announced.
	sched    *elastic.Schedule
	deadline time.Duration
}

// newMembership returns the membership of a fixed staging area laid out
// as given, subject to inj's plan (nil: fault-free).
func newMembership(inj *faults.Injector, numCompute, numStaging, stagingBase int) *Membership {
	all := liveStagingAt(nil, stagingBase, numStaging, 0)
	return &Membership{inj: inj,
		numCompute: numCompute, numStaging: numStaging, stagingBase: stagingBase,
		everyone: epochView{live: all, active: all}}
}

// epochView is one dump's staging membership: live holds the staging
// indices the plan has not crashed, active ⊆ live the ones that serve.
// Both ascend.
type epochView struct{ live, active []int }

// at derives dump ts's membership. Every consumer resolves a dump
// through one call: a writer routes under the view, a server lists the
// writers it serves under it, and the staging loop diffs it against the
// previous dump's.
func (m *Membership) at(ts int64) (epochView, error) {
	if m.inj == nil && m.sched == nil {
		return m.everyone, nil
	}
	live := liveStagingAt(m.inj, m.stagingBase, m.numStaging, ts)
	v := epochView{live: live, active: activeStagingAt(m.inj, m.stagingBase, live, ts)}
	if m.sched == nil {
		return v, nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), m.deadline)
	defer cancel()
	n, err := m.sched.ActiveAt(ctx, ts)
	if err != nil {
		return v, fmt.Errorf("predata: resolving dump %d staging membership: %w", ts, err)
	}
	if len(v.active) == 0 {
		return v, fmt.Errorf("predata: no staging rank can serve dump %d", ts)
	}
	if n < len(v.active) {
		v.active = v.active[:n]
	}
	return v, nil
}

// pick resolves the staging index serving writer under dump ts's view v.
// An elastic run places the writer by DefaultRoute's position within the
// active set, so every resize rebalances the whole pool. A fixed pool
// keeps each writer on its primary, rehashing onto the serving ranks when
// the primary has crashed or sits the dump out, and walking past staging
// ranks the writer cannot reach when a partition cuts the link. Both
// sides of the fabric derive the view from the same shared fault plan —
// the modeled equivalent of a dump-aligned probe — so producers and
// survivors agree on each dump's request census. The conventional layout
// is assumed: writer rank r lives at fabric endpoint r.
func (m *Membership) pick(v epochView, writer int, ts int64) (idx int, rerouted bool, err error) {
	if m.sched != nil {
		return v.active[DefaultRoute(writer, m.numCompute, len(v.active))], false, nil
	}
	primary := DefaultRoute(writer, m.numCompute, m.numStaging)
	if m.inj == nil {
		return primary, false, nil
	}
	active := v.active
	if len(active) == 0 {
		if len(v.live) == 0 {
			return 0, false, fmt.Errorf("predata: no staging rank alive at dump %d: %w", ts, faults.ErrEndpointDown)
		}
		return 0, false, fmt.Errorf("predata: no staging rank holds quorum at dump %d (partition split the staging area evenly): %w",
			ts, faults.ErrUnreachable)
	}
	reachable := func(i int) bool {
		return !m.inj.Unreachable(writer, m.stagingBase+i, ts)
	}
	if slices.Contains(active, primary) && reachable(primary) {
		return primary, false, nil
	}
	// Walk the active set starting from the crash-rehash position, so
	// crash-only plans land exactly where they always did, and a writer
	// partitioned from that rank slides to the next reachable one.
	start := primary % len(active)
	for k := 0; k < len(active); k++ {
		c := active[(start+k)%len(active)]
		if reachable(c) {
			return c, c != primary, nil
		}
	}
	return 0, false, fmt.Errorf("predata: writer %d cannot reach any active staging rank at dump %d: %w",
		writer, ts, faults.ErrUnreachable)
}

// serverFor resolves the staging index that serves writer's dump ts.
func (m *Membership) serverFor(writer int, ts int64) (idx int, rerouted bool, err error) {
	v, err := m.at(ts)
	if err != nil {
		return 0, false, err
	}
	return m.pick(v, writer, ts)
}

// servedBy lists the writers staging index idx serves at dump ts,
// ascending. A writer nobody can serve is skipped: the run's validation
// rejects plans that leave one.
func (m *Membership) servedBy(idx int, ts int64) ([]int, error) {
	v, err := m.at(ts)
	if err != nil {
		return nil, err
	}
	served := []int{}
	for w := 0; w < m.numCompute; w++ {
		if i, _, err := m.pick(v, w, ts); err == nil && i == idx {
			served = append(served, w)
		}
	}
	return served, nil
}

// bounded reports that a dump's gather must run under the dump
// deadline: with faults or resizes in play a request may never arrive,
// and one wedged gather wedges the whole collective staging area.
func (m *Membership) bounded() bool { return m.inj != nil || m.sched != nil }

// shorthanded reports that the plan keeps a staging rank from serving
// dump ts (crashed, fenced or restarting) — the dump is then Degraded.
// An elastically parked rank is a capacity decision, not a loss.
func (m *Membership) shorthanded(ts int64) bool {
	if m.inj == nil {
		return false
	}
	live := liveStagingAt(m.inj, m.stagingBase, m.numStaging, ts)
	return len(activeStagingAt(m.inj, m.stagingBase, live, ts)) < m.numStaging
}

// abort fails every writer blocked on a future dump's announcement.
func (m *Membership) abort(err error) {
	if m.sched != nil {
		m.sched.Abort(err)
	}
}

// rankState says whether a live staging rank serves a dump and, if
// not, why it sits the dump out.
type rankState int

const (
	serving rankState = iota
	idle              // the autoscaler's announced count does not reach it
	fenced            // a partition cut it off from the staging quorum
	down              // inside a restart window: off the fabric, journal sealed
)

// stateOf classifies live staging index idx under view v.
func (m *Membership) stateOf(v epochView, idx int, ts int64) rankState {
	switch {
	case slices.Contains(v.active, idx):
		return serving
	case m.inj.RestartDownAt(m.stagingBase+idx, ts):
		return down
	case len(m.inj.Plan().Partitions) > 0 && !stagingQuorumAt(m.inj, m.stagingBase, v.live, idx, ts):
		return fenced
	}
	return idle
}

// diffMembership compares dump views prev → next. boundary reports a
// membership epoch boundary: every live rank bumps its epoch exactly
// once, however many ranks moved and whether the pool, the serving set
// or both changed. leaving reports that staging index idx crashed across
// it: it splits out of the pool and exits. Why a rank sits out is not in
// the views (see stateOf), so what a staying rank does to stand down or
// up is decided from its state change.
func diffMembership(prev, next epochView, idx int) (boundary, leaving bool) {
	boundary = !slices.Equal(prev.live, next.live) || !slices.Equal(prev.active, next.active)
	return boundary, !slices.Contains(next.live, idx)
}

// placeholder is the row a live rank records for a dump it sat out, so
// StagingResults[rank][i] is dump i on every rank. A fenced or bounced
// rank's row is Degraded — the plan took capacity away — while an
// elastically parked rank's is not: its writers were placed elsewhere
// by design.
func placeholder(why rankState) (*staging.Result, *DumpStats) {
	degraded := why != idle
	return &staging.Result{PerOperator: map[string]map[string]any{}, Degraded: degraded},
		&DumpStats{Parked: why == idle, Fenced: why == fenced, Down: why == down, Degraded: degraded}
}
