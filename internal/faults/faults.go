// Package faults provides deterministic, seeded fault injection for the
// PreDatA fabric → staging → pipeline stack.
//
// At the 64:1–128:1 compute:staging ratios the paper targets, the staging
// area sits on the critical output path of a peta-scale run, where
// transient link degradation and node loss are routine. A Plan describes
// the faults of one run up front — endpoint crashes pinned to an I/O
// dump, transient per-operation failures with per-endpoint probability,
// and degraded-bandwidth windows — so that a chaotic run is exactly
// reproducible from its seed. The Injector evaluates a Plan at runtime:
// the fabric consults it on every pull and control message, and the
// predata recovery layer consults it for dump-indexed membership (which
// staging ranks are alive at dump t).
//
// Beyond clean failures the plan also models an adversarial wire:
// seeded payload bit-flips (Corrupt), bidirectional link partitions
// over a dump window (Partition — the peer is alive but unreachable,
// distinct from a crash), and control-message duplication with
// reordering (Dup).
//
// Three typed errors classify every injected failure for errors.Is:
// ErrTransient (retry may succeed; the operation did not take effect),
// ErrEndpointDown (the endpoint crashed; reroute or degrade), and
// ErrUnreachable (a partition severs the pair; the peer is alive and
// the link heals when the window closes).
package faults

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
)

// Typed fault errors. Errors returned by the fabric and the predata
// recovery layer wrap one of these; classify with errors.Is.
var (
	// ErrEndpointDown marks an operation refused because the endpoint it
	// addresses has crashed. Retrying cannot succeed; the caller must
	// reroute onto survivors or record the loss.
	ErrEndpointDown = errors.New("endpoint down")
	// ErrTransient marks an injected transient failure. The operation did
	// not take effect and a retry may succeed.
	ErrTransient = errors.New("transient fault")
	// ErrUnreachable marks an operation refused because a network
	// partition separates the two endpoints. The peer is alive — retrying
	// inside the partition window cannot succeed, but the link heals at
	// the window's end, so the peer must not be declared dead.
	ErrUnreachable = errors.New("endpoint unreachable")
)

// AnyEndpoint matches every endpoint in a Transient or Degrade rule.
const AnyEndpoint = -1

// Op classifies the fabric operations transient faults attach to.
type Op int

const (
	// OpAny matches every operation class in a Transient rule.
	OpAny Op = iota - 1
	// OpPull is a data-plane pull of an exposed region.
	OpPull
	// OpSendCtl is a control-plane send (e.g. a data-fetch request).
	OpSendCtl
	// OpRecvCtl is a control-plane receive.
	OpRecvCtl
)

// String names the operation class (the plan-format keyword).
func (o Op) String() string {
	switch o {
	case OpAny:
		return "any"
	case OpPull:
		return "pull"
	case OpSendCtl:
		return "send"
	case OpRecvCtl:
		return "recv"
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// Crash kills one endpoint at a dump boundary: the endpoint is alive for
// dumps < AtDump and dead for dumps >= AtDump.
type Crash struct {
	Endpoint int
	AtDump   int
}

// Restart bounces one endpoint: it goes down at the AtDump boundary,
// stays down for Downtime dumps (the window [AtDump, AtDump+Downtime)),
// and revives at AtDump+Downtime with its in-memory state lost —
// recovery must come from the durability layer (internal/wal). Unlike
// a Crash, the endpoint rejoins the membership.
type Restart struct {
	Endpoint int
	AtDump   int
	Downtime int // dumps spent down, >= 1
}

// revivesAt is the first dump the restarted endpoint serves again.
func (r Restart) revivesAt() int { return r.AtDump + r.Downtime }

// downAt reports whether the restart window covers dump.
func (r Restart) downAt(dump int64) bool {
	return dump >= int64(r.AtDump) && dump < int64(r.revivesAt())
}

// CrashAll kills and restarts the whole staging service mid-dump
// AtDump: every staging rank loses its in-memory state at once —
// correlated failure, the scenario single-rank rehash cannot cover —
// and the service recovers from its write-ahead journals before the
// dump is reduced. Membership is unchanged: everyone dies, everyone
// comes back.
type CrashAll struct {
	AtDump int
}

// Transient makes an operation class fail with probability Prob per
// attempt, attributed to one endpoint (the destination of a send, the
// source of a pull, the receiver of a recv) or to all of them.
type Transient struct {
	Endpoint int // endpoint id, or AnyEndpoint
	Op       Op  // operation class, or OpAny
	Prob     float64
}

// Degrade slows pulls of data exposed for dumps in [FromDump, ToDump]
// (ToDump < 0 leaves the window open-ended) by Factor — a transient
// link-degradation window rather than a hard failure.
type Degrade struct {
	Endpoint int // endpoint id, or AnyEndpoint
	FromDump int
	ToDump   int
	Factor   float64 // transfer-duration multiplier, finite and >= 1
}

// Corrupt flips one payload byte with probability Prob per transfer,
// attributed to the endpoint the data lives on. Op selects the
// injection site: OpPull corrupts the pulled copy (wire corruption — a
// re-pull reads the intact region and heals), OpSendCtl corrupts the
// exposed region itself (source corruption — every re-pull returns the
// same bad bytes), and OpAny arms both sites.
type Corrupt struct {
	Endpoint int // endpoint id, or AnyEndpoint
	Op       Op  // OpPull, OpSendCtl, or OpAny
	Prob     float64
}

// Partition drops every fabric operation between the two endpoint
// groups — bidirectionally, in both the control and data planes — for
// dumps in [FromDump, ToDump] (ToDump < 0 leaves the window open).
// Endpoints inside one group still reach each other; the partition is a
// cut between the groups, not a crash of either side.
type Partition struct {
	GroupA   []int
	GroupB   []int
	FromDump int
	ToDump   int
}

// severs reports whether the partition cuts the (a, b) pair at dump.
func (pt Partition) severs(a, b int, dump int64) bool {
	if dump < int64(pt.FromDump) || (pt.ToDump >= 0 && dump > int64(pt.ToDump)) {
		return false
	}
	return (contains(pt.GroupA, a) && contains(pt.GroupB, b)) ||
		(contains(pt.GroupA, b) && contains(pt.GroupB, a))
}

func contains(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// Dup duplicates control messages sent to Endpoint with probability
// Prob per send. The duplicate is delivered late — appended behind a
// subsequent message — so the receiver sees duplicated *and* reordered
// control traffic, the delivery anomaly (src, seq) dedup must absorb.
type Dup struct {
	Endpoint int // endpoint id, or AnyEndpoint
	Prob     float64
}

// Plan is a complete, reproducible fault schedule for one run.
type Plan struct {
	// Seed drives every probabilistic draw; two runs of the same plan and
	// seed inject the same faults (per endpoint, draws are sequenced by
	// that endpoint's operation order).
	Seed       int64
	Crashes    []Crash
	Transients []Transient
	Degrades   []Degrade
	Corrupts   []Corrupt
	Partitions []Partition
	Dups       []Dup
	Restarts   []Restart
	CrashAlls  []CrashAll
}

// Validate checks rule ranges — probabilities in [0, 1], degrade factors
// >= 1, endpoint ids >= AnyEndpoint, crash dumps >= 0 — and rejects
// conflicting duplicates: a second crash for an endpoint would silently
// shadow the first's dump, and a second transient rule with the same
// endpoint and op makes the effective probability ambiguous. (Transient
// rules with different scopes — say *:any plus 3:pull — deliberately
// layer and stay legal.)
func (p Plan) Validate() error {
	crashed := make(map[int]bool, len(p.Crashes))
	for _, c := range p.Crashes {
		if c.Endpoint < 0 {
			return fmt.Errorf("faults: crash endpoint %d must be >= 0", c.Endpoint)
		}
		if c.AtDump < 0 {
			return fmt.Errorf("faults: crash dump %d must be >= 0", c.AtDump)
		}
		if crashed[c.Endpoint] {
			return fmt.Errorf("faults: endpoint %d crashed twice; one crash directive per endpoint", c.Endpoint)
		}
		crashed[c.Endpoint] = true
	}
	type scope struct {
		ep int
		op Op
	}
	seen := make(map[scope]bool, len(p.Transients))
	for _, t := range p.Transients {
		if t.Endpoint < AnyEndpoint {
			return fmt.Errorf("faults: transient endpoint %d invalid", t.Endpoint)
		}
		if t.Op < OpAny || t.Op > OpRecvCtl {
			return fmt.Errorf("faults: transient op %d invalid", int(t.Op))
		}
		if !(t.Prob >= 0 && t.Prob <= 1) { // written to also reject NaN
			return fmt.Errorf("faults: transient probability %g outside [0,1]", t.Prob)
		}
		s := scope{t.Endpoint, t.Op}
		if seen[s] {
			return fmt.Errorf("faults: duplicate transient rule for endpoint %d op %v", t.Endpoint, t.Op)
		}
		seen[s] = true
	}
	for _, d := range p.Degrades {
		if d.Endpoint < AnyEndpoint {
			return fmt.Errorf("faults: degrade endpoint %d invalid", d.Endpoint)
		}
		if !(d.Factor >= 1) || math.IsInf(d.Factor, 1) { // written to also reject NaN
			return fmt.Errorf("faults: degrade factor %g must be finite and >= 1", d.Factor)
		}
		if d.FromDump < 0 || (d.ToDump >= 0 && d.ToDump < d.FromDump) {
			return fmt.Errorf("faults: degrade window [%d,%d] invalid", d.FromDump, d.ToDump)
		}
	}
	corruptSeen := make(map[scope]bool, len(p.Corrupts))
	for _, c := range p.Corrupts {
		if c.Endpoint < AnyEndpoint {
			return fmt.Errorf("faults: corrupt endpoint %d invalid", c.Endpoint)
		}
		if c.Op != OpAny && c.Op != OpPull && c.Op != OpSendCtl {
			return fmt.Errorf("faults: corrupt op %v invalid (want pull|send|any)", c.Op)
		}
		if !(c.Prob >= 0 && c.Prob <= 1) { // written to also reject NaN
			return fmt.Errorf("faults: corrupt probability %g outside [0,1]", c.Prob)
		}
		s := scope{c.Endpoint, c.Op}
		if corruptSeen[s] {
			return fmt.Errorf("faults: duplicate corrupt rule for endpoint %d op %v", c.Endpoint, c.Op)
		}
		corruptSeen[s] = true
	}
	if err := p.validatePartitions(); err != nil {
		return err
	}
	dupSeen := make(map[int]bool, len(p.Dups))
	for _, d := range p.Dups {
		if d.Endpoint < AnyEndpoint {
			return fmt.Errorf("faults: dup endpoint %d invalid", d.Endpoint)
		}
		if !(d.Prob >= 0 && d.Prob <= 1) { // written to also reject NaN
			return fmt.Errorf("faults: dup probability %g outside [0,1]", d.Prob)
		}
		if dupSeen[d.Endpoint] {
			return fmt.Errorf("faults: duplicate dup rule for endpoint %d", d.Endpoint)
		}
		dupSeen[d.Endpoint] = true
	}
	return p.validateRestarts(crashed)
}

// validateRestarts checks restart and crashall directives: well-formed
// windows, no overlapping restarts of one endpoint, no restart of an
// endpoint the plan also crashes (the crash is permanent; the restart
// could never revive it), and — because a fenced rank and a restarting
// rank would fight over the same membership machinery — no restart or
// crashall window overlapping a partition window that involves the
// same endpoint.
func (p Plan) validateRestarts(crashed map[int]bool) error {
	partitionTouches := func(pt Partition, ep int, from, to int) (bool, bool) {
		involved := ep < 0 || contains(pt.GroupA, ep) || contains(pt.GroupB, ep)
		overlap := from <= pt.ToDump || pt.ToDump < 0
		if to >= 0 && pt.FromDump > to {
			overlap = false
		}
		return involved, overlap
	}
	for i, r := range p.Restarts {
		if r.Endpoint < 0 {
			return fmt.Errorf("faults: restart endpoint %d must be >= 0", r.Endpoint)
		}
		if r.AtDump < 0 {
			return fmt.Errorf("faults: restart dump %d must be >= 0", r.AtDump)
		}
		if r.Downtime < 1 {
			return fmt.Errorf("faults: restart downtime %d must be >= 1 dump", r.Downtime)
		}
		if crashed[r.Endpoint] {
			return fmt.Errorf("faults: endpoint %d both crashes and restarts; a crash is permanent — use one or the other", r.Endpoint)
		}
		last := r.revivesAt() - 1
		for _, prev := range p.Restarts[:i] {
			if prev.Endpoint != r.Endpoint {
				continue
			}
			if r.AtDump <= prev.revivesAt()-1 && prev.AtDump <= last {
				return fmt.Errorf("faults: endpoint %d restart windows [%d,%d] and [%d,%d] overlap",
					r.Endpoint, prev.AtDump, prev.revivesAt()-1, r.AtDump, last)
			}
		}
		for _, pt := range p.Partitions {
			involved, overlap := partitionTouches(pt, r.Endpoint, r.AtDump, last)
			if involved && overlap {
				return fmt.Errorf(
					"faults: restart of endpoint %d over dumps [%d,%d] overlaps a partition window [%d,%d] involving it; a rank cannot fence and restart at once",
					r.Endpoint, r.AtDump, last, pt.FromDump, pt.ToDump)
			}
		}
	}
	crashAllSeen := make(map[int]bool, len(p.CrashAlls))
	for _, c := range p.CrashAlls {
		if c.AtDump < 0 {
			return fmt.Errorf("faults: crashall dump %d must be >= 0", c.AtDump)
		}
		if crashAllSeen[c.AtDump] {
			return fmt.Errorf("faults: duplicate crashall at dump %d", c.AtDump)
		}
		crashAllSeen[c.AtDump] = true
		for _, pt := range p.Partitions {
			if _, overlap := partitionTouches(pt, AnyEndpoint, c.AtDump, c.AtDump); overlap {
				return fmt.Errorf(
					"faults: crashall at dump %d falls inside a partition window [%d,%d]; the correlated restart needs every link up to recover",
					c.AtDump, pt.FromDump, pt.ToDump)
			}
		}
		for _, r := range p.Restarts {
			if r.downAt(int64(c.AtDump)) {
				return fmt.Errorf(
					"faults: crashall at dump %d falls inside endpoint %d's restart window [%d,%d]",
					c.AtDump, r.Endpoint, r.AtDump, r.revivesAt()-1)
			}
		}
	}
	return nil
}

// validatePartitions rejects malformed groups, self-partitions (an
// endpoint on both sides of one cut), and two partitions whose dump
// windows overlap for the same endpoint pair — the second would
// silently restate the first, so the schedule is ambiguous.
func (p Plan) validatePartitions() error {
	type pair struct{ a, b int }
	type window struct{ from, to int }
	windows := make(map[pair][]window)
	for _, pt := range p.Partitions {
		if len(pt.GroupA) == 0 || len(pt.GroupB) == 0 {
			return fmt.Errorf("faults: partition groups must both be non-empty")
		}
		for _, g := range [2][]int{pt.GroupA, pt.GroupB} {
			for _, ep := range g {
				if ep < 0 {
					return fmt.Errorf("faults: partition endpoint %d must be >= 0", ep)
				}
			}
		}
		if pt.FromDump < 0 || (pt.ToDump >= 0 && pt.ToDump < pt.FromDump) {
			return fmt.Errorf("faults: partition window [%d,%d] invalid", pt.FromDump, pt.ToDump)
		}
		for _, a := range pt.GroupA {
			if contains(pt.GroupB, a) {
				return fmt.Errorf("faults: endpoint %d appears on both sides of a partition (self-partition)", a)
			}
		}
		w := window{pt.FromDump, pt.ToDump}
		for _, a := range pt.GroupA {
			for _, b := range pt.GroupB {
				k := pair{a, b}
				if b < a {
					k = pair{b, a}
				}
				for _, prev := range windows[k] {
					if w.from <= prev.to || prev.to < 0 {
						if prev.from <= w.to || w.to < 0 {
							return fmt.Errorf("faults: partitions overlap for endpoints %d and %d (windows [%d,%d] and [%d,%d])",
								k.a, k.b, prev.from, prev.to, w.from, w.to)
						}
					}
				}
				windows[k] = append(windows[k], w)
			}
		}
	}
	return nil
}

// Stats counts injected faults. All counters are safe for concurrent use.
type Stats struct {
	// Transients is the number of transient failures fired.
	Transients atomic.Int64
	// DownRefusals is the number of fabric operations refused because
	// they addressed a crashed endpoint.
	DownRefusals atomic.Int64
	// Corruptions is the number of payload bytes flipped by corrupt rules.
	Corruptions atomic.Int64
	// Duplicates is the number of control messages duplicated by dup rules.
	Duplicates atomic.Int64
	// DupDrops is the number of duplicated control messages the receiver
	// deduplicated (recorded by the fabric via NoteDupDrop).
	DupDrops atomic.Int64
	// Unreachables is the number of fabric operations refused because a
	// partition severed the endpoint pair (recorded via NoteUnreachable).
	Unreachables atomic.Int64
}

// Injector evaluates a Plan at runtime. A nil *Injector is valid and
// injects nothing, so call sites need no guards. All methods are safe
// for concurrent use.
type Injector struct {
	plan  Plan
	mu    sync.Mutex
	rngs  map[int]*rand.Rand
	stats Stats
}

// NewInjector validates the plan and returns its runtime evaluator.
func NewInjector(p Plan) (*Injector, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Injector{plan: p, rngs: make(map[int]*rand.Rand)}, nil
}

// Plan returns the plan the injector evaluates (zero Plan when nil).
func (in *Injector) Plan() Plan {
	if in == nil {
		return Plan{}
	}
	return in.plan
}

// Stats exposes the injection counters (nil when the injector is nil).
func (in *Injector) Stats() *Stats {
	if in == nil {
		return nil
	}
	return &in.stats
}

// rng returns the endpoint's private generator. Per-endpoint sequencing
// keeps draws reproducible: each endpoint's fabric operations are issued
// in a deterministic order by its owning goroutines, independent of how
// other endpoints' operations interleave with them.
func (in *Injector) rng(endpoint int) *rand.Rand {
	r, ok := in.rngs[endpoint]
	if !ok {
		r = rand.New(rand.NewSource(in.plan.Seed*1_000_003 + int64(endpoint) + 1))
		in.rngs[endpoint] = r
	}
	return r
}

// OpFault draws the transient-failure decision for one operation on one
// endpoint, returning an error wrapping ErrTransient when the fault
// fires and nil otherwise.
func (in *Injector) OpFault(op Op, endpoint int) error {
	if in == nil || len(in.plan.Transients) == 0 {
		return nil
	}
	prob := 0.0
	for _, t := range in.plan.Transients {
		if t.Endpoint != AnyEndpoint && t.Endpoint != endpoint {
			continue
		}
		if t.Op != OpAny && t.Op != op {
			continue
		}
		if t.Prob > prob {
			prob = t.Prob
		}
	}
	if prob <= 0 {
		return nil
	}
	in.mu.Lock()
	hit := in.rng(endpoint).Float64() < prob
	in.mu.Unlock()
	if !hit {
		return nil
	}
	in.stats.Transients.Add(1)
	return fmt.Errorf("faults: injected %v fault on endpoint %d: %w", op, endpoint, ErrTransient)
}

// DownAt reports whether the plan has crashed the endpoint by dump.
// Crashes are permanent; restart windows are queried separately
// (RestartDownAt) because a restarting rank stays in the live
// membership and rejoins.
func (in *Injector) DownAt(endpoint int, dump int64) bool {
	if in == nil {
		return false
	}
	for _, c := range in.plan.Crashes {
		if c.Endpoint == endpoint && dump >= int64(c.AtDump) {
			return true
		}
	}
	return false
}

// RestartDownAt reports whether a restart window holds the endpoint
// down at dump: it serves nothing in [AtDump, AtDump+Downtime) and
// revives after.
func (in *Injector) RestartDownAt(endpoint int, dump int64) bool {
	if in == nil {
		return false
	}
	for _, r := range in.plan.Restarts {
		if r.Endpoint == endpoint && r.downAt(dump) {
			return true
		}
	}
	return false
}

// Revives reports whether the endpoint, though possibly down right
// now, is scheduled to be serving again at dump: it has a restart in
// the plan, no restart window covers dump, and no crash has taken it.
// The client's send path retries ErrEndpointDown against such an
// endpoint — the refusal is the restart race, not node loss.
func (in *Injector) Revives(endpoint int, dump int64) bool {
	if in == nil || in.DownAt(endpoint, dump) || in.RestartDownAt(endpoint, dump) {
		return false
	}
	for _, r := range in.plan.Restarts {
		if r.Endpoint == endpoint && dump >= int64(r.revivesAt()) {
			return true
		}
	}
	return false
}

// CrashAllAt reports whether the plan crashes the whole staging
// service mid-dump at dump.
func (in *Injector) CrashAllAt(dump int64) bool {
	if in == nil {
		return false
	}
	for _, c := range in.plan.CrashAlls {
		if int64(c.AtDump) == dump {
			return true
		}
	}
	return false
}

// DegradeFactor returns the transfer-duration multiplier (>= 1) for data
// the endpoint exposed during dump.
func (in *Injector) DegradeFactor(endpoint int, dump int64) float64 {
	if in == nil {
		return 1
	}
	factor := 1.0
	for _, d := range in.plan.Degrades {
		if d.Endpoint != AnyEndpoint && d.Endpoint != endpoint {
			continue
		}
		if dump < int64(d.FromDump) || (d.ToDump >= 0 && dump > int64(d.ToDump)) {
			continue
		}
		if d.Factor > factor {
			factor = d.Factor
		}
	}
	return factor
}

// NoteDownRefusal records a fabric operation refused against a crashed
// endpoint.
func (in *Injector) NoteDownRefusal() {
	if in == nil {
		return
	}
	in.stats.DownRefusals.Add(1)
}

// CorruptFault draws the corruption decision for one transfer of size
// bytes attributed to endpoint, at the given injection site (OpPull for
// the pulled copy, OpSendCtl for the exposed region). On a hit it
// returns the byte offset to flip and true. Draws ride the endpoint's
// private generator, so corruption interleaves deterministically with
// the endpoint's transient draws.
func (in *Injector) CorruptFault(op Op, endpoint, size int) (int, bool) {
	if in == nil || len(in.plan.Corrupts) == 0 || size <= 0 {
		return 0, false
	}
	prob := 0.0
	for _, c := range in.plan.Corrupts {
		if c.Endpoint != AnyEndpoint && c.Endpoint != endpoint {
			continue
		}
		if c.Op != OpAny && c.Op != op {
			continue
		}
		if c.Prob > prob {
			prob = c.Prob
		}
	}
	if prob <= 0 {
		return 0, false
	}
	in.mu.Lock()
	r := in.rng(endpoint)
	hit := r.Float64() < prob
	pos := 0
	if hit {
		pos = r.Intn(size)
	}
	in.mu.Unlock()
	if !hit {
		return 0, false
	}
	in.stats.Corruptions.Add(1)
	return pos, true
}

// Unreachable reports whether a partition severs the (a, b) endpoint
// pair at dump. Both directions are cut: Unreachable(a, b, d) ==
// Unreachable(b, a, d).
func (in *Injector) Unreachable(a, b int, dump int64) bool {
	if in == nil || a == b {
		return false
	}
	for _, pt := range in.plan.Partitions {
		if pt.severs(a, b, dump) {
			return true
		}
	}
	return false
}

// DupFault draws the duplication decision for one control message sent
// to endpoint, returning true when the message should be delivered a
// second time (late, behind a subsequent send).
func (in *Injector) DupFault(endpoint int) bool {
	if in == nil || len(in.plan.Dups) == 0 {
		return false
	}
	prob := 0.0
	for _, d := range in.plan.Dups {
		if d.Endpoint != AnyEndpoint && d.Endpoint != endpoint {
			continue
		}
		if d.Prob > prob {
			prob = d.Prob
		}
	}
	if prob <= 0 {
		return false
	}
	in.mu.Lock()
	hit := in.rng(endpoint).Float64() < prob
	in.mu.Unlock()
	if hit {
		in.stats.Duplicates.Add(1)
	}
	return hit
}

// NoteDupDrop records a duplicated control message the receiver's
// (src, seq) dedup absorbed.
func (in *Injector) NoteDupDrop() {
	if in == nil {
		return
	}
	in.stats.DupDrops.Add(1)
}

// NoteUnreachable records a fabric operation refused because a
// partition severed the endpoint pair.
func (in *Injector) NoteUnreachable() {
	if in == nil {
		return
	}
	in.stats.Unreachables.Add(1)
}
