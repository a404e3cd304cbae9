// Package faults provides deterministic, seeded fault injection for the
// PreDatA fabric → staging → pipeline stack.
//
// At the 64:1–128:1 compute:staging ratios the paper targets, the staging
// area sits on the critical output path of a peta-scale run, where
// transient link degradation and node loss are routine. A Plan describes
// the faults of one run up front, so that a chaotic run is exactly
// reproducible from its seed. Its directives are built from two shapes:
//
//   - a Rule (endpoint, op, probability), drawn per operation from the
//     endpoint's seeded generator: transient failures, payload bit-flips
//     (corrupt) and late duplicate control messages (dup);
//   - a Window of dumps: degraded bandwidth (degrade), a bidirectional
//     link cut between two endpoint groups (partition — the peer is
//     alive but unreachable, distinct from a crash), and the down time
//     of a restart or a crashall.
//
// Crashes, restarts and crashalls are pinned to a dump. The Injector
// evaluates a Plan at runtime: the fabric consults it on every pull and
// control message, and the predata recovery layer consults it for
// dump-indexed membership (which staging ranks are alive at dump t).
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
	"slices"
	"strings"
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

// AnyEndpoint matches every endpoint in a Rule or a Degrade.
const AnyEndpoint = -1

// Op classifies the fabric operations a Rule attaches to.
type Op int

const (
	// OpAny, the zero Op, matches every operation class in a Rule.
	OpAny Op = iota
	// OpPull is a data-plane pull of an exposed region.
	OpPull
	// OpSendCtl is a control-plane send (e.g. a data-fetch request).
	OpSendCtl
	// OpRecvCtl is a control-plane receive.
	OpRecvCtl
)

var opNames = [...]string{OpAny: "any", OpPull: "pull", OpSendCtl: "send", OpRecvCtl: "recv"}

// String names the operation class (the plan-format keyword).
func (o Op) String() string {
	if o >= 0 && int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// The operation classes each rule kind's OP field may name, in the order
// error messages list them. A dup rule has no OP field: it matches every
// control message sent to its endpoint.
var (
	transientOps = []Op{OpPull, OpSendCtl, OpRecvCtl, OpAny}
	corruptOps   = []Op{OpPull, OpSendCtl, OpAny}
	dupOps       = []Op{OpAny}
)

// Rule fires with probability Prob per attempt of an operation class,
// attributed to one endpoint or to all of them. The plan holds three
// kinds. A transient fails the operation: a pull is attributed to its
// source, a send to its destination, a recv to its receiver. A corrupt
// flips one payload byte of a transfer, attributed to the endpoint the
// data lives on: OpPull corrupts the pulled copy (wire corruption, a
// re-pull heals), OpSendCtl the exposed region itself (source
// corruption, every re-pull returns the same bad bytes). A dup delivers
// a control message sent to the endpoint a second time, late: appended
// behind a subsequent message, so the receiver sees duplicated and
// reordered traffic that its (src, seq) dedup must absorb.
type Rule struct {
	Endpoint int // endpoint id, or AnyEndpoint
	Op       Op  // operation class; OpAny matches every class
	Prob     float64
}

// Window is the inclusive dump range [From, To]; To < 0 leaves it
// open-ended.
type Window struct {
	From, To int
}

// covers reports whether dump falls inside the window.
func (w Window) covers(dump int64) bool {
	return dump >= int64(w.From) && (w.To < 0 || dump <= int64(w.To))
}

// overlaps reports whether the two windows share a dump.
func (w Window) overlaps(o Window) bool {
	return (w.To < 0 || o.From <= w.To) && (o.To < 0 || w.From <= o.To)
}

// String renders the window in the plan format, FROM-TO or FROM-*.
func (w Window) String() string {
	if w.To < 0 {
		return fmt.Sprintf("%d-*", w.From)
	}
	return fmt.Sprintf("%d-%d", w.From, w.To)
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

// window is the dumps the restart holds its endpoint down.
func (r Restart) window() Window { return Window{r.AtDump, r.AtDump + r.Downtime - 1} }

// CrashAll kills and restarts the whole staging service mid-dump
// AtDump: every staging rank loses its in-memory state at once —
// correlated failure, the scenario single-rank rehash cannot cover —
// and the service recovers from its write-ahead journals before the
// dump is reduced. Membership is unchanged: everyone dies, everyone
// comes back.
type CrashAll struct {
	AtDump int
}

// Degrade slows pulls of data exposed for dumps in its window by Factor —
// a transient link-degradation window rather than a hard failure.
type Degrade struct {
	Endpoint int // endpoint id, or AnyEndpoint
	Window
	Factor float64 // transfer-duration multiplier, finite and >= 1
}

// Partition drops every fabric operation between the two endpoint
// groups — bidirectionally, in both the control and data planes — for
// dumps in its window. Endpoints inside one group still reach each
// other; the partition is a cut between the groups, not a crash of
// either side.
type Partition struct {
	GroupA []int
	GroupB []int
	Window
}

// severs reports whether the partition cuts the (a, b) pair at dump.
func (pt Partition) severs(a, b int, dump int64) bool {
	return pt.covers(dump) &&
		((slices.Contains(pt.GroupA, a) && slices.Contains(pt.GroupB, b)) ||
			(slices.Contains(pt.GroupA, b) && slices.Contains(pt.GroupB, a)))
}

// Plan is a complete, reproducible fault schedule for one run.
type Plan struct {
	// Seed drives every probabilistic draw; two runs of the same plan and
	// seed inject the same faults (per endpoint, draws are sequenced by
	// that endpoint's operation order).
	Seed       int64
	Crashes    []Crash
	Transients []Rule
	Degrades   []Degrade
	Corrupts   []Rule
	Partitions []Partition
	Dups       []Rule
	Restarts   []Restart
	CrashAlls  []CrashAll
}

// Validate checks rule ranges — probabilities in [0, 1], degrade factors
// >= 1, endpoint ids >= AnyEndpoint, crash dumps >= 0 — and rejects
// conflicting duplicates: a second crash for an endpoint would silently
// shadow the first's dump, and a second rule of one kind with the same
// endpoint and op makes the effective probability ambiguous. (Rules
// with different scopes — say *:any plus 3:pull — deliberately layer
// and stay legal.)
func (p Plan) Validate() error {
	for i, c := range p.Crashes {
		if c.Endpoint < 0 {
			return fmt.Errorf("faults: crash endpoint %d must be >= 0", c.Endpoint)
		}
		if c.AtDump < 0 {
			return fmt.Errorf("faults: crash dump %d must be >= 0", c.AtDump)
		}
		if slices.ContainsFunc(p.Crashes[:i], func(o Crash) bool { return o.Endpoint == c.Endpoint }) {
			return fmt.Errorf("faults: endpoint %d crashed twice; one crash directive per endpoint", c.Endpoint)
		}
	}
	if err := validateRules("transient", p.Transients, transientOps); err != nil {
		return err
	}
	for _, d := range p.Degrades {
		if d.Endpoint < AnyEndpoint {
			return fmt.Errorf("faults: degrade endpoint %d invalid", d.Endpoint)
		}
		if !(d.Factor >= 1) || math.IsInf(d.Factor, 1) { // written to also reject NaN
			return fmt.Errorf("faults: degrade factor %g must be finite and >= 1", d.Factor)
		}
		if err := d.validate("degrade"); err != nil {
			return err
		}
	}
	if err := validateRules("corrupt", p.Corrupts, corruptOps); err != nil {
		return err
	}
	if err := p.validatePartitions(); err != nil {
		return err
	}
	if err := validateRules("dup", p.Dups, dupOps); err != nil {
		return err
	}
	return p.validateRestarts()
}

// validateRules checks one kind's rules: a valid endpoint, an op the
// kind allows, a probability in [0, 1], and at most one rule per
// (endpoint, op) scope.
func validateRules(kind string, rules []Rule, ops []Op) error {
	seen := make(map[Rule]bool, len(rules))
	for _, r := range rules {
		if r.Endpoint < AnyEndpoint {
			return fmt.Errorf("faults: %s endpoint %d invalid", kind, r.Endpoint)
		}
		if !slices.Contains(ops, r.Op) {
			return fmt.Errorf("faults: %s op %v invalid (want %s)", kind, r.Op, opList(ops))
		}
		if !(r.Prob >= 0 && r.Prob <= 1) { // written to also reject NaN
			return fmt.Errorf("faults: %s probability %g outside [0,1]", kind, r.Prob)
		}
		scope := Rule{Endpoint: r.Endpoint, Op: r.Op}
		if seen[scope] {
			if len(ops) == 1 {
				return fmt.Errorf("faults: duplicate %s rule for endpoint %d", kind, r.Endpoint)
			}
			return fmt.Errorf("faults: duplicate %s rule for endpoint %d op %v", kind, r.Endpoint, r.Op)
		}
		seen[scope] = true
	}
	return nil
}

// opList renders ops as the plan format's alternatives, "pull|send|any".
func opList(ops []Op) string {
	names := make([]string, len(ops))
	for i, o := range ops {
		names[i] = o.String()
	}
	return strings.Join(names, "|")
}

// validate rejects a window that starts before dump 0 or ends before it
// starts.
func (w Window) validate(kind string) error {
	if w.From < 0 || (w.To >= 0 && w.To < w.From) {
		return fmt.Errorf("faults: %s window [%d,%d] invalid", kind, w.From, w.To)
	}
	return nil
}

// validateRestarts checks restart and crashall directives: well-formed
// windows, no overlapping restarts of one endpoint, no restart of an
// endpoint the plan also crashes (the crash is permanent; the restart
// could never revive it), and — because a fenced rank and a restarting
// rank would fight over the same membership machinery — no restart or
// crashall window overlapping a partition window that involves the
// same endpoint.
func (p Plan) validateRestarts() error {
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
		if slices.ContainsFunc(p.Crashes, func(c Crash) bool { return c.Endpoint == r.Endpoint }) {
			return fmt.Errorf("faults: endpoint %d both crashes and restarts; a crash is permanent — use one or the other", r.Endpoint)
		}
		w := r.window()
		for _, prev := range p.Restarts[:i] {
			if pw := prev.window(); prev.Endpoint == r.Endpoint && pw.overlaps(w) {
				return fmt.Errorf("faults: endpoint %d restart windows [%d,%d] and [%d,%d] overlap",
					r.Endpoint, pw.From, pw.To, w.From, w.To)
			}
		}
		for _, pt := range p.Partitions {
			if slices.Contains(slices.Concat(pt.GroupA, pt.GroupB), r.Endpoint) && pt.overlaps(w) {
				return fmt.Errorf(
					"faults: restart of endpoint %d over dumps [%d,%d] overlaps a partition window [%d,%d] involving it; a rank cannot fence and restart at once",
					r.Endpoint, w.From, w.To, pt.From, pt.To)
			}
		}
	}
	for i, c := range p.CrashAlls {
		if c.AtDump < 0 {
			return fmt.Errorf("faults: crashall dump %d must be >= 0", c.AtDump)
		}
		if slices.Contains(p.CrashAlls[:i], c) {
			return fmt.Errorf("faults: duplicate crashall at dump %d", c.AtDump)
		}
		w := Window{c.AtDump, c.AtDump}
		for _, pt := range p.Partitions {
			if pt.overlaps(w) {
				return fmt.Errorf(
					"faults: crashall at dump %d falls inside a partition window [%d,%d]; the correlated restart needs every link up to recover",
					c.AtDump, pt.From, pt.To)
			}
		}
		for _, r := range p.Restarts {
			if rw := r.window(); rw.overlaps(w) {
				return fmt.Errorf(
					"faults: crashall at dump %d falls inside endpoint %d's restart window [%d,%d]",
					c.AtDump, r.Endpoint, rw.From, rw.To)
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
	windows := make(map[pair][]Window)
	for _, pt := range p.Partitions {
		if len(pt.GroupA) == 0 || len(pt.GroupB) == 0 {
			return fmt.Errorf("faults: partition groups must both be non-empty")
		}
		for _, ep := range slices.Concat(pt.GroupA, pt.GroupB) {
			if ep < 0 {
				return fmt.Errorf("faults: partition endpoint %d must be >= 0", ep)
			}
		}
		if err := pt.validate("partition"); err != nil {
			return err
		}
		for _, a := range pt.GroupA {
			if slices.Contains(pt.GroupB, a) {
				return fmt.Errorf("faults: endpoint %d appears on both sides of a partition (self-partition)", a)
			}
		}
		for _, a := range pt.GroupA {
			for _, b := range pt.GroupB {
				k := pair{min(a, b), max(a, b)}
				for _, prev := range windows[k] {
					if prev.overlaps(pt.Window) {
						return fmt.Errorf("faults: partitions overlap for endpoints %d and %d (windows [%d,%d] and [%d,%d])",
							k.a, k.b, prev.From, prev.To, pt.From, pt.To)
					}
				}
				windows[k] = append(windows[k], pt.Window)
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
	rngs  map[[2]int]*rand.Rand
	stats Stats
}

// NewInjector validates the plan and returns its runtime evaluator.
func NewInjector(p Plan) (*Injector, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Injector{plan: p, rngs: make(map[[2]int]*rand.Rand)}, nil
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

// rng returns the private generator of the operations from issues against
// endpoint. Per-pair sequencing keeps draws reproducible: the operations
// one endpoint issues against one target — a sender's control messages
// to one destination, a puller's pulls from one source, an endpoint's own
// receives and exposures — come in a fixed order, however many other
// endpoints issue operations against the same target at the same time. An
// endpoint's operations on itself keep the generator a key of the target
// alone once gave; another issuer's seed carries it in the high bits.
func (in *Injector) rng(from, endpoint int) *rand.Rand {
	key := [2]int{from, endpoint}
	r, ok := in.rngs[key]
	if !ok {
		seed := in.plan.Seed*1_000_003 + int64(endpoint) + 1
		if from != endpoint {
			seed ^= int64(from+1) << 32
		}
		r = rand.New(rand.NewSource(seed))
		in.rngs[key] = r
	}
	return r
}

// draw rolls one rule kind's decision for an operation from issues on
// endpoint: the highest probability among the rules matching (op,
// endpoint), drawn from the pair's private generator. A hit adds one to
// count, and with size > 0 also draws the byte offset to flip. With no
// matching rule nothing is drawn, so each pair's sequence depends only on
// the operations rules cover.
func (in *Injector) draw(rules []Rule, op Op, from, endpoint, size int, count *atomic.Int64) (bool, int) {
	prob := 0.0
	for _, r := range rules {
		if (r.Endpoint == AnyEndpoint || r.Endpoint == endpoint) && (r.Op == OpAny || r.Op == op) {
			prob = max(prob, r.Prob)
		}
	}
	if prob <= 0 {
		return false, 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	rng := in.rng(from, endpoint)
	if rng.Float64() >= prob {
		return false, 0
	}
	count.Add(1)
	if size > 0 {
		return true, rng.Intn(size)
	}
	return true, 0
}

// OpFault draws the transient-failure decision for one operation that
// endpoint from issues on endpoint (from == endpoint for an endpoint's
// own receive), returning an error wrapping ErrTransient when the fault
// fires and nil otherwise.
func (in *Injector) OpFault(op Op, from, endpoint int) error {
	if in == nil {
		return nil
	}
	if hit, _ := in.draw(in.plan.Transients, op, from, endpoint, 0, &in.stats.Transients); !hit {
		return nil
	}
	return fmt.Errorf("faults: injected %v fault on endpoint %d: %w", op, endpoint, ErrTransient)
}

// DownAt reports whether the plan has crashed the endpoint by dump.
// Crashes are permanent; restart windows are queried separately
// (RestartDownAt) because a restarting rank stays in the live
// membership and rejoins.
func (in *Injector) DownAt(endpoint int, dump int64) bool {
	return slices.ContainsFunc(in.Plan().Crashes, func(c Crash) bool {
		return c.Endpoint == endpoint && dump >= int64(c.AtDump)
	})
}

// RestartDownAt reports whether a restart window holds the endpoint
// down at dump: it serves nothing in [AtDump, AtDump+Downtime) and
// revives after.
func (in *Injector) RestartDownAt(endpoint int, dump int64) bool {
	return slices.ContainsFunc(in.Plan().Restarts, func(r Restart) bool {
		return r.Endpoint == endpoint && r.window().covers(dump)
	})
}

// Revives reports whether the endpoint, though possibly down right
// now, is scheduled to be serving again at dump: it has a restart in
// the plan, no restart window covers dump, and no crash has taken it.
// The client's send path retries ErrEndpointDown against such an
// endpoint — the refusal is the restart race, not node loss.
func (in *Injector) Revives(endpoint int, dump int64) bool {
	return !in.DownAt(endpoint, dump) && !in.RestartDownAt(endpoint, dump) &&
		slices.ContainsFunc(in.Plan().Restarts, func(r Restart) bool {
			return r.Endpoint == endpoint && dump > int64(r.window().To)
		})
}

// CrashAllAt reports whether the plan crashes the whole staging
// service mid-dump at dump.
func (in *Injector) CrashAllAt(dump int64) bool {
	return slices.ContainsFunc(in.Plan().CrashAlls, func(c CrashAll) bool { return int64(c.AtDump) == dump })
}

// DegradeFactor returns the transfer-duration multiplier (>= 1) for data
// the endpoint exposed during dump.
func (in *Injector) DegradeFactor(endpoint int, dump int64) float64 {
	factor := 1.0
	for _, d := range in.Plan().Degrades {
		if (d.Endpoint == AnyEndpoint || d.Endpoint == endpoint) && d.covers(dump) {
			factor = max(factor, d.Factor)
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
// bytes attributed to endpoint, at the given injection site: OpPull for
// the copy endpoint from pulled, OpSendCtl for the region endpoint
// exposed (from == endpoint). On a hit it returns the byte offset to flip
// and true. Draws ride the (from, endpoint) pair's generator, so
// corruption interleaves deterministically with the pair's transient
// draws.
func (in *Injector) CorruptFault(op Op, from, endpoint, size int) (int, bool) {
	if in == nil || size <= 0 {
		return 0, false
	}
	hit, pos := in.draw(in.plan.Corrupts, op, from, endpoint, size, &in.stats.Corruptions)
	return pos, hit
}

// Unreachable reports whether a partition severs the (a, b) endpoint
// pair at dump. Both directions are cut: Unreachable(a, b, d) ==
// Unreachable(b, a, d).
func (in *Injector) Unreachable(a, b int, dump int64) bool {
	return a != b && slices.ContainsFunc(in.Plan().Partitions, func(pt Partition) bool { return pt.severs(a, b, dump) })
}

// DupFault draws the duplication decision for one control message from
// sent to endpoint, returning true when the message should be delivered
// a second time (late, behind a subsequent send).
func (in *Injector) DupFault(from, endpoint int) bool {
	if in == nil {
		return false
	}
	hit, _ := in.draw(in.plan.Dups, OpSendCtl, from, endpoint, 0, &in.stats.Duplicates)
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
