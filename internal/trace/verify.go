package trace

import (
	"cmp"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"strings"
)

// Rule names one runtime invariant Verify checks from a recording. Rules
// run in constant order; each counts what it checked in
// VerifyReport.Checks and prefixes its violations with its name, so a
// rule that found no evidence to check reads as zero, not as green.
type Rule int

const (
	// RuleCollectives: within each (dump, communicator) group, every rank
	// consumed the same ordered (sequence, op) list — the runtime
	// complement of the collectivecheck vet analyzer. A check is a group.
	RuleCollectives Rule = iota
	// RuleShuffleOrder: per (dump, operator), each rank's Shuffle span
	// ends before its Reduce span starts, and no rank begins Reduce before
	// every participant has entered Shuffle (Alltoall cannot complete
	// until all peers have sent). A check is a rank's shuffle→reduce edge.
	RuleShuffleOrder
	// RuleReplayOrder: per (rank, dump), every replayed spill chunk is
	// delivered before the first Reduce begins — the lossless-spill
	// contract. A check is a (rank, dump) that both replayed and reduced.
	RuleReplayOrder
	// RuleLeasePeak: per rank, the peak of budget-accounted bytes never
	// exceeds the admission ceiling plus the largest grant (a pass's
	// one-chunk Overdraft; without a pass, the peak stays within the
	// ceiling). The ceiling is the capacity, or the largest grant when a
	// chunk larger than the whole budget was granted alone to an idle
	// accountant. A check is a rank that announced a budget.
	RuleLeasePeak
	// RuleScaleEpochs: every rank that recorded a scale epoch agrees on
	// its first dump and active-member mask, the mask holds the announced
	// number of ranks, epochs start at non-decreasing dumps, and ranks
	// outside the mask record no serving activity for dumps the epoch
	// governs (retired and parked ranks are silent). A check is an epoch.
	RuleScaleEpochs
	// RuleChunkConservation: on recordings containing scale epochs (other
	// pipelines may filter chunks untraced), every writer's chunk of every
	// served dump is retired exactly once somewhere, passed through raw, or
	// dropped against a dead endpoint: nothing is lost or double-reduced
	// when shards and routes move between ranks. A check is a dump.
	RuleChunkConservation
	// RuleCorruptQuarantine: a (dump, writer) chunk abandoned as corrupt
	// (PhaseCorruptDrop) was never engine-retired (PhaseChunk) — the engine
	// retires a chunk only once its check passed, in the Map walk, before
	// its first Map or in the verify step after Reduce, so damaged bytes
	// cannot reach a committed output — and carries at least one CRC detection:
	// quarantine without evidence is a runtime bug. A check is a drop.
	RuleCorruptQuarantine
	// RuleHealOnce: on recordings containing a partition heal, no
	// (dump, writer) chunk is engine-retired more than once — a rank
	// rejoining after a fence never re-processes work the quorum side
	// already reduced. A check is a retired (dump, writer).
	RuleHealOnce
	// RuleWALReplay: every chunk re-pulled after recovery (PhaseWalReplay,
	// Arg = the pulled frame's seal crc32) matches a journaled request
	// (PhaseJournal, Arg = the crc32 the request names) of the same (dump,
	// writer) and checksum — recovery re-enters exactly the bytes that
	// were journaled by reference. A check is a replay.
	RuleWALReplay
	// RuleRestartOnce: on recordings containing a restart, no (dump,
	// writer) chunk is engine-retired more than once — commit dedup keeps
	// a recovered incarnation from re-reducing dumps the crashed one
	// completed. A check is a retired (dump, writer).
	RuleRestartOnce
	// RuleTenantIsolation: every serve object (the hash of its
	// tenant-qualified name, in Seq) is touched by one tenant only across
	// ingest, query and cache events — a second tenant ID on one object
	// means a result crossed a namespace. A check is an object.
	RuleTenantIsolation
	// RuleCacheCoherence: per (object, version), no cache hit serves a fill
	// epoch older than the one installed by the latest invalidation
	// strictly before it. A check is a hit.
	RuleCacheCoherence

	NumRules // number of rules; not a rule
)

// rules is the table Verify walks in Rule order: each rule's stable
// name and its check.
var rules = [NumRules]struct {
	name  string
	check func(*verifier)
}{
	RuleCollectives:       {"collectives", (*verifier).collectives},
	RuleShuffleOrder:      {"shuffle-order", (*verifier).shuffleOrder},
	RuleReplayOrder:       {"replay-order", (*verifier).replayOrder},
	RuleLeasePeak:         {"lease-peak", (*verifier).leasePeak},
	RuleScaleEpochs:       {"scale-epochs", (*verifier).scaleEpochs},
	RuleChunkConservation: {"chunk-conservation", (*verifier).chunkConservation},
	RuleCorruptQuarantine: {"corrupt-quarantine", (*verifier).corruptQuarantine},
	RuleHealOnce: {"heal-once", func(v *verifier) {
		v.retireOnce(PhaseHeal, "across a partition heal — double-reduced")
	}},
	RuleWALReplay: {"wal-replay", (*verifier).walReplay},
	RuleRestartOnce: {"restart-once", func(v *verifier) {
		v.retireOnce(PhaseRestart, "across a restart — journal dedup failed")
	}},
	RuleTenantIsolation: {"tenant-isolation", (*verifier).tenantIsolation},
	RuleCacheCoherence:  {"cache-coherence", (*verifier).cacheCoherence},
}

// String returns the rule's stable name, the prefix of its violations.
func (r Rule) String() string {
	if r >= 0 && r < NumRules {
		return rules[r].name
	}
	return "unknown"
}

// VerifyReport summarizes what Verify checked and what it found. A
// report with no Violations means every rule held on everything the
// recording gave it to check.
type VerifyReport struct {
	Events     int           // events inspected
	Checks     [NumRules]int // per rule, the checks it performed
	Violations []string      // "<rule>: <detail>"; a malformed span has no rule prefix
}

// String lists the event count, every rule with its check count, and
// the number of violations.
func (r *VerifyReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d events, checks:", r.Events)
	for rule, n := range r.Checks {
		fmt.Fprintf(&b, " %s=%d", Rule(rule), n)
	}
	fmt.Fprintf(&b, ", %d violation(s)", len(r.Violations))
	return b.String()
}

// Verify checks every Rule against a recording alone, after rejecting
// spans that end before they start. It returns an error when the
// recording is unusable (nil, empty, or lossy — dropped events could
// hide a violation) or when any invariant fails; the report carries the
// details either way.
func Verify(rec *Recording) (*VerifyReport, error) {
	if rec == nil {
		return nil, errors.New("trace: nil recording")
	}
	rep := &VerifyReport{Events: len(rec.Events)}
	if len(rec.Events) == 0 {
		return rep, errors.New("trace: empty recording")
	}
	if rec.Dropped > 0 {
		return rep, fmt.Errorf("trace: recording dropped %d events; cannot verify a lossy trace", rec.Dropped)
	}
	v := &verifier{rec: rec, rep: rep, retired: map[dw]int{}}
	for i := range rec.Events {
		e := &rec.Events[i]
		if e.Kind == KindSpan && e.End < e.Start {
			rep.Violations = append(rep.Violations, fmt.Sprintf("event %d (%s rank %d): span ends %dns before it starts",
				i, e.Name(), e.Rank, e.Start-e.End))
		}
		v.has[e.Phase] = true
		if e.Phase == PhaseChunk && e.Dump >= 0 {
			v.retired[dw{e.Dump, e.Seq}]++
		}
	}
	for r := range rules {
		v.checks, v.prefix = &rep.Checks[r], rules[r].name+": "
		rules[r].check(v)
	}
	if len(rep.Violations) > 0 {
		return rep, fmt.Errorf("trace: %d invariant violation(s):\n  %s",
			len(rep.Violations), strings.Join(rep.Violations, "\n  "))
	}
	return rep, nil
}

// verifier is one Verify call: the recording, the report, the running
// rule's check counter and violation prefix, and what the shared pass
// over the events found for several rules.
type verifier struct {
	rec     *Recording
	rep     *VerifyReport
	checks  *int
	prefix  string
	has     [1 << 8]bool // phases present in the recording
	retired map[dw]int   // PhaseChunk retirements per (dump, writer), dump >= 0
}

func (v *verifier) check() { *v.checks++ }

func (v *verifier) fail(format string, args ...any) {
	v.rep.Violations = append(v.rep.Violations, v.prefix+fmt.Sprintf(format, args...))
}

// dw identifies one writer's chunk of one dump.
type dw struct{ dump, writer int64 }

func (a dw) compare(b dw) int {
	return cmp.Or(cmp.Compare(a.dump, b.dump), cmp.Compare(a.writer, b.writer))
}

// sortedKeys returns m's keys ordered by compare, so every rule checks
// and reports in a deterministic order.
func sortedKeys[K comparable, V any](m map[K]V, compare func(a, b K) int) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, compare)
	return keys
}

// inner returns m[k], creating it on first use.
func inner[K, J comparable, V any](m map[K]map[J]V, k K) map[J]V {
	if m[k] == nil {
		m[k] = map[J]V{}
	}
	return m[k]
}

func (v *verifier) collectives() {
	type group struct{ dump, comm int64 }
	groups := map[group]map[int32][]*Event{}
	for i := range v.rec.Events {
		e := &v.rec.Events[i]
		if e.Phase != PhaseCollective {
			continue
		}
		byRank := inner(groups, group{dump: e.Dump, comm: e.Arg})
		byRank[e.Rank] = append(byRank[e.Rank], e)
	}
	byGroup := func(a, b group) int { return cmp.Or(cmp.Compare(a.dump, b.dump), cmp.Compare(a.comm, b.comm)) }
	sameCall := func(a, b *Event) bool { return a.Seq == b.Seq && a.Endpoint == b.Endpoint }
	for _, k := range sortedKeys(groups, byGroup) {
		byRank := groups[k]
		v.check()
		ranks := sortedKeys(byRank, cmp.Compare[int32])
		for _, r := range ranks {
			// Events are time-sorted globally; a rank's calls into one
			// communicator are sequential, so sort by seq to get its
			// program order regardless of clock ties.
			slices.SortFunc(byRank[r], func(a, b *Event) int {
				return cmp.Or(cmp.Compare(a.Seq, b.Seq), cmp.Compare(a.Endpoint, b.Endpoint))
			})
		}
		ref := byRank[ranks[0]]
		for _, r := range ranks[1:] {
			if !slices.EqualFunc(ref, byRank[r], sameCall) {
				v.fail("dump %d comm %d: rank %d collective sequence %s differs from rank %d's %s",
					k.dump, k.comm, r, fmtCalls(byRank[r]), ranks[0], fmtCalls(ref))
			}
		}
	}
}

// fmtCalls renders a rank's collective calls as [seq:op ...].
func fmtCalls(calls []*Event) string {
	parts := make([]string, len(calls))
	for i, c := range calls {
		parts[i] = fmt.Sprintf("%d:%s", c.Seq, CollName(c.Endpoint))
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// shuffleOrder: an earlier Reduce than the latest participant's Shuffle
// entry means the trace (or the runtime) lied about the exchange.
func (v *verifier) shuffleOrder() {
	type opKey struct{ dump, op int64 }
	type window struct{ shuffle, reduce map[int32]*Event } // each rank's last span
	groups := map[opKey]*window{}
	for i := range v.rec.Events {
		e := &v.rec.Events[i]
		if e.Kind != KindSpan || (e.Phase != PhaseShuffle && e.Phase != PhaseReduce) {
			continue
		}
		k := opKey{dump: e.Dump, op: e.Seq}
		if groups[k] == nil {
			groups[k] = &window{shuffle: map[int32]*Event{}, reduce: map[int32]*Event{}}
		}
		if e.Phase == PhaseShuffle {
			groups[k].shuffle[e.Rank] = e
		} else {
			groups[k].reduce[e.Rank] = e
		}
	}
	byOp := func(a, b opKey) int { return cmp.Or(cmp.Compare(a.dump, b.dump), cmp.Compare(a.op, b.op)) }
	for _, k := range sortedKeys(groups, byOp) {
		w := groups[k]
		var latest *Event // latest shuffle entry among ranks that reached Reduce
		for _, r := range sortedKeys(w.shuffle, cmp.Compare[int32]) {
			// A rank that crashed or shed before Reduce contributes no edge.
			if s := w.shuffle[r]; w.reduce[r] != nil && (latest == nil || s.Start > latest.Start) {
				latest = s
			}
		}
		for _, r := range sortedKeys(w.reduce, cmp.Compare[int32]) {
			red, shuf := w.reduce[r], w.shuffle[r]
			if shuf == nil {
				continue // reduce without a recorded shuffle (degraded path)
			}
			v.check()
			if shuf.End > red.Start {
				v.fail("dump %d op %d rank %d: shuffle ends at %dns after reduce starts at %dns",
					k.dump, k.op, r, shuf.End, red.Start)
			}
			if red.Start < latest.Start {
				v.fail("dump %d op %d rank %d: reduce starts at %dns before rank %d entered shuffle at %dns",
					k.dump, k.op, r, red.Start, latest.Rank, latest.Start)
			}
		}
	}
}

func (v *verifier) replayOrder() {
	type rd struct {
		rank int32
		dump int64
	}
	lastReplay := map[rd]int64{}
	firstReduce := map[rd]int64{}
	for i := range v.rec.Events {
		e := &v.rec.Events[i]
		k := rd{rank: e.Rank, dump: e.Dump}
		switch {
		case e.Phase == PhaseReplay:
			if e.Start > lastReplay[k] {
				lastReplay[k] = e.Start
			}
		case e.Phase == PhaseReduce && e.Kind == KindSpan:
			if cur, ok := firstReduce[k]; !ok || e.Start < cur {
				firstReduce[k] = e.Start
			}
		}
	}
	byRankDump := func(a, b rd) int { return cmp.Or(cmp.Compare(a.rank, b.rank), cmp.Compare(a.dump, b.dump)) }
	for _, k := range sortedKeys(lastReplay, byRankDump) {
		reduce, ok := firstReduce[k]
		if !ok {
			continue // dump never reduced on this rank (no operators)
		}
		v.check()
		if lastReplay[k] > reduce {
			v.fail("rank %d dump %d: replay at %dns after first reduce at %dns",
				k.rank, k.dump, lastReplay[k], reduce)
		}
	}
}

// leasePeak: the used-after value is recorded inside the budget's own
// critical section, so the bound needs no clock reasoning.
func (v *verifier) leasePeak() {
	caps := map[int32]int64{}
	peaks := map[int32]int64{}
	grants := map[int32]int64{}
	for i := range v.rec.Events {
		e := &v.rec.Events[i]
		switch e.Phase {
		case PhaseBudgetCap:
			if e.Arg > caps[e.Rank] {
				caps[e.Rank] = e.Arg // a rank announcing no capacity is not budgeted
			}
		case PhaseLease:
			peaks[e.Rank] = max(peaks[e.Rank], e.Seq)
			grants[e.Rank] = max(grants[e.Rank], e.Arg)
		}
	}
	for _, r := range sortedKeys(caps, cmp.Compare[int32]) {
		v.check()
		ceiling := max(caps[r], grants[r])
		if limit := ceiling + grants[r]; peaks[r] > limit {
			v.fail("rank %d: lease peak %d B exceeds admission ceiling %d B + largest grant %d B (budget %d B)",
				r, peaks[r], ceiling, grants[r], caps[r])
		}
	}
}

// servingPhase reports whether a phase means the rank actively served
// dump data — the activity that must cease on ranks outside a resize
// epoch's membership. Collectives, drains, and scale bookkeeping are
// deliberately excluded: parked ranks still join membership collectives
// and a retiring rank drains after its last served dump.
func servingPhase(p Phase) bool {
	switch p {
	case PhaseGather, PhaseAggregate, PhaseInitialize, PhaseMap, PhaseCombine,
		PhaseShuffle, PhaseReduce, PhaseFinalize, PhaseChunk, PhasePull:
		return true
	}
	return false
}

func (v *verifier) scaleEpochs() {
	before := len(v.rep.Violations)
	type view struct{ dump, mask, count int64 }
	epochs := map[int64]map[int32]view{}
	for i := range v.rec.Events {
		e := &v.rec.Events[i]
		if e.Phase != PhaseScaleEpoch {
			continue
		}
		w := view{dump: e.Dump, mask: e.Arg, count: int64(e.Endpoint)}
		byRank := inner(epochs, e.Seq)
		if prev, dup := byRank[e.Rank]; !dup {
			byRank[e.Rank] = w
		} else if prev != w {
			v.fail("scale epoch %d: rank %d recorded it twice with different views", e.Seq, e.Rank)
		}
	}
	type span struct{ firstDump, seq, mask int64 }
	var spans []span
	for _, s := range sortedKeys(epochs, cmp.Compare[int64]) {
		byRank := epochs[s]
		v.check()
		ranks := sortedKeys(byRank, cmp.Compare[int32])
		ref := byRank[ranks[0]]
		for _, r := range ranks[1:] {
			if byRank[r] != ref {
				v.fail("scale epoch %d: rank %d sees (dump %d, mask %#x, %d active), rank %d sees (dump %d, mask %#x, %d active)",
					s, r, byRank[r].dump, byRank[r].mask, byRank[r].count,
					ranks[0], ref.dump, ref.mask, ref.count)
			}
		}
		if got := int64(bits.OnesCount64(uint64(ref.mask))); got != ref.count {
			v.fail("scale epoch %d: active mask %#x holds %d ranks but %d were announced",
				s, ref.mask, got, ref.count)
		}
		cur := span{firstDump: ref.dump, seq: s, mask: ref.mask}
		if n := len(spans); n > 0 && cur.firstDump < spans[n-1].firstDump {
			v.fail("scale epoch %d starts at dump %d, before epoch %d's dump %d",
				s, cur.firstDump, spans[n-1].seq, spans[n-1].firstDump)
		}
		spans = append(spans, cur)
	}
	if len(v.rep.Violations) > before {
		return // this rule's epoch table is inconsistent; silence checks would mislead
	}
	// Silence: serving events on staging ranks must fall inside the
	// governing epoch's mask. Violations deduplicate per (rank, epoch,
	// phase) so one runaway rank cannot flood the report.
	flagged := map[[3]int64]bool{}
	for i := range v.rec.Events {
		e := &v.rec.Events[i]
		if !servingPhase(e.Phase) || e.Dump < 0 {
			continue
		}
		idx := int(e.Rank) - v.rec.NumCompute
		if idx < 0 || idx > 62 {
			continue
		}
		g := sort.Search(len(spans), func(j int) bool { return spans[j].firstDump > e.Dump })
		if g == 0 {
			continue // dump precedes the first recorded epoch
		}
		sp := spans[g-1]
		if sp.mask&(1<<idx) != 0 {
			continue
		}
		if key := [3]int64{int64(e.Rank), sp.seq, int64(e.Phase)}; !flagged[key] {
			flagged[key] = true
			v.fail("scale epoch %d (mask %#x): rank %d is outside the active set but recorded %s at dump %d",
				sp.seq, sp.mask, e.Rank, e.Phase, e.Dump)
		}
	}
}

func (v *verifier) chunkConservation() {
	if v.rec.NumCompute <= 0 || !v.has[PhaseScaleEpoch] {
		return
	}
	covered := map[int64]map[int64]bool{}
	for i := range v.rec.Events {
		e := &v.rec.Events[i]
		writer := e.Seq
		switch {
		case e.Dump < 0:
			continue
		case e.Phase == PhasePass || e.Phase == PhaseDrop:
			writer = int64(e.Endpoint)
		case e.Phase != PhaseChunk && e.Phase != PhaseCorruptDrop:
			continue
		}
		inner(covered, e.Dump)[writer] = true
	}
	for _, d := range sortedKeys(covered, cmp.Compare[int64]) {
		v.check()
		for w := int64(0); w < int64(v.rec.NumCompute); w++ {
			if n := v.retired[dw{d, w}]; n > 1 {
				v.fail("dump %d: writer %d's chunk processed %d times — double-reduced across handoff", d, w, n)
			}
			if !covered[d][w] {
				v.fail("dump %d: writer %d's chunk neither processed, passed, nor dropped — lost across handoff", d, w)
			}
		}
	}
}

func (v *verifier) corruptQuarantine() {
	detected := map[dw]bool{}
	dropped := map[dw]bool{}
	for i := range v.rec.Events {
		e := &v.rec.Events[i]
		switch {
		case e.Dump < 0:
		case e.Phase == PhaseCorruptDetect:
			detected[dw{e.Dump, e.Seq}] = true
		case e.Phase == PhaseCorruptDrop:
			dropped[dw{e.Dump, e.Seq}] = true
		}
	}
	for _, k := range sortedKeys(dropped, dw.compare) {
		v.check()
		if v.retired[k] > 0 {
			v.fail("dump %d: writer %d's chunk was corrupt-dropped yet engine-retired — corrupted bytes reached a committed output",
				k.dump, k.writer)
		}
		if !detected[k] {
			v.fail("dump %d: writer %d's chunk was corrupt-dropped without any recorded CRC detection",
				k.dump, k.writer)
		}
	}
}

// retireOnce is RuleHealOnce and RuleRestartOnce: with trigger in the
// recording, every (dump, writer) retires at most once. Without it a
// pipeline may re-deliver (a shed class recount), hence the gate.
func (v *verifier) retireOnce(trigger Phase, why string) {
	if !v.has[trigger] {
		return
	}
	for _, k := range sortedKeys(v.retired, dw.compare) {
		v.check()
		if n := v.retired[k]; n > 1 {
			v.fail("dump %d: writer %d's chunk processed %d times %s", k.dump, k.writer, n, why)
		}
	}
}

// walReplay: a replay without a matching append means recovery pulled a
// chunk no journaled request named; a checksum mismatch means the
// re-pull delivered other bytes than the request named.
func (v *verifier) walReplay() {
	journaled := map[dw]map[int64]bool{}
	var replays []*Event
	for i := range v.rec.Events {
		e := &v.rec.Events[i]
		switch e.Phase {
		case PhaseJournal:
			inner(journaled, dw{e.Dump, e.Seq})[e.Arg] = true
		case PhaseWalReplay:
			replays = append(replays, e)
		}
	}
	for _, e := range replays {
		v.check()
		k := dw{e.Dump, e.Seq}
		if len(journaled[k]) == 0 {
			v.fail("dump %d: writer %d's chunk re-pulled after recovery without any recorded append",
				e.Dump, e.Seq)
		} else if !journaled[k][e.Arg] {
			v.fail("dump %d: writer %d's re-pulled chunk checksum %#x matches no journal append",
				e.Dump, e.Seq, uint32(e.Arg))
		}
	}
}

func byStart(a, b *Event) int { return cmp.Compare(a.Start, b.Start) }

// tenantIsolation: the object hash is computed from the tenant-qualified
// name at the space boundary, so a namespace-crossing bug necessarily
// shows a second tenant on one object.
func (v *verifier) tenantIsolation() {
	owners := map[int64]int32{}
	flagged := map[int64]bool{}
	for i := range v.rec.Events {
		e := &v.rec.Events[i]
		switch e.Phase {
		case PhaseServeIngest, PhaseServeQuery, PhaseCacheHit, PhaseCacheFill, PhaseCacheInvalidate:
		default:
			continue
		}
		owner, seen := owners[e.Seq]
		if !seen {
			owners[e.Seq] = e.Endpoint
			continue
		}
		if e.Endpoint != owner && !flagged[e.Seq] {
			flagged[e.Seq] = true
			v.fail("object %#x: touched by tenant %d and tenant %d — query result crossed a namespace (%s at %dns)",
				uint64(e.Seq), owner, e.Endpoint, e.Phase, e.Start)
		}
	}
	*v.checks += len(owners)
}

// cacheCoherence: the cache records hits and invalidations inside its
// critical section, so a tie cannot order an invalidation first — only
// strictly earlier ones count. Epochs live per (object, version), Dump
// carrying the version: keyed per object, a fresh version's epoch-1
// hits would be flagged against a sibling version's eviction epoch.
func (v *verifier) cacheCoherence() {
	type objVer struct{ obj, version int64 }
	invals := map[objVer][]*Event{}
	hits := map[objVer][]*Event{}
	for i := range v.rec.Events {
		e := &v.rec.Events[i]
		k := objVer{obj: e.Seq, version: e.Dump}
		switch e.Phase {
		case PhaseCacheInvalidate:
			invals[k] = append(invals[k], e)
		case PhaseCacheHit:
			hits[k] = append(hits[k], e)
		}
	}
	byObjVer := func(a, b objVer) int { return cmp.Or(cmp.Compare(a.obj, b.obj), cmp.Compare(a.version, b.version)) }
	for _, k := range sortedKeys(hits, byObjVer) {
		inv := invals[k]
		slices.SortFunc(inv, byStart)
		for _, h := range hits[k] {
			v.check()
			// Latest invalidation strictly before the hit (Arg = epoch).
			var floor int64 = -1
			var floorAt int64
			for _, m := range inv {
				if m.Start < h.Start && m.Arg > floor {
					floor, floorAt = m.Arg, m.Start
				}
			}
			if floor >= 0 && h.Arg < floor {
				v.fail("object %#x version %d: cache hit at %dns served epoch %d after invalidation at %dns installed epoch %d — stale result",
					uint64(k.obj), k.version, h.Start, h.Arg, floorAt, floor)
			}
		}
	}
}
