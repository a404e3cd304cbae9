// Package dataflow runs a forward, lattice-based must/may reach
// analysis over the cfg package's control-flow graphs, specialized to
// resource lifecycles: a value acquired at one site must reach a
// release (or a sanctioned hand-off) on every path to the function
// exit.
//
// The state of one resource at one program point is a set drawn from
// {Live, Released, Escaped, Deferred}; the transfer function updates it
// per statement and the merge at join points is set union, so a bit in
// the state means "on some path". A leak is Live ∈ state at Exit; a
// double release is a release observed while Released ∈ state (only
// for exactly-once resources); a use-after-release likewise. Paths
// that end in panic or another no-return call terminate at the graph's
// Abort block and are exempt — a leak on a dying process is not a
// leak.
//
// The engine is deliberately not path-sensitive, but it refines state
// along branch edges for the three idioms that would otherwise drown
// the analyzers in false positives:
//
//	l, err := b.Acquire(ctx, n)   // err != nil  kills l on the error edge
//	l, ok := b.TryAcquire(n)      // !ok         kills l on the false edge
//	if c.Release != nil { ... }   // nil release hook: nothing to release
//
// together with direct nil tests of the resource itself. Deferred
// releases come in two flavors with different rebind semantics:
// defer l.Close() evaluates its receiver immediately, so it discharges
// only the handle l holds at the defer statement; defer func(){
// l.Close() }() captures l by reference and closes whatever the
// variable holds at exit, so it also discharges handles re-acquired
// into l later — the restart idiom of closing a bounced incarnation's
// journal and reopening a fresh one under a single shutdown closure.
// The closure only sees the final value, so overwriting a still-live
// handle is reported as a reassign leak either way, and the cover only
// counts when the defer statement runs on every path to the acquire
// (tracked as a must-property seeded at function entry). Escapes —
// returning the resource, sending it on a channel, storing it, passing
// it to a call, capturing it in a non-defer closure, or reading its
// release member as a value — transfer responsibility to someone the
// intraprocedural analysis cannot see, and end the obligation.
//
// A Spec describes one resource class (what acquires, what releases,
// what passes through, what is benign); the mustrelease analyzer is a
// table of four Specs over this engine: chunk, lease, journal and span.
package dataflow

import (
	"go/ast"
	"go/token"
	"go/types"

	"predata/internal/analysis"
	"predata/internal/analysis/cfg"
)

// Spec describes one resource class to the engine.
type Spec struct {
	// Resource names the class; the engine never reads it, and an
	// analyzer uses it as the noun of its diagnostics ("lease").
	Resource string
	// Acquire classifies e as an acquire site; desc names the site for
	// diagnostics ("Budget.Acquire"). The resource is the call's first
	// result (or the composite literal itself).
	Acquire func(info *types.Info, e ast.Expr) (desc string, ok bool)
	// Release reports whether call releases its receiver (a method
	// call or release-member field call rooted at the tracked value).
	Release func(info *types.Info, call *ast.CallExpr) bool
	// Passthrough reports receiver-preserving transforms whose result
	// carries the same resource (Span.WithDump). May be nil.
	Passthrough func(info *types.Info, call *ast.CallExpr) bool
	// Benign reports calls rooted at the resource that neither release
	// nor escape it (Lease.Bytes). May be nil.
	Benign func(info *types.Info, call *ast.CallExpr) bool
	// ReleaseMember is the name of a func-valued member whose nil-ness
	// means "nothing to release" (Chunk.Release); nil tests of it kill
	// the obligation on the nil edge, and reading it as a value is a
	// hand-off. Empty for none.
	ReleaseMember string
	// ExactlyOnce additionally reports double releases and uses after
	// release (pooled/refcounted resources). Idempotent releases leave
	// it false.
	ExactlyOnce bool
}

// Kind classifies a finding.
type Kind int

const (
	// Leak: Live at exit on some path.
	Leak Kind = iota
	// LeakReassign: the binding was overwritten while still Live.
	LeakReassign
	// DoubleRelease: released again on a path that already released.
	DoubleRelease
	// UseAfterRelease: used on a path that already released.
	UseAfterRelease
	// Discard: the acquire's result was not bound at all.
	Discard
)

// Finding is one lifecycle violation.
type Finding struct {
	Kind       Kind
	Pos        token.Pos // where to report
	AcquirePos token.Pos // the acquire site backing the finding
	Desc       string    // acquire-site description from the Spec
}

// state bits; the zero state means "not acquired on this path".
type state uint8

const (
	live state = 1 << iota
	released
	escaped
	deferredRel // release deferred: fires at exit on every later path
	// uncovered marks a live handle with no by-reference deferred
	// release behind it; only live+uncovered counts as a leak at exit.
	uncovered
	// noCover is the must-analysis complement of closure cover: it is
	// seeded at function entry and cleared by a deferred closure that
	// releases the binding, so it survives the union merge exactly when
	// SOME path reaches this point without the covering defer. An
	// acquire is covered iff noCover is clear.
	noCover
)

// resource is one tracked acquire site.
type resource struct {
	id      int
	acquire ast.Node // the statement node performing the acquisition
	expr    ast.Expr // the acquire expression itself
	pos     token.Pos
	desc    string
	// vars are the bindings that carry this resource (grown through
	// passthrough re-assignments).
	vars map[*types.Var]bool
	// errVars/okVars are validity flags paired in the acquire's
	// assignment: err != nil / !ok kill the obligation.
	errVars map[*types.Var]bool
	okVars  map[*types.Var]bool
}

// Check analyzes every function body in the pass (test files excluded)
// and returns the lifecycle findings for the given spec.
func Check(pass *analysis.Pass, spec *Spec) []Finding {
	var out []Finding
	for _, f := range pass.Files {
		if analysis.IsTestFile(pass.Fset, f.Pos()) {
			continue
		}
		cfg.Bodies(f, func(body *ast.BlockStmt) {
			out = append(out, checkBody(pass.TypesInfo, body, spec)...)
		})
	}
	return out
}

// fn is the per-function analysis state.
type fn struct {
	info *types.Info
	spec *Spec
	g    *cfg.Graph
	res  []*resource
	// byVar indexes resources by their current bindings.
	byVar map[*types.Var][]*resource
	// acquires maps an acquire statement node to its resources.
	acquires map[ast.Node][]*resource
	// ops caches per-node classifications across fixpoint iterations.
	ops      map[ast.Node][]op
	findings map[Finding]bool
	order    []Finding
}

func checkBody(info *types.Info, body *ast.BlockStmt, spec *Spec) []Finding {
	f := &fn{
		info:     info,
		spec:     spec,
		g:        cfg.New(body, info),
		byVar:    map[*types.Var][]*resource{},
		acquires: map[ast.Node][]*resource{},
		findings: map[Finding]bool{},
	}
	f.discover()
	if len(f.res) == 0 {
		return f.order // only Discard findings, if any
	}
	blocks := f.g.Reachable()
	in := make(map[*cfg.Block][]state)
	for _, blk := range blocks {
		in[blk] = make([]state, len(f.res))
	}
	// No resource is covered by a deferred closure until the defer
	// statement actually runs; the fixpoint clears the bit downstream
	// of each covering defer.
	for _, r := range f.res {
		in[f.g.Entry][r.id] = noCover
	}
	// Fixpoint: propagate block out-states (with branch refinement)
	// into successors until nothing changes.
	changed := true
	for changed {
		changed = false
		for _, blk := range blocks {
			outs := f.transfer(blk, cloneStates(in[blk]), false)
			for i, succ := range blk.Succs {
				refined := f.refine(blk, i, cloneStates(outs))
				dst, ok := in[succ]
				if !ok {
					continue // unreachable successor slot
				}
				for r := range refined {
					if refined[r]&^dst[r] != 0 {
						dst[r] |= refined[r]
						changed = true
					}
				}
			}
		}
	}
	// Reporting pass over the converged states.
	for _, blk := range blocks {
		f.transfer(blk, cloneStates(in[blk]), true)
	}
	for _, r := range f.res {
		// live alone is not a leak: a handle acquired under a covering
		// deferred closure (live without uncovered) is closed at exit
		// through its variable.
		if st := in[f.g.Exit][r.id]; st&live != 0 && st&uncovered != 0 {
			f.report(Finding{Kind: Leak, Pos: r.pos, AcquirePos: r.pos, Desc: r.desc})
		}
	}
	return f.order
}

func cloneStates(s []state) []state {
	out := make([]state, len(s))
	copy(out, s)
	return out
}

func (f *fn) report(fd Finding) {
	if !f.findings[fd] {
		f.findings[fd] = true
		f.order = append(f.order, fd)
	}
}

// ---- resource discovery ----

// discover finds every acquire site in the graph and its bindings,
// reports discarded acquires, and grows binding sets through
// passthrough re-assignments.
func (f *fn) discover() {
	for _, blk := range f.g.Blocks {
		for _, n := range blk.Nodes {
			switch n := n.(type) {
			case *ast.AssignStmt:
				f.discoverAssign(n, n.Lhs, n.Rhs)
			case *ast.DeclStmt:
				if gd, ok := n.Decl.(*ast.GenDecl); ok {
					for _, sp := range gd.Specs {
						if vs, ok := sp.(*ast.ValueSpec); ok && len(vs.Values) > 0 {
							lhs := make([]ast.Expr, len(vs.Names))
							for i, name := range vs.Names {
								lhs[i] = name
							}
							f.discoverAssign(n, lhs, vs.Values)
						}
					}
				}
			case *ast.ExprStmt:
				if desc, ok := f.isAcquire(n.X); ok {
					f.report(Finding{Kind: Discard, Pos: n.X.Pos(), AcquirePos: n.X.Pos(), Desc: desc})
				}
			}
		}
	}
	// Passthrough re-assignments extend binding sets: s2 := s.WithDump(d)
	// carries s's resource into s2. Iterate to cover chains.
	if f.spec.Passthrough == nil {
		return
	}
	for changed := true; changed; {
		changed = false
		for _, blk := range f.g.Blocks {
			for _, n := range blk.Nodes {
				as, ok := n.(*ast.AssignStmt)
				if !ok || len(as.Rhs) != 1 {
					continue
				}
				call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
				if !ok {
					continue
				}
				root := f.rootVar(call)
				if root == nil || !f.isPassthroughChain(call) {
					continue
				}
				for _, r := range f.byVar[root] {
					for _, lhs := range as.Lhs {
						v := f.lhsVar(lhs)
						if v != nil && !r.vars[v] {
							r.vars[v] = true
							f.byVar[v] = append(f.byVar[v], r)
							changed = true
						}
					}
				}
			}
		}
	}
}

// discoverAssign registers acquires on one (possibly tuple) assignment.
func (f *fn) discoverAssign(node ast.Node, lhs, rhs []ast.Expr) {
	bind := func(e ast.Expr, desc string) {
		r := &resource{
			id:      len(f.res),
			acquire: node,
			expr:    e,
			pos:     e.Pos(),
			desc:    desc,
			vars:    map[*types.Var]bool{},
			errVars: map[*types.Var]bool{},
			okVars:  map[*types.Var]bool{},
		}
		var target ast.Expr
		if len(rhs) == 1 && len(lhs) > 1 {
			target = lhs[0]
		} else if len(lhs) == len(rhs) {
			for i, r := range rhs {
				if r == e {
					target = lhs[i]
				}
			}
		} else if len(lhs) == 1 {
			target = lhs[0]
		}
		if target != nil {
			if v := f.lhsVar(target); v != nil {
				r.vars[v] = true
			}
		}
		if len(r.vars) == 0 {
			// Bound to blank or a non-variable (field, index): blank is
			// a discard; anything else is an immediate hand-off.
			if target != nil {
				if id, ok := target.(*ast.Ident); ok && id.Name == "_" {
					f.report(Finding{Kind: Discard, Pos: e.Pos(), AcquirePos: e.Pos(), Desc: desc})
				}
			}
			return
		}
		// Validity flags: sibling results of type error or bool.
		if len(rhs) == 1 && len(lhs) > 1 {
			for _, l := range lhs[1:] {
				v := f.lhsVar(l)
				if v == nil {
					continue
				}
				switch {
				case types.Identical(v.Type(), types.Universe.Lookup("error").Type()):
					r.errVars[v] = true
				case isBool(v.Type()):
					r.okVars[v] = true
				}
			}
		}
		f.res = append(f.res, r)
		f.acquires[node] = append(f.acquires[node], r)
		for v := range r.vars {
			f.byVar[v] = append(f.byVar[v], r)
		}
	}
	if len(rhs) == 1 {
		if desc, ok := f.isAcquire(rhs[0]); ok {
			bind(ast.Unparen(rhs[0]), desc)
		}
		return
	}
	for _, r := range rhs {
		if desc, ok := f.isAcquire(r); ok {
			bind(ast.Unparen(r), desc)
		}
	}
}

func (f *fn) isAcquire(e ast.Expr) (string, bool) {
	return f.spec.Acquire(f.info, ast.Unparen(e))
}

func (f *fn) lhsVar(e ast.Expr) *types.Var {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	if v, ok := f.info.Defs[id].(*types.Var); ok {
		return v
	}
	if v, ok := f.info.Uses[id].(*types.Var); ok {
		return v
	}
	return nil
}

func isBool(t types.Type) bool {
	basic, ok := t.Underlying().(*types.Basic)
	return ok && basic.Kind() == types.Bool
}

// rootVar unwraps a receiver chain of passthrough/benign calls and
// member selections down to the variable it is rooted at, or nil.
//
//	sp.WithEndpoint(x).WithDump(y).End(0)  →  sp
//	c.Release()                            →  c
func (f *fn) rootVar(call *ast.CallExpr) *types.Var {
	e := ast.Expr(call)
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.CallExpr:
			sel, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr)
			if !ok {
				return nil
			}
			e = sel.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.Ident:
			v, _ := f.info.Uses[x].(*types.Var)
			return v
		default:
			return nil
		}
	}
}

// isPassthroughChain reports whether every call in the receiver chain
// of call is a passthrough.
func (f *fn) isPassthroughChain(call *ast.CallExpr) bool {
	e := ast.Expr(call)
	for {
		c, ok := ast.Unparen(e).(*ast.CallExpr)
		if !ok {
			return true
		}
		if f.spec.Passthrough == nil || !f.spec.Passthrough(f.info, c) {
			return false
		}
		sel, ok := ast.Unparen(c.Fun).(*ast.SelectorExpr)
		if !ok {
			return false
		}
		e = sel.X
	}
}

// ---- transfer ----

// op is one classified resource event inside a statement.
type op struct {
	kind opKind
	res  *resource
	pos  token.Pos
}

type opKind int

const (
	opAcquire opKind = iota
	opRelease
	// opDeferRelease: defer l.Close() — the receiver is evaluated at
	// the defer statement, so only the handle held NOW is discharged.
	opDeferRelease
	// opDeferReleaseVar: defer func(){ l.Close() }() — the closure
	// reads l at exit, so the binding is covered from here on: handles
	// re-acquired into it later are discharged too.
	opDeferReleaseVar
	opEscape
	opBenign
	opOverwrite
)

// transfer runs one block's nodes over states, optionally reporting.
// It returns the block's out-state.
func (f *fn) transfer(blk *cfg.Block, states []state, reportPass bool) []state {
	for _, n := range blk.Nodes {
		for _, o := range f.classify(n) {
			s := states[o.res.id]
			switch o.kind {
			case opAcquire:
				if s&live != 0 && reportPass {
					f.report(Finding{Kind: Leak, Pos: o.res.pos, AcquirePos: o.res.pos, Desc: o.res.desc})
				}
				ns := live | s&noCover
				if s&noCover != 0 {
					// Some path reaches this acquire without a covering
					// deferred closure: the handle must discharge on
					// its own.
					ns |= uncovered
				}
				states[o.res.id] = ns
			case opOverwrite:
				if s&live != 0 && reportPass {
					f.report(Finding{Kind: LeakReassign, Pos: o.pos, AcquirePos: o.res.pos, Desc: o.res.desc})
				}
				states[o.res.id] = s & noCover
			case opRelease:
				if s&^noCover == 0 {
					break // not acquired on this path
				}
				if f.spec.ExactlyOnce && s&(released|deferredRel) != 0 && reportPass {
					f.report(Finding{Kind: DoubleRelease, Pos: o.pos, AcquirePos: o.res.pos, Desc: o.res.desc})
				}
				states[o.res.id] = (s &^ (live | uncovered)) | released
			case opDeferRelease:
				if s&^noCover == 0 {
					break
				}
				if f.spec.ExactlyOnce && s&(released|deferredRel) != 0 && reportPass {
					f.report(Finding{Kind: DoubleRelease, Pos: o.pos, AcquirePos: o.res.pos, Desc: o.res.desc})
				}
				states[o.res.id] = (s &^ (live | uncovered)) | deferredRel
			case opDeferReleaseVar:
				if s&^noCover == 0 {
					// Nothing acquired yet: the closure covers whatever
					// this binding holds at exit from here on.
					states[o.res.id] = s &^ noCover
					break
				}
				if f.spec.ExactlyOnce && s&(released|deferredRel) != 0 && reportPass {
					f.report(Finding{Kind: DoubleRelease, Pos: o.pos, AcquirePos: o.res.pos, Desc: o.res.desc})
				}
				// Keep live: a later overwrite still orphans THIS handle
				// (the closure reads the variable's final value), so the
				// reassign check must see it; clearing uncovered is what
				// silences the exit check.
				states[o.res.id] = (s &^ (uncovered | noCover)) | deferredRel
			case opEscape:
				if s&^noCover == 0 {
					break
				}
				if f.spec.ExactlyOnce && s&released != 0 && reportPass {
					f.report(Finding{Kind: UseAfterRelease, Pos: o.pos, AcquirePos: o.res.pos, Desc: o.res.desc})
				}
				states[o.res.id] = (s &^ (live | uncovered)) | escaped
			case opBenign:
				if s&^noCover == 0 {
					break
				}
				if f.spec.ExactlyOnce && s&released != 0 && s&live == 0 && reportPass {
					f.report(Finding{Kind: UseAfterRelease, Pos: o.pos, AcquirePos: o.res.pos, Desc: o.res.desc})
				}
			}
		}
	}
	return states
}

// refine sharpens the out-state along one branch edge using the
// block's condition (validity-flag and nil-test idioms).
func (f *fn) refine(blk *cfg.Block, succIdx int, states []state) []state {
	if blk.Cond == nil || len(blk.Succs) != 2 {
		return states
	}
	branch := succIdx == 0 // true edge first
	f.refineCond(blk.Cond, branch, states)
	return states
}

func (f *fn) refineCond(cond ast.Expr, branch bool, states []state) {
	switch c := ast.Unparen(cond).(type) {
	case *ast.UnaryExpr:
		if c.Op == token.NOT {
			f.refineCond(c.X, !branch, states)
		}
	case *ast.Ident:
		// if ok { ... }: resource invalid on the false edge. Closure
		// cover survives the kill — it belongs to the variable, not to
		// the binding being invalidated.
		if v, ok := f.info.Uses[c].(*types.Var); ok && !branch {
			for _, r := range f.res {
				if r.okVars[v] {
					states[r.id] &= noCover
				}
			}
		}
	case *ast.BinaryExpr:
		if c.Op != token.EQL && c.Op != token.NEQ {
			// err == nil && ... : conjunctions refine both sides on the
			// true edge; disjunctions refine both on the false edge.
			if (c.Op == token.LAND && branch) || (c.Op == token.LOR && !branch) {
				f.refineCond(c.X, branch, states)
				f.refineCond(c.Y, branch, states)
			}
			return
		}
		other := f.nilComparand(c)
		if other == nil {
			return
		}
		// nilSide is the edge on which the compared value IS nil:
		// for ==, the true edge; for !=, the false edge.
		isNilEdge := branch == (c.Op == token.EQL)
		switch x := ast.Unparen(other).(type) {
		case *ast.Ident:
			v, _ := f.info.Uses[x].(*types.Var)
			if v == nil {
				return
			}
			for _, r := range f.res {
				// err is nil → valid; err non-nil → invalid.
				if r.errVars[v] && !isNilEdge {
					states[r.id] &= noCover
				}
				// resource itself nil → nothing acquired.
				if r.vars[v] && isNilEdge {
					states[r.id] &= noCover
				}
			}
		case *ast.SelectorExpr:
			// c.Release == nil: no release obligation on the nil edge.
			if f.spec.ReleaseMember == "" || x.Sel.Name != f.spec.ReleaseMember {
				return
			}
			base, ok := ast.Unparen(x.X).(*ast.Ident)
			if !ok {
				return
			}
			v, _ := f.info.Uses[base].(*types.Var)
			if v == nil {
				return
			}
			for _, r := range f.res {
				if r.vars[v] && isNilEdge {
					states[r.id] &= noCover
				}
			}
		}
	}
}

// nilComparand returns the non-nil side of a comparison against nil.
func (f *fn) nilComparand(b *ast.BinaryExpr) ast.Expr {
	if f.isNil(b.Y) {
		return b.X
	}
	if f.isNil(b.X) {
		return b.Y
	}
	return nil
}

func (f *fn) isNil(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return false
	}
	_, isNil := f.info.Uses[id].(*types.Nil)
	return isNil
}
