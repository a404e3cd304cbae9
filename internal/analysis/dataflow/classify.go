package dataflow

import (
	"go/ast"
	"go/types"
)

// classify turns one CFG node into its ordered resource events. The
// result is cached: the fixpoint loop and the reporting pass revisit
// nodes many times.
func (f *fn) classify(n ast.Node) []op {
	if f.ops == nil {
		f.ops = map[ast.Node][]op{}
	}
	if ops, ok := f.ops[n]; ok {
		return ops
	}
	var ops []op
	emit := func(k opKind, r *resource, pos ast.Node) {
		ops = append(ops, op{kind: k, res: r, pos: pos.Pos()})
	}

	switch n := n.(type) {
	case *ast.DeferStmt:
		f.classifyDefer(n, emit)

	case *ast.AssignStmt:
		f.classifyAssign(n, n.Lhs, n.Rhs, emit)

	case *ast.DeclStmt:
		if gd, ok := n.Decl.(*ast.GenDecl); ok {
			for _, sp := range gd.Specs {
				if vs, ok := sp.(*ast.ValueSpec); ok && len(vs.Values) > 0 {
					lhs := make([]ast.Expr, len(vs.Names))
					for i, name := range vs.Names {
						lhs[i] = name
					}
					f.classifyAssign(n, lhs, vs.Values, emit)
				}
			}
		}

	case *ast.RangeStmt:
		f.walkExpr(n.X, emit)
		for _, tgt := range []ast.Expr{n.Key, n.Value} {
			if tgt == nil {
				continue
			}
			if v := f.lhsVar(tgt); v != nil {
				for _, r := range f.byVar[v] {
					emit(opOverwrite, r, tgt)
				}
			}
		}

	case *ast.GoStmt:
		// The goroutine runs detached; anything it touches is handed off.
		f.walkExpr(n.Call, emit)

	case *ast.ExprStmt:
		f.walkExpr(n.X, emit)

	case *ast.SendStmt:
		f.walkExpr(n.Chan, emit)
		f.walkExpr(n.Value, emit)

	case *ast.ReturnStmt:
		for _, e := range n.Results {
			f.walkExpr(e, emit)
		}

	case *ast.IncDecStmt:
		f.walkExpr(n.X, emit)

	case ast.Expr:
		f.walkExpr(n, emit)

	case *ast.BranchStmt, *ast.EmptyStmt, *ast.ForStmt, *ast.SelectStmt:
		// No uses: a loop or select statement only marks its head; its
		// condition, operands and communications are nodes of their own.

	default:
		// Unanticipated statement kinds: find uses generically so a
		// tracked value never slips through invisibly; everything is
		// an escape.
		ast.Inspect(n, func(c ast.Node) bool {
			if id, ok := c.(*ast.Ident); ok {
				if v, ok := f.info.Uses[id].(*types.Var); ok {
					for _, r := range f.byVar[v] {
						emit(opEscape, r, id)
					}
				}
			}
			return true
		})
	}

	if rs := f.acquires[n]; rs != nil {
		for _, r := range rs {
			emit(opAcquire, r, r.expr)
		}
	}
	f.ops[n] = ops
	return ops
}

// classifyAssign handles assignments and var declarations: right-hand
// side uses first, then left-hand side overwrites. Acquire bindings
// and passthrough re-bindings are exempt from the overwrite rule (the
// resource is arriving, not being dropped — the acquire op itself
// reports a still-live overwrite).
func (f *fn) classifyAssign(node ast.Node, lhs, rhs []ast.Expr, emit func(opKind, *resource, ast.Node)) {
	acquired := map[*resource]bool{}
	for _, r := range f.acquires[node] {
		acquired[r] = true
	}
	// Resources flowing through a passthrough re-binding keep their
	// state: sp = sp.WithDump(d) is not an overwrite of sp.
	passRes := map[*resource]bool{}
	if len(rhs) == 1 {
		if call, ok := ast.Unparen(rhs[0]).(*ast.CallExpr); ok && f.isPassthroughChain(call) {
			if root := f.rootVar(call); root != nil {
				for _, r := range f.byVar[root] {
					passRes[r] = true
				}
			}
		}
	}
	for _, e := range rhs {
		if _, ok := f.isAcquire(e); ok {
			// The acquire call itself is not a use of the resource; its
			// arguments still are.
			if call, ok := ast.Unparen(e).(*ast.CallExpr); ok {
				for _, a := range call.Args {
					f.walkExpr(a, emit)
				}
				continue
			}
			if lit, ok := ast.Unparen(e).(*ast.CompositeLit); ok {
				for _, el := range lit.Elts {
					f.walkExpr(el, emit)
				}
				continue
			}
		}
		f.walkExpr(e, emit)
	}
	for _, l := range lhs {
		switch tgt := ast.Unparen(l).(type) {
		case *ast.Ident:
			if v := f.lhsVar(tgt); v != nil {
				for _, r := range f.byVar[v] {
					if !acquired[r] && !passRes[r] {
						emit(opOverwrite, r, tgt)
					}
				}
			}
		default:
			// Index/selector targets: writing INTO a tracked value
			// (c.Shed = x) is benign; the base expression's uses are
			// classified normally otherwise (m[lease] = x escapes).
			if sel, ok := tgt.(*ast.SelectorExpr); ok {
				if base, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
					if v, ok := f.info.Uses[base].(*types.Var); ok && len(f.byVar[v]) > 0 {
						for _, r := range f.byVar[v] {
							emit(opBenign, r, sel)
						}
						continue
					}
				}
			}
			f.walkExpr(tgt, emit)
		}
	}
}

// classifyDefer handles defer statements. A deferred release —
// directly (defer l.Release()) or through a closure whose body
// releases the value — guarantees release at function exit on every
// path from here on. The two forms differ on rebinds: the direct form
// evaluates its receiver at the defer statement, so it discharges only
// the current handle, while the closure form reads the variable at
// exit and therefore covers values re-acquired into it later too.
// Anything else deferred with the resource is a hand-off.
func (f *fn) classifyDefer(n *ast.DeferStmt, emit func(opKind, *resource, ast.Node)) {
	call := n.Call
	// defer l.Release() / defer sp.WithDump(d).End(0)
	if root := f.releaseRoot(call); root != nil {
		for _, r := range f.byVar[root] {
			emit(opDeferRelease, r, call)
		}
		for _, a := range call.Args {
			f.walkExpr(a, emit)
		}
		return
	}
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		// Deferred closure: vars whose release the body performs are
		// deferred releases; other captured tracked vars are hand-offs.
		releasedVars := map[*types.Var]bool{}
		ast.Inspect(lit.Body, func(c ast.Node) bool {
			if inner, ok := c.(*ast.CallExpr); ok {
				if v := f.releaseRoot(inner); v != nil {
					releasedVars[v] = true
				}
			}
			return true
		})
		seen := map[*resource]bool{}
		ast.Inspect(lit.Body, func(c ast.Node) bool {
			id, ok := c.(*ast.Ident)
			if !ok {
				return true
			}
			v, ok := f.info.Uses[id].(*types.Var)
			if !ok {
				return true
			}
			for _, r := range f.byVar[v] {
				if seen[r] {
					continue
				}
				seen[r] = true
				if releasedVars[v] {
					emit(opDeferReleaseVar, r, id)
				} else {
					emit(opEscape, r, id)
				}
			}
			return true
		})
		// Arguments to the deferred closure are evaluated now and
		// retained: hand-offs.
		for _, a := range call.Args {
			f.walkExpr(a, emit)
		}
		return
	}
	// defer f(lease), defer lease.Unknown(): hand-offs.
	f.walkExpr(call, emit)
}

// walkExpr classifies every tracked-variable use inside e. The default
// for an unrecognized context is escape: hand-off ends the obligation,
// which errs toward silence rather than false leaks.
func (f *fn) walkExpr(e ast.Expr, emit func(opKind, *resource, ast.Node)) {
	if e == nil {
		return
	}
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if v, ok := f.info.Uses[e].(*types.Var); ok {
			for _, r := range f.byVar[v] {
				emit(opEscape, r, e)
			}
		}

	case *ast.CallExpr:
		// Release / passthrough / benign chains rooted at a tracked var.
		if root := f.releaseRoot(e); root != nil {
			for _, r := range f.byVar[root] {
				emit(opRelease, r, e)
			}
			f.walkChainArgs(e, emit)
			return
		}
		if root := f.benignCallRoot(e); root != nil {
			for _, r := range f.byVar[root] {
				emit(opBenign, r, e)
			}
			f.walkChainArgs(e, emit)
			return
		}
		// Unknown call: the function expression and every argument are
		// walked; tracked values reaching them escape.
		f.walkExpr(e.Fun, emit)
		for _, a := range e.Args {
			f.walkExpr(a, emit)
		}

	case *ast.SelectorExpr:
		base, ok := ast.Unparen(e.X).(*ast.Ident)
		if !ok {
			f.walkExpr(e.X, emit)
			return
		}
		v, ok := f.info.Uses[base].(*types.Var)
		if !ok || len(f.byVar[v]) == 0 {
			return
		}
		// Reading the release member or a method as a value hands the
		// obligation to whoever receives it; a plain data field read is
		// benign.
		kind := opBenign
		if e.Sel.Name == f.spec.ReleaseMember {
			kind = opEscape
		} else if _, isFunc := f.info.Uses[e.Sel].(*types.Func); isFunc {
			kind = opEscape
		}
		for _, r := range f.byVar[v] {
			emit(kind, r, e)
		}

	case *ast.BinaryExpr:
		// Comparisons against nil are guards, not uses.
		if other := f.nilComparand(e); other != nil {
			if f.guardTarget(other) != nil {
				for _, r := range f.byVar[f.guardTarget(other)] {
					emit(opBenign, r, e)
				}
				return
			}
		}
		f.walkExpr(e.X, emit)
		f.walkExpr(e.Y, emit)

	case *ast.UnaryExpr:
		f.walkExpr(e.X, emit)

	case *ast.StarExpr:
		f.walkExpr(e.X, emit)

	case *ast.IndexExpr:
		f.walkExpr(e.X, emit)
		f.walkExpr(e.Index, emit)

	case *ast.IndexListExpr:
		f.walkExpr(e.X, emit)
		for _, i := range e.Indices {
			f.walkExpr(i, emit)
		}

	case *ast.SliceExpr:
		f.walkExpr(e.X, emit)
		f.walkExpr(e.Low, emit)
		f.walkExpr(e.High, emit)
		f.walkExpr(e.Max, emit)

	case *ast.TypeAssertExpr:
		f.walkExpr(e.X, emit)

	case *ast.CompositeLit:
		for _, el := range e.Elts {
			f.walkExpr(el, emit)
		}

	case *ast.KeyValueExpr:
		f.walkExpr(e.Value, emit)

	case *ast.FuncLit:
		// A non-deferred closure capturing a tracked value may run at
		// any time (or never): hand-off.
		seen := map[*resource]bool{}
		ast.Inspect(e.Body, func(c ast.Node) bool {
			id, ok := c.(*ast.Ident)
			if !ok {
				return true
			}
			if v, ok := f.info.Uses[id].(*types.Var); ok {
				for _, r := range f.byVar[v] {
					if !seen[r] {
						seen[r] = true
						emit(opEscape, r, id)
					}
				}
			}
			return true
		})
	}
}

// walkChainArgs walks the arguments of every call in a receiver chain
// (the chain itself was already classified).
func (f *fn) walkChainArgs(call *ast.CallExpr, emit func(opKind, *resource, ast.Node)) {
	e := ast.Expr(call)
	for {
		c, ok := ast.Unparen(e).(*ast.CallExpr)
		if !ok {
			return
		}
		for _, a := range c.Args {
			f.walkExpr(a, emit)
		}
		sel, ok := ast.Unparen(c.Fun).(*ast.SelectorExpr)
		if !ok {
			return
		}
		e = sel.X
	}
}

// guardTarget resolves a nil-guard operand — the resource variable
// itself or its release member — to the guarded variable.
func (f *fn) guardTarget(e ast.Expr) *types.Var {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		if v, ok := f.info.Uses[x].(*types.Var); ok && len(f.byVar[v]) > 0 {
			return v
		}
	case *ast.SelectorExpr:
		if f.spec.ReleaseMember == "" || x.Sel.Name != f.spec.ReleaseMember {
			return nil
		}
		if base, ok := ast.Unparen(x.X).(*ast.Ident); ok {
			if v, ok := f.info.Uses[base].(*types.Var); ok && len(f.byVar[v]) > 0 {
				return v
			}
		}
	}
	return nil
}

// releaseRoot returns the tracked variable at the root of a release
// call's receiver chain (passthroughs permitted in between), or nil.
func (f *fn) releaseRoot(call *ast.CallExpr) *types.Var {
	if !f.spec.Release(f.info, call) {
		return nil
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	return f.chainRoot(sel.X)
}

// benignCallRoot returns the tracked root of a benign or passthrough
// call chain, or nil.
func (f *fn) benignCallRoot(call *ast.CallExpr) *types.Var {
	isBenign := f.spec.Benign != nil && f.spec.Benign(f.info, call)
	isPass := f.spec.Passthrough != nil && f.spec.Passthrough(f.info, call)
	if !isBenign && !isPass {
		return nil
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	return f.chainRoot(sel.X)
}

// chainRoot unwraps a receiver chain of passthrough calls down to the
// tracked variable it roots at, or nil.
func (f *fn) chainRoot(e ast.Expr) *types.Var {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.CallExpr:
			if f.spec.Passthrough == nil || !f.spec.Passthrough(f.info, x) {
				return nil
			}
			sel, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr)
			if !ok {
				return nil
			}
			e = sel.X
		case *ast.Ident:
			v, ok := f.info.Uses[x].(*types.Var)
			if !ok || len(f.byVar[v]) == 0 {
				return nil
			}
			return v
		default:
			return nil
		}
	}
}
