// Package ctxdeadline flags unbounded retry/backoff loops.
//
// The recovery layer's contract (DESIGN.md §6) is that every
// transient-fault retry loop is bounded three ways: an attempt budget
// (RetryPolicy.MaxAttempts), a deadline (RetryPolicy.DumpDeadline,
// threaded as a time.Time), or an external cancellation signal. A retry
// loop with none of these turns a persistent fault into a wedged staging
// rank — and because ServeDump is collective, one wedged rank wedges the
// whole staging area until the watchdog fires.
//
// The analyzer looks for condition-less `for` loops that sleep between
// iterations — a call to time.Sleep or to a backoff helper
// (RetryPolicy.backoff or any method/function named backoff/Backoff) —
// and requires the loop to carry at least one exit bound:
//
//   - a deadline check: time.Until, or Before/After on time.Time values,
//     or a time.Time comparison;
//   - a cancellation check: <-ctx.Done() or ctx.Err();
//   - an attempt bound: a comparison mentioning the loop's counter
//     variable (for attempt := 0; ; attempt++ { ... attempt >= max ... }).
//
// A bound inside a switch or select clause bounds only the iterations
// that take that clause: the transient case's attempt budget does not
// bound a sibling case that waits out a restart. Such a statement
// counts as a bound only when every clause that does not return
// carries one. The branches of an if are not scoped this way: a bound
// under either branch counts for the whole loop.
//
// Loops with an explicit condition are exempt: `for time.Now().Before(d)`
// and `for i := 0; i < max; i++` bound themselves.
package ctxdeadline

import (
	"go/ast"
	"go/token"
	"go/types"

	"predata/internal/analysis"
)

// Analyzer is the ctxdeadline pass.
var Analyzer = &analysis.Analyzer{
	Name: "ctxdeadline",
	Doc: "flags retry/backoff loops without a deadline, cancellation, or " +
		"attempt bound",
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			loop, ok := n.(*ast.ForStmt)
			if !ok || loop.Cond != nil {
				return true
			}
			check(pass, loop)
			return true
		})
	}
	return nil
}

func check(pass *analysis.Pass, loop *ast.ForStmt) {
	sleeps := false
	ast.Inspect(loop.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // a nested closure is not this loop's control flow
		}
		if inner, ok := n.(*ast.ForStmt); ok && inner.Cond == nil {
			// A nested unbounded loop is checked on its own.
			check(pass, inner)
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if fn := analysis.CalleeFunc(pass.TypesInfo, call); fn != nil &&
				(analysis.FuncIs(fn, "time", "Sleep") || isBackoff(fn)) {
				sleeps = true
			}
		}
		return true
	})
	b := bounds{info: pass.TypesInfo, counters: counterVars(pass.TypesInfo, loop)}
	if sleeps && !b.in(loop.Body) {
		pass.Reportf(loop.Pos(),
			"retry loop sleeps between attempts but has no deadline, cancellation, "+
				"or attempt bound; thread a deadline or check the attempt budget")
	}
}

// bounds finds a loop's exit bounds.
type bounds struct {
	info     *types.Info
	counters map[*types.Var]bool
}

// in reports whether n holds a bound. A switch or select holds one only
// when all its clauses are bounded; a select's channel operands,
// evaluated on every pass, bound all of them.
func (b bounds) in(n ast.Node) bool {
	if n == nil {
		return false
	}
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ForStmt:
			return n.Cond != nil // a nested unbounded loop bounds nothing here
		case *ast.SwitchStmt:
			found = b.in(n.Init) || b.in(n.Tag) || b.clauses(n.Body, true)
			return false
		case *ast.TypeSwitchStmt:
			found = b.in(n.Init) || b.clauses(n.Body, true)
			return false
		case *ast.SelectStmt:
			for _, c := range n.Body.List {
				found = found || b.in(c.(*ast.CommClause).Comm)
			}
			found = found || b.clauses(n.Body, false)
			return false
		case *ast.CallExpr:
			fn := analysis.CalleeFunc(b.info, n)
			found = fn != nil && (analysis.FuncIs(fn, "time", "Until") || isTimeCmpMethod(fn) || isCtxSignal(fn))
		case *ast.BinaryExpr:
			found = isComparison(n.Op) && (mentionsVar(b.info, n, b.counters) || comparesTime(b.info, n))
		}
		return !found
	})
	return found
}

// clauses reports whether every clause of a switch or select body is
// bounded: it returns, holds a bound, or is chosen only after a case
// expression holding one was evaluated. A switch evaluates its case
// expressions in order and takes its default, or an implicit empty one,
// last.
func (b bounds) clauses(body *ast.BlockStmt, isSwitch bool) bool {
	seen := false // a case expression evaluated so far holds a bound
	bounded := func(stmts []ast.Stmt) bool {
		if n := len(stmts); seen || n > 0 && isReturn(stmts[n-1]) {
			return true
		}
		for _, s := range stmts {
			if b.in(s) {
				return true
			}
		}
		return false
	}
	var dflt []ast.Stmt
	for _, c := range body.List {
		switch c := c.(type) {
		case *ast.CaseClause:
			if c.List == nil {
				dflt = c.Body
				continue
			}
			for _, e := range c.List {
				seen = seen || b.in(e)
			}
			if !bounded(c.Body) {
				return false
			}
		case *ast.CommClause:
			if !bounded(c.Body) {
				return false
			}
		}
	}
	return !isSwitch || bounded(dflt)
}

func isReturn(s ast.Stmt) bool {
	_, ok := s.(*ast.ReturnStmt)
	return ok
}

// counterVars collects the variables advanced by the loop's init/post
// clauses — the attempt counters a bound may reference.
func counterVars(info *types.Info, loop *ast.ForStmt) map[*types.Var]bool {
	vars := map[*types.Var]bool{}
	collect := func(s ast.Stmt) {
		switch s := s.(type) {
		case *ast.AssignStmt:
			for _, lhs := range s.Lhs {
				if id, ok := lhs.(*ast.Ident); ok {
					if v, ok := objOf(info, id).(*types.Var); ok {
						vars[v] = true
					}
				}
			}
		case *ast.IncDecStmt:
			if id, ok := s.X.(*ast.Ident); ok {
				if v, ok := objOf(info, id).(*types.Var); ok {
					vars[v] = true
				}
			}
		}
	}
	if loop.Init != nil {
		collect(loop.Init)
	}
	if loop.Post != nil {
		collect(loop.Post)
	}
	return vars
}

func objOf(info *types.Info, id *ast.Ident) types.Object {
	if o := info.Defs[id]; o != nil {
		return o
	}
	return info.Uses[id]
}

func isComparison(op token.Token) bool {
	switch op {
	case token.LSS, token.LEQ, token.GTR, token.GEQ, token.EQL, token.NEQ:
		return true
	}
	return false
}

// mentionsVar reports whether the expression references any of vars.
func mentionsVar(info *types.Info, e ast.Expr, vars map[*types.Var]bool) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if v, ok := info.Uses[id].(*types.Var); ok && vars[v] {
				found = true
			}
		}
		return !found
	})
	return found
}

// comparesTime reports whether either operand is a time.Time — a
// deadline comparison spelled with operators (Go 1.9+ time.Time values
// are comparable, though Before/After are idiomatic).
func comparesTime(info *types.Info, b *ast.BinaryExpr) bool {
	isTime := func(e ast.Expr) bool {
		tv, ok := info.Types[e]
		return ok && tv.Type != nil && analysis.NamedTypeIs(tv.Type, "time", "Time")
	}
	return isTime(b.X) || isTime(b.Y)
}

// isBackoff matches backoff helpers by name: RetryPolicy.backoff and any
// sibling spelled backoff/Backoff.
func isBackoff(fn *types.Func) bool {
	return fn.Name() == "backoff" || fn.Name() == "Backoff"
}

// isTimeCmpMethod matches (time.Time).Before/After — the idiomatic
// deadline checks.
func isTimeCmpMethod(fn *types.Func) bool {
	return (fn.Name() == "Before" || fn.Name() == "After") &&
		analysis.MethodOn(fn, "time", "Time")
}

// isCtxSignal matches context.Context.Done/Err.
func isCtxSignal(fn *types.Func) bool {
	if fn.Name() != "Done" && fn.Name() != "Err" {
		return false
	}
	return fn.Pkg() != nil && fn.Pkg().Path() == "context" || analysis.MethodOn(fn, "context", "Context")
}
