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
// The loop is read from internal/analysis/cfg: it is reported when some
// path through its body sleeps and comes back to the loop's head, the
// next iteration, without passing a node that holds a bound. A bound on
// one branch therefore bounds only the paths through that branch: the
// transient case's attempt budget does not bound a sibling branch that
// waits out a restart. A switch tests its case expressions in order, so
// a bound in one guards every later clause, and a select evaluates its
// channel operands before it picks a clause, so <-ctx.Done() there
// bounds every clause. A path that leaves the loop ends there.
//
// Loops with an explicit condition are exempt: `for time.Now().Before(d)`
// and `for i := 0; i < max; i++` bound themselves.
package ctxdeadline

import (
	"go/ast"
	"go/token"
	"go/types"

	"predata/internal/analysis"
	"predata/internal/analysis/cfg"
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
		cfg.Bodies(f, func(body *ast.BlockStmt) { checkBody(pass, body) })
	}
	return nil
}

// checkBody checks the condition-less loops of one function body; those
// of its function literals are checked with the literal's body.
func checkBody(pass *analysis.Pass, body *ast.BlockStmt) {
	var loops []*ast.ForStmt
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ForStmt:
			if n.Cond == nil {
				loops = append(loops, n)
			}
		}
		return true
	})
	if len(loops) == 0 {
		return
	}
	g := cfg.New(body, pass.TypesInfo)
	for _, loop := range loops {
		if unbounded(pass.TypesInfo, g, loop) {
			pass.Reportf(loop.Pos(),
				"retry loop sleeps between attempts but has no deadline, cancellation, "+
					"or attempt bound; thread a deadline or check the attempt budget")
		}
	}
}

// unbounded reports whether some path from loop's head through its body
// sleeps and returns to the head without passing a bound.
func unbounded(info *types.Info, g *cfg.Graph, loop *ast.ForStmt) bool {
	var head *cfg.Block
	for _, blk := range g.Blocks {
		if len(blk.Nodes) > 0 && blk.Nodes[0] == loop {
			head = blk
		}
	}
	if head == nil {
		return false
	}
	counters := counterVars(info, loop)
	inLoop := func(n ast.Node) bool {
		return n == loop.Post || loop.Body.Pos() <= n.Pos() && n.End() <= loop.Body.End()
	}
	type step struct {
		blk   *cfg.Block
		slept bool
	}
	seen := map[step]bool{}
	var work []step
	for _, succ := range head.Succs {
		work = append(work, step{succ, false})
	}
	for len(work) > 0 {
		st := work[len(work)-1]
		work = work[:len(work)-1]
		if st.blk == head {
			if st.slept {
				return true
			}
			continue
		}
		if seen[st] {
			continue
		}
		seen[st] = true
		passes := true
		for _, n := range st.blk.Nodes {
			sleeps, bound := scan(info, counters, n)
			if !inLoop(n) || bound {
				passes = false // left the loop, or bounded
				break
			}
			st.slept = st.slept || sleeps
		}
		if passes {
			for _, succ := range st.blk.Succs {
				work = append(work, step{succ, st.slept})
			}
		}
	}
	return false
}

// scan reports whether node n sleeps, calling time.Sleep or a backoff
// helper (RetryPolicy.backoff or any sibling spelled backoff/Backoff),
// and whether it holds a bound: a deadline or cancellation check, or a
// comparison of one of the loop's counters.
func scan(info *types.Info, counters map[*types.Var]bool, n ast.Node) (sleeps, bound bool) {
	cfg.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if fn := analysis.CalleeFunc(info, n); fn != nil {
				sleeps = sleeps || analysis.FuncIs(fn, "time", "Sleep") || fn.Name() == "backoff" || fn.Name() == "Backoff"
				bound = bound || analysis.FuncIs(fn, "time", "Until") || isTimeCmpMethod(fn) || isCtxSignal(fn)
			}
		case *ast.BinaryExpr:
			bound = bound || isComparison(n.Op) && (mentionsVar(info, n, counters) || comparesTime(info, n))
		}
		return true
	})
	return sleeps, bound
}

// counterVars collects the variables advanced by the loop's init/post
// clauses — the attempt counters a bound may reference.
func counterVars(info *types.Info, loop *ast.ForStmt) map[*types.Var]bool {
	var targets []ast.Expr
	for _, s := range []ast.Stmt{loop.Init, loop.Post} {
		switch s := s.(type) {
		case *ast.AssignStmt:
			targets = append(targets, s.Lhs...)
		case *ast.IncDecStmt:
			targets = append(targets, s.X)
		}
	}
	vars := map[*types.Var]bool{}
	for _, e := range targets {
		if id, ok := e.(*ast.Ident); ok {
			if v, ok := info.ObjectOf(id).(*types.Var); ok {
				vars[v] = true
			}
		}
	}
	return vars
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
