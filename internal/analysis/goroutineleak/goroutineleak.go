// Package goroutineleak flags `go` statements in non-test code that have
// no visible join or completion mechanism.
//
// The staging stack is collective: a worker goroutine that outlives its
// dump (because nothing waits for it) either leaks per dump — fatal at
// the paper's 100+-dump runs — or races the next dump's state. Every
// goroutine in the stack therefore participates in exactly one of the
// accepted join protocols, and this analyzer enforces the pattern:
//
//   - WaitGroup: the body calls Done (usually deferred) on a
//     sync.WaitGroup, or an errgroup-style Group.Go spawns it;
//   - channel hand-off: the body sends on or closes a channel captured
//     from the enclosing scope, so a consumer observes completion;
//   - cancellation: the body receives from a done channel or checks
//     ctx.Done()/ctx.Err(), so shutdown reaches it.
//
// `go` on a named function or method is accepted when the callee is
// package-local and its body satisfies the same rules; calls into other
// packages are assumed managed by their owner.
//
// The analyzer also flags goroutine bodies that reference the range/for
// variable of an enclosing loop instead of taking it as an argument.
// Go 1.22 made each iteration's variable distinct, so this is no longer
// the classic aliasing bug, but the suite still rejects it: the
// pass-as-argument form keeps the dependency explicit and survives
// backports to pre-1.22 toolchains.
//
// Test files are exempt — tests routinely spawn short-lived helpers the
// t.Cleanup machinery already scopes.
package goroutineleak

import (
	"go/ast"
	"go/token"
	"go/types"

	"predata/internal/analysis"
)

// Analyzer is the goroutineleak pass.
var Analyzer = &analysis.Analyzer{
	Name: "goroutineleak",
	Doc: "flags go statements without a join/completion mechanism and " +
		"goroutines capturing loop variables",
	Run: run,
}

func run(pass *analysis.Pass) error {
	// Named functions defined in this package, for go f() resolution.
	decls := map[*types.Func]*ast.FuncDecl{}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
					decls[fn] = fd
				}
			}
		}
	}
	for _, f := range pass.Files {
		if analysis.IsTestFile(pass.Fset, f.Pos()) {
			continue
		}
		var loopVars []map[*types.Var]bool // stack of enclosing loop variables
		var walk func(n ast.Node) bool
		walk = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.RangeStmt:
				vars := map[*types.Var]bool{}
				for _, e := range []ast.Expr{n.Key, n.Value} {
					if id, ok := e.(*ast.Ident); ok && id != nil {
						if v, ok := pass.TypesInfo.Defs[id].(*types.Var); ok {
							vars[v] = true
						}
					}
				}
				loopVars = append(loopVars, vars)
				ast.Inspect(n.Body, walk)
				loopVars = loopVars[:len(loopVars)-1]
				return false
			case *ast.ForStmt:
				vars := map[*types.Var]bool{}
				if init, ok := n.Init.(*ast.AssignStmt); ok {
					for _, lhs := range init.Lhs {
						if id, ok := lhs.(*ast.Ident); ok {
							if v, ok := pass.TypesInfo.Defs[id].(*types.Var); ok {
								vars[v] = true
							}
						}
					}
				}
				loopVars = append(loopVars, vars)
				ast.Inspect(n.Body, walk)
				loopVars = loopVars[:len(loopVars)-1]
				return false
			case *ast.GoStmt:
				checkGo(pass, n, decls, loopVars)
				return true
			}
			return true
		}
		ast.Inspect(f, walk)
	}
	return nil
}

func checkGo(pass *analysis.Pass, g *ast.GoStmt, decls map[*types.Func]*ast.FuncDecl, loopVars []map[*types.Var]bool) {
	var body *ast.BlockStmt
	switch fun := ast.Unparen(g.Call.Fun).(type) {
	case *ast.FuncLit:
		body = fun.Body
	default:
		fn := analysis.CalleeFunc(pass.TypesInfo, g.Call)
		if fn == nil {
			return // dynamic call; nothing to inspect
		}
		fd, ok := decls[fn]
		if !ok {
			return // other package owns the protocol
		}
		body = fd.Body
	}
	if body == nil {
		return
	}

	// Loop-variable capture: only meaningful for literals (named funcs
	// cannot capture).
	if lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit); ok {
		reported := map[*types.Var]bool{}
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			v, ok := pass.TypesInfo.Uses[id].(*types.Var)
			if !ok || reported[v] {
				return true
			}
			for _, frame := range loopVars {
				if frame[v] {
					reported[v] = true
					pass.Reportf(id.Pos(),
						"goroutine captures loop variable %s; pass it as an argument", v.Name())
				}
			}
			return true
		})
	}

	if !hasJoin(pass.TypesInfo, body) {
		pass.Reportf(g.Pos(),
			"goroutine has no join mechanism (WaitGroup Done, channel send/close, "+
				"or done-channel/context check); it cannot be awaited or shut down")
	}
}

// hasJoin scans a goroutine body for any accepted completion protocol.
func hasJoin(info *types.Info, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.SendStmt:
			found = true // hand-off: a consumer observes this send
		case *ast.UnaryExpr:
			// Receiving is a completion signal when it is from a done
			// channel or similar; accept any receive — the goroutine is
			// demonstrably coupled to another's lifecycle.
			if n.Op == token.ARROW {
				found = true
			}
		case *ast.RangeStmt:
			// for range ch drains until close: coupled to the producer.
			if tv, ok := info.Types[n.X]; ok && tv.Type != nil {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					found = true
				}
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "close" {
				if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
					found = true
					return false
				}
			}
			fn := analysis.CalleeFunc(info, n)
			if fn == nil {
				return true
			}
			if fn.Name() == "Done" && analysis.MethodOn(fn, "sync", "WaitGroup") {
				found = true
			}
			if (fn.Name() == "Done" || fn.Name() == "Err") && fromContext(fn) {
				found = true
			}
		}
		return !found
	})
	return found
}

func fromContext(fn *types.Func) bool {
	return fn.Pkg() != nil && fn.Pkg().Path() == "context" || analysis.MethodOn(fn, "context", "Context")
}
