// Package typederr flags identity comparisons against the project's
// sentinel errors where errors.Is (or errors.As) is required.
//
// The fabric and faults packages return *wrapped* sentinels —
// fmt.Errorf("...: %w", faults.ErrTransient) — so `err ==
// faults.ErrTransient` is almost always a latent bug: it compiles, it
// even passes tests that construct the sentinel directly, and then it
// silently drops every real, wrapped fault at runtime. PR 1's recovery
// paths (transient retry, crash reroute, shutdown propagation) all hinge
// on wrapped-sentinel classification, which makes this the highest-value
// invariant in the suite.
//
// Flagged:
//
//	err == faults.ErrTransient        // use errors.Is(err, faults.ErrTransient)
//	err != fabric.ErrShutdown         // use !errors.Is(err, fabric.ErrShutdown)
//	switch err { case faults.ErrEndpointDown: ... }
//
// Not flagged: comparisons with nil, comparisons between two sentinels
// (registry logic), and sentinels outside this module (stdlib contracts
// such as io.EOF are the caller's business).
//
// Each ==/!= finding names the errors.Is form that replaces it; the
// rewrite is left to the author.
package typederr

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"predata/internal/analysis"
)

// Analyzer is the typederr pass.
var Analyzer = &analysis.Analyzer{
	Name: "typederr",
	Doc: "flags ==/!= and switch comparisons against predata sentinel errors; " +
		"wrapped errors require errors.Is",
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BinaryExpr:
				checkBinary(pass, n)
			case *ast.SwitchStmt:
				checkSwitch(pass, n)
			}
			return true
		})
	}
	return nil
}

// sentinel returns the sentinel-error variable an expression refers to,
// or nil: a package-level var of interface type error, named Err*,
// defined in this module.
func sentinel(info *types.Info, e ast.Expr) *types.Var {
	var id *ast.Ident
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		id = e
	case *ast.SelectorExpr:
		id = e.Sel
	default:
		return nil
	}
	v, ok := info.Uses[id].(*types.Var)
	if !ok || v.Pkg() == nil || !analysis.InModule(v.Pkg()) {
		return nil
	}
	if !strings.HasPrefix(v.Name(), "Err") {
		return nil
	}
	// Package-level: its parent scope is the package scope.
	if v.Parent() != v.Pkg().Scope() {
		return nil
	}
	if !types.Identical(v.Type(), types.Universe.Lookup("error").Type()) {
		return nil
	}
	return v
}

func checkBinary(pass *analysis.Pass, b *ast.BinaryExpr) {
	if b.Op != token.EQL && b.Op != token.NEQ {
		return
	}
	xs := sentinel(pass.TypesInfo, b.X)
	ys := sentinel(pass.TypesInfo, b.Y)
	if xs == nil && ys == nil {
		return
	}
	if xs != nil && ys != nil {
		return // sentinel-to-sentinel identity is fine
	}
	errExpr, sentExpr := b.Y, b.X
	if ys != nil {
		errExpr, sentExpr = b.X, b.Y
	}
	op, neg := "==", ""
	if b.Op == token.NEQ {
		op, neg = "!=", "!"
	}
	fixed := fmt.Sprintf("%serrors.Is(%s, %s)", neg,
		types.ExprString(errExpr), types.ExprString(sentExpr))
	pass.Report(analysis.Diagnostic{
		Pos: b.Pos(),
		End: b.End(),
		Message: fmt.Sprintf(
			"comparison %s %s %s breaks on wrapped errors; use %s",
			types.ExprString(b.X), op, types.ExprString(b.Y), fixed),
	})
}

func checkSwitch(pass *analysis.Pass, s *ast.SwitchStmt) {
	if s.Tag == nil {
		// switch { case err == X: } — the binary case handles it.
		return
	}
	// Only error-typed tags matter.
	tv, ok := pass.TypesInfo.Types[s.Tag]
	if !ok || tv.Type == nil ||
		!types.Identical(tv.Type, types.Universe.Lookup("error").Type()) {
		return
	}
	for _, clause := range s.Body.List {
		cc, ok := clause.(*ast.CaseClause)
		if !ok {
			continue
		}
		for _, e := range cc.List {
			if v := sentinel(pass.TypesInfo, e); v != nil {
				pass.Report(analysis.Diagnostic{
					Pos: e.Pos(),
					End: e.End(),
					Message: fmt.Sprintf(
						"switch case %s compares error identity and breaks on wrapped errors; "+
							"use errors.Is(%s, %s) in an if/else chain",
						types.ExprString(e), types.ExprString(s.Tag), types.ExprString(e)),
				})
			}
		}
	}
}
