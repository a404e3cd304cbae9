// Package chunkrelease proves that every staging.Chunk carrying a
// Release hook fires it exactly once.
//
// Chunk.Release returns the chunk's memory-budget credits and, for a
// chunk of a block-mapped dump, acks its writer's region, after which
// the writer packs a later dump into the same frame. A missed call
// leaks budget bytes and pins the region, a double call corrupts the
// accountant, and a use after Release may read a frame its writer is
// refilling.
//
// Tracked chunks are those born in the function: staging.DecodeChunk
// results and staging.Chunk composite literals that set Release. A
// path discharges the obligation by calling chunk.Release(), by
// handing the chunk off (return, channel send, store, call argument,
// closure capture, reading .Release as a value), or by proving there
// is nothing to release (a nil test of .Release or of the error paired
// with DecodeChunk). Unlike lease releases, Release here is NOT
// idempotent by contract: double releases and uses after release are
// flagged too. Test files are exempt.
package chunkrelease

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"predata/internal/analysis"
	"predata/internal/analysis/dataflow"
)

// Analyzer is the chunkrelease pass.
var Analyzer = &analysis.Analyzer{
	Name: "chunkrelease",
	Doc: "flags staging chunks whose Release hook is leaked, fired twice, " +
		"or used after firing",
	Run: run,
}

const stagingPath = analysis.ModulePath + "/internal/staging"

// chunkLit reports whether e is a staging.Chunk composite literal that
// sets a non-nil Release hook (with or without a leading &).
func chunkLit(info *types.Info, e ast.Expr) bool {
	if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
		e = ast.Unparen(u.X)
	}
	lit, ok := e.(*ast.CompositeLit)
	if !ok {
		return false
	}
	tv, ok := info.Types[lit]
	if !ok || !analysis.NamedTypeIs(tv.Type, stagingPath, "Chunk") {
		return false
	}
	for _, el := range lit.Elts {
		kv, ok := el.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		key, ok := kv.Key.(*ast.Ident)
		if !ok || key.Name != "Release" {
			continue
		}
		if id, ok := ast.Unparen(kv.Value).(*ast.Ident); ok {
			if _, isNil := info.Uses[id].(*types.Nil); isNil {
				return false
			}
		}
		return true
	}
	return false
}

var spec = &dataflow.Spec{
	Resource:      "chunk",
	ReleaseMember: "Release",
	ExactlyOnce:   true,
	Acquire: func(info *types.Info, e ast.Expr) (int, string, bool) {
		if call, ok := e.(*ast.CallExpr); ok {
			if analysis.FuncIs(analysis.CalleeFunc(info, call), stagingPath, "DecodeChunk") {
				return 0, "staging.DecodeChunk", true
			}
			return 0, "", false
		}
		if chunkLit(info, e) {
			return 0, "staging.Chunk literal with Release set", true
		}
		return 0, "", false
	},
	Release: func(info *types.Info, call *ast.CallExpr) bool {
		// chunk.Release() is a call of the func-valued field.
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Release" {
			return false
		}
		v, ok := info.Uses[sel.Sel].(*types.Var)
		if !ok || !v.IsField() {
			return false
		}
		tv, ok := info.Types[sel.X]
		return ok && analysis.NamedTypeIs(tv.Type, stagingPath, "Chunk")
	},
}

func run(pass *analysis.Pass) error {
	for _, f := range dataflow.Check(pass, spec) {
		var msg string
		switch f.Kind {
		case dataflow.Leak:
			msg = fmt.Sprintf("chunk from %s may drop its Release hook on some path; "+
				"the budget credits (and a pooled buffer, once refcounted) leak", f.Desc)
		case dataflow.LeakReassign:
			msg = fmt.Sprintf("chunk from %s is overwritten while its Release hook "+
				"is still pending", f.Desc)
		case dataflow.DoubleRelease:
			msg = fmt.Sprintf("chunk from %s may have Release called twice on this path; "+
				"Release is exactly-once", f.Desc)
		case dataflow.UseAfterRelease:
			msg = fmt.Sprintf("chunk from %s is used after Release on this path; "+
				"under pooled buffers this reads recycled memory", f.Desc)
		case dataflow.Discard:
			msg = fmt.Sprintf("result of %s is discarded; its Release hook can "+
				"never fire", f.Desc)
		default:
			continue
		}
		pass.Reportf(f.Pos, "%s", msg)
	}
	return nil
}
