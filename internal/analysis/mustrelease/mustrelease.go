// Package mustrelease proves that every resource the staging path hands
// out is handed back on every path. One table row per resource class
// gives the CFG + dataflow engine (internal/analysis/dataflow) its Spec
// and gives the pass the words of its diagnostics:
//
//   - chunk: a staging.Chunk carrying a Release hook (a DecodeChunk
//     result or a Chunk literal that sets Release) fires it exactly
//     once. Release returns the chunk's budget credits and, for a
//     block-mapped dump, acks its writer's region, after which the writer
//     refills the frame: a miss leaks budget bytes and pins the region, a
//     second call corrupts the accountant, and a use after Release may
//     read a frame being refilled. A nil test of .Release (or of the
//     error paired with DecodeChunk) proves there is nothing to release,
//     and reading .Release as a value hands it off.
//   - lease: a flowctl budget lease (Budget.Acquire, TryAcquire,
//     Overdraft) reaches Release. A leaked lease subtracts its bytes
//     from the budget for good; once they cross the high watermark the
//     overload latch wedges open and the staging area spills or sheds
//     forever.
//   - journal: a write-ahead journal from wal.Open reaches Close. A
//     dropped handle leaks its descriptor and strands the journal's tail
//     in the write buffer, so restart recovery silently under-replays.
//   - span: a flight-recorder span from Recorder.Begin reaches Span.End,
//     through the fluent sp.WithDump(d).WithEndpoint(ep) chain. An
//     unended span is an open interval to trace.Verify, and the
//     per-stage histograms omit the slowest, usually erroring, runs.
//
// A path discharges an obligation by releasing the resource (directly
// or deferred) or by handing it off: returning it, sending it on a
// channel, storing it, passing it (or its release method value) to a
// call, or capturing it in a closure. The error or ok result paired with
// an acquire kills the obligation on its failure edge, as does a nil
// test of the resource. Only chunk releases are exactly-once; the
// lease's Release, the journal's Close and the span's End are
// idempotent, so double releases of those are not flagged. Test files
// are exempt.
package mustrelease

import (
	"go/ast"
	"go/token"
	"go/types"

	"predata/internal/analysis"
	"predata/internal/analysis/dataflow"
)

// Analyzer is the mustrelease pass.
var Analyzer = &analysis.Analyzer{
	Name: "mustrelease",
	Doc: "flags staging chunks, budget leases, journal handles and trace spans " +
		"not released or handed off on every path (and chunks released twice)",
	Run: run,
}

const (
	stagingPath = analysis.ModulePath + "/internal/staging"
	flowctlPath = analysis.ModulePath + "/internal/flowctl"
	walPath     = analysis.ModulePath + "/internal/wal"
	tracePath   = analysis.ModulePath + "/internal/trace"
)

// row is one resource class: its engine Spec, whose Resource is the noun
// of every message, and the rest of each message by finding kind. A
// Discard message reads "result of <site> is discarded; <words>", every
// other kind "<noun> from <site> <words>". A kind with no words is no
// fault for the class.
type row struct {
	spec  *dataflow.Spec
	words map[dataflow.Kind]string
}

var rows = []row{
	{
		spec: &dataflow.Spec{
			Resource:      "chunk",
			ReleaseMember: "Release",
			ExactlyOnce:   true,
			Acquire: func(info *types.Info, e ast.Expr) (string, bool) {
				if call, ok := e.(*ast.CallExpr); ok {
					fn := analysis.CalleeFunc(info, call)
					if analysis.MethodIs(fn, stagingPath, "Decoder", "DecodeChunk") {
						return "staging.Decoder.DecodeChunk", true
					}
					return "staging.DecodeChunk", analysis.FuncIs(fn, stagingPath, "DecodeChunk")
				}
				return "staging.Chunk literal with Release set", chunkLit(info, e)
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
		},
		words: map[dataflow.Kind]string{
			dataflow.Leak: "may drop its Release hook on some path; " +
				"the budget credits (and a pooled buffer, once refcounted) leak",
			dataflow.LeakReassign:    "is overwritten while its Release hook is still pending",
			dataflow.DoubleRelease:   "may have Release called twice on this path; Release is exactly-once",
			dataflow.UseAfterRelease: "is used after Release on this path; under pooled buffers this reads recycled memory",
			dataflow.Discard:         "its Release hook can never fire",
		},
	},
	{
		spec: &dataflow.Spec{
			Resource: "lease",
			Acquire: func(info *types.Info, e ast.Expr) (string, bool) {
				return method(info, e, flowctlPath, "Budget", "Acquire", "TryAcquire", "Overdraft")
			},
			Release: calls(flowctlPath, "Lease", "Release"),
			Benign:  calls(flowctlPath, "Lease", "Bytes"),
		},
		words: map[dataflow.Kind]string{
			dataflow.Leak:         "is not released on every path; leaked bytes wedge the budget's overload latch",
			dataflow.LeakReassign: "is overwritten while still held; release it before rebinding",
			dataflow.Discard:      "the lease's bytes can never be released",
		},
	},
	{
		spec: &dataflow.Spec{
			Resource: "journal",
			Acquire: func(info *types.Info, e ast.Expr) (string, bool) {
				call, ok := e.(*ast.CallExpr)
				return "wal.Open", ok && analysis.FuncIs(analysis.CalleeFunc(info, call), walPath, "Open")
			},
			Release: calls(walPath, "Log", "Close"),
			Benign: calls(walPath, "Log", "AppendChunk", "AppendRequest", "AppendCommit", "Sync",
				"WriteCheckpoint", "Records", "Bytes", "Wall", "Dir"),
		},
		words: map[dataflow.Kind]string{
			dataflow.Leak: "is not closed on every path; " +
				"buffered records are never durable and the descriptor leaks",
			dataflow.LeakReassign: "is overwritten while still open; close it before rebinding",
			dataflow.Discard:      "the journal can never be flushed or closed",
		},
	},
	{
		spec: &dataflow.Spec{
			Resource: "span",
			Acquire: func(info *types.Info, e ast.Expr) (string, bool) {
				// r.Begin(...).WithDump(d).WithEndpoint(ep) is still one
				// Begin: unwrap passthroughs so chained acquires bind.
				for {
					if desc, ok := method(info, e, tracePath, "Recorder", "Begin"); ok {
						return desc, true
					}
					call, ok := ast.Unparen(e).(*ast.CallExpr)
					if !ok || !spanChain(info, call) {
						return "", false
					}
					sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
					if !ok {
						return "", false
					}
					e = sel.X
				}
			},
			Release:     calls(tracePath, "Span", "End"),
			Passthrough: spanChain,
		},
		words: map[dataflow.Kind]string{
			dataflow.Leak: "does not reach End on every path; " +
				"the flight recorder reports it as an open interval",
			dataflow.LeakReassign: "is overwritten before End; " +
				"End it (End on the zero Span is a no-op) before rebinding",
			dataflow.Discard: "Begin without End skews the per-stage latency histograms",
		},
	},
}

func run(pass *analysis.Pass) error {
	for _, r := range rows {
		for _, f := range dataflow.Check(pass, r.spec) {
			words, ok := r.words[f.Kind]
			switch {
			case !ok:
				continue
			case f.Kind == dataflow.Discard:
				pass.Reportf(f.Pos, "result of %s is discarded; %s", f.Desc, words)
			default:
				pass.Reportf(f.Pos, "%s from %s %s", r.spec.Resource, f.Desc, words)
			}
		}
	}
	return nil
}

// method reports whether e calls one of recv's methods names, as
// "Recv.Name".
func method(info *types.Info, e ast.Expr, pkgPath, recv string, names ...string) (string, bool) {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return "", false
	}
	fn := analysis.CalleeFunc(info, call)
	for _, name := range names {
		if analysis.MethodIs(fn, pkgPath, recv, name) {
			return recv + "." + name, true
		}
	}
	return "", false
}

// calls is method as a Release, Benign or Passthrough matcher.
func calls(pkgPath, recv string, names ...string) func(*types.Info, *ast.CallExpr) bool {
	return func(info *types.Info, call *ast.CallExpr) bool {
		_, ok := method(info, call, pkgPath, recv, names...)
		return ok
	}
}

var spanChain = calls(tracePath, "Span", "WithDump", "WithEndpoint")

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
	if tv, ok := info.Types[lit]; !ok || !analysis.NamedTypeIs(tv.Type, stagingPath, "Chunk") {
		return false
	}
	for _, el := range lit.Elts {
		kv, ok := el.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		if key, ok := kv.Key.(*ast.Ident); !ok || key.Name != "Release" {
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
