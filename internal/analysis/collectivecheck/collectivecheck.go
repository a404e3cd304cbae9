// Package collectivecheck flags collective operations that not every
// rank is guaranteed to reach in the same order — the classic MPI
// deadlock shape.
//
// The mpi package's contract (and real MPI's) is that collectives —
// Barrier, Split, Dup, Bcast/Reduce/Allreduce/Gather/Allgather/
// Alltoall/Scan, and the collective entry points built on them
// (staging.Engine.ProcessDump, predata.Server.ServeDump) — are invoked
// by every rank of the communicator in the same sequence. A collective
// reached by only some ranks hangs the others forever: the survivors
// wait inside the exchange for peers that already took a different
// branch. The streaming-middleware literature calls this the dominant
// silent failure mode of staging systems, and it is invisible to the
// race detector because nothing races — everything just stops.
//
// The pass computes, per top-level function, a conservative "rank
// taint": values derived from Comm.Rank()/Context.Rank() (directly, or
// through assignments, or through assignments control-dependent on a
// tainted condition). It reports:
//
//   - a collective call lexically inside an if/switch arm whose
//     condition is rank-tainted — some ranks take the arm, some do not;
//   - a return/break under a rank-tainted condition with a collective
//     call later in the same function — some ranks leave early and skip
//     the exchange. This rule is scoped per function literal: a return
//     inside a closure exits only the closure, so it is judged against
//     the closure's own conditions and collectives, not the enclosing
//     rank's flow.
//
// Rank-dependent *arguments* (comm.Split(color, rank)) are the normal,
// correct pattern and are never flagged; only rank-dependent *control
// flow* around a collective is.
//
// Protocol-intended divergence — e.g. a crashed rank splitting out with
// a negative color before the survivors' next collective — is
// suppressed at the call site with //predata:vet-ignore collectivecheck
// and a reason, which doubles as documentation of the membership
// argument.
package collectivecheck

import (
	"go/ast"
	"go/token"
	"go/types"

	"predata/internal/analysis"
)

// Analyzer is the collectivecheck pass.
var Analyzer = &analysis.Analyzer{
	Name: "collectivecheck",
	Doc: "flags collective operations under rank-dependent control flow " +
		"(deadlock risk: not all ranks reach the collective)",
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		// Test files are exempt: harnesses deliberately drive per-rank
		// asymmetry (error injection, partial failures) under mpi.Run,
		// which scopes every rank's lifetime already.
		if analysis.IsTestFile(pass.Fset, f.Pos()) {
			continue
		}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				checkFunc(pass, fd)
			}
		}
	}
	return nil
}

// collectiveName returns the display name of a collective call, or "".
func collectiveName(info *types.Info, call *ast.CallExpr) string {
	fn := analysis.CalleeFunc(info, call)
	if fn == nil {
		return ""
	}
	name := fn.Name()
	mpiPath := analysis.ModulePath + "/internal/mpi"
	if analysis.MethodOn(fn, mpiPath, "Comm") {
		switch name {
		case "Barrier", "Split", "Dup":
			return "Comm." + name
		}
	}
	if fn.Pkg() != nil && fn.Pkg().Path() == mpiPath && analysis.IsPkgFunc(fn) {
		switch name {
		case "Bcast", "Reduce", "Allreduce", "Gather", "Allgather",
			"Alltoall", "Scan":
			return "mpi." + name
		}
	}
	if analysis.MethodOn(fn, analysis.ModulePath+"/internal/staging", "Engine") && name == "ProcessDump" {
		return "Engine.ProcessDump"
	}
	if analysis.MethodOn(fn, analysis.ModulePath+"/internal/predata", "Server") && name == "ServeDump" {
		return "Server.ServeDump"
	}
	return ""
}

// isRankCall reports a direct rank-source call: Comm.Rank or
// staging.Context.Rank.
func isRankCall(info *types.Info, call *ast.CallExpr) bool {
	fn := analysis.CalleeFunc(info, call)
	if fn == nil || fn.Name() != "Rank" {
		return false
	}
	return analysis.MethodOn(fn, analysis.ModulePath+"/internal/mpi", "Comm") ||
		analysis.MethodOn(fn, analysis.ModulePath+"/internal/staging", "Context")
}

// checkFunc analyzes one top-level function (closures included: captured
// variables share types.Object identity, so taint flows through them).
func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	info := pass.TypesInfo
	tainted := map[*types.Var]bool{}

	exprTainted := func(e ast.Expr) bool {
		if e == nil {
			return false
		}
		found := false
		ast.Inspect(e, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if isRankCall(info, n) {
					found = true
				}
			case *ast.Ident:
				if v, ok := info.Uses[n].(*types.Var); ok {
					if tainted[v] || isRankField(v) {
						found = true
					}
				}
			}
			return !found
		})
		return found
	}

	taintLHS := func(lhs []ast.Expr) {
		for _, l := range lhs {
			if id, ok := ast.Unparen(l).(*ast.Ident); ok {
				if v, ok := objAsVar(info, id); ok {
					tainted[v] = true
				}
			}
		}
	}

	// Taint propagation to a fixed point: assignment from a tainted RHS,
	// and assignment control-dependent on a tainted condition. The
	// condition stack tracks enclosing taintedness during each sweep.
	for sweep := 0; sweep < 8; sweep++ {
		before := len(tainted)
		var condStack []bool
		condTainted := func() bool {
			for _, t := range condStack {
				if t {
					return true
				}
			}
			return false
		}
		var walk func(n ast.Node) bool
		walk = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				rhsTaint := false
				for _, r := range n.Rhs {
					if exprTainted(r) {
						rhsTaint = true
					}
				}
				if rhsTaint || condTainted() {
					taintLHS(n.Lhs)
				}
				return true
			case *ast.IfStmt:
				t := exprTainted(n.Cond)
				if n.Init != nil {
					ast.Inspect(n.Init, walk)
				}
				condStack = append(condStack, t)
				ast.Inspect(n.Body, walk)
				if n.Else != nil {
					ast.Inspect(n.Else, walk)
				}
				condStack = condStack[:len(condStack)-1]
				return false
			case *ast.SwitchStmt:
				t := n.Tag != nil && exprTainted(n.Tag)
				condStack = append(condStack, t)
				ast.Inspect(n.Body, walk)
				condStack = condStack[:len(condStack)-1]
				return false
			}
			return true
		}
		ast.Inspect(fd.Body, walk)
		if len(tainted) == before {
			break
		}
	}

	// Collect collective call positions for the early-exit rule.
	var collectivePos []token.Pos
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if collectiveName(info, call) != "" {
				collectivePos = append(collectivePos, call.Pos())
			}
		}
		return true
	})
	// Report: collectives under tainted conditions; early exits under
	// tainted conditions that skip a later collective.
	var condStack []bool
	condTainted := func() bool {
		for _, t := range condStack {
			if t {
				return true
			}
		}
		return false
	}
	// A return (or break) inside a function literal exits the literal,
	// not the rank's main flow, so the early-exit rule is scoped per
	// literal: only conditions entered inside the current literal and
	// collectives lexically inside it count. The collective-call rule
	// keeps the full inherited stack — a closure defined under a
	// rank-tainted branch still only exists on some ranks.
	type frame struct {
		condBase int
		end      token.Pos
	}
	frames := []frame{{0, fd.Body.End()}}
	frameTainted := func() bool {
		for _, t := range condStack[frames[len(frames)-1].condBase:] {
			if t {
				return true
			}
		}
		return false
	}
	frameCollectiveAfter := func(p token.Pos) bool {
		end := frames[len(frames)-1].end
		for _, cp := range collectivePos {
			if cp > p && cp < end {
				return true
			}
		}
		return false
	}
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.IfStmt:
			if n.Init != nil {
				ast.Inspect(n.Init, walk)
			}
			ast.Inspect(n.Cond, walk)
			condStack = append(condStack, exprTainted(n.Cond))
			ast.Inspect(n.Body, walk)
			if n.Else != nil {
				ast.Inspect(n.Else, walk)
			}
			condStack = condStack[:len(condStack)-1]
			return false
		case *ast.SwitchStmt:
			condStack = append(condStack, n.Tag != nil && exprTainted(n.Tag))
			ast.Inspect(n.Body, walk)
			condStack = condStack[:len(condStack)-1]
			return false
		case *ast.ForStmt:
			if n.Init != nil {
				ast.Inspect(n.Init, walk)
			}
			if n.Cond != nil {
				ast.Inspect(n.Cond, walk)
			}
			// A rank-dependent iteration count issues a rank-dependent
			// NUMBER of collectives — the same mismatch as a branch.
			condStack = append(condStack, exprTainted(n.Cond))
			ast.Inspect(n.Body, walk)
			if n.Post != nil {
				ast.Inspect(n.Post, walk)
			}
			condStack = condStack[:len(condStack)-1]
			return false
		case *ast.RangeStmt:
			ast.Inspect(n.X, walk)
			condStack = append(condStack, exprTainted(n.X))
			ast.Inspect(n.Body, walk)
			condStack = condStack[:len(condStack)-1]
			return false
		case *ast.CallExpr:
			if name := collectiveName(info, n); name != "" && condTainted() {
				pass.Reportf(n.Pos(),
					"collective %s inside rank-conditional branch: not every rank "+
						"reaches it (deadlock risk)", name)
			}
			return true
		case *ast.ReturnStmt:
			// Error-abort returns are sanctioned divergence: a rank that
			// bails with a non-nil error is tearing the run down, not
			// silently skipping an exchange. Only success-path early
			// returns (all results error-free) are membership bugs.
			if isErrorAbort(info, n) {
				return true
			}
			// Compare from End(): a collective inside the return expression
			// itself is not "skipped" by it (the CallExpr case covers it).
			if frameTainted() && frameCollectiveAfter(n.End()) {
				pass.Reportf(n.Pos(),
					"rank-conditional return skips a later collective: ranks that "+
						"return here never enter the exchange (deadlock risk)")
			}
			return true
		case *ast.BranchStmt:
			if n.Tok == token.BREAK && frameTainted() && frameCollectiveAfter(n.Pos()) {
				pass.Reportf(n.Pos(),
					"rank-conditional break skips a later collective: ranks that "+
						"break here never enter the exchange (deadlock risk)")
			}
			return true
		case *ast.FuncLit:
			frames = append(frames, frame{len(condStack), n.Body.End()})
			ast.Inspect(n.Body, walk)
			frames = frames[:len(frames)-1]
			return false
		}
		return true
	}
	ast.Inspect(fd.Body, walk)
}

// isErrorAbort reports whether a return statement propagates an error:
// some result is a (non-nil) expression whose type satisfies the error
// interface. `return err`, `return 0, fmt.Errorf(...)` qualify;
// `return data, nil` does not.
func isErrorAbort(info *types.Info, ret *ast.ReturnStmt) bool {
	errType, ok := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	if !ok {
		return false
	}
	for _, e := range ret.Results {
		if id, isIdent := ast.Unparen(e).(*ast.Ident); isIdent && id.Name == "nil" {
			continue
		}
		tv, ok := info.Types[e]
		if !ok || tv.Type == nil {
			continue
		}
		if types.Implements(tv.Type, errType) {
			return true
		}
	}
	return false
}

// isRankField matches the mpi.Comm rank field itself, so the mpi
// package's internal `c.rank` reads count as rank sources too.
func isRankField(v *types.Var) bool {
	return v.IsField() && v.Name() == "rank" && v.Pkg() != nil &&
		v.Pkg().Path() == analysis.ModulePath+"/internal/mpi"
}

func objAsVar(info *types.Info, id *ast.Ident) (*types.Var, bool) {
	if v, ok := info.Defs[id].(*types.Var); ok {
		return v, true
	}
	v, ok := info.Uses[id].(*types.Var)
	return v, ok
}
