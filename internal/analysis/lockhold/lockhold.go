// Package lockhold flags blocking operations executed while a
// sync.Mutex or sync.RWMutex is held.
//
// The fabric and staging layers guard shared state with fine-grained
// locks, and their liveness argument (DESIGN.md §6) requires that no
// blocking operation — a channel send/receive, a select without
// default, time.Sleep, a fabric Pull/SendCtl/RecvCtl, an MPI receive or
// collective, a WaitGroup.Wait — runs while one of those locks is held.
// Holding a lock across a block point turns a slow peer into a stalled
// fabric: every other endpoint serializes behind the sleeping holder,
// and under fault injection the stall becomes a deadlock that only the
// watchdog resolves.
//
// sync.Cond.Wait is exempt: it atomically releases the lock it is
// registered on while parked, which is exactly the sanctioned way to
// block under a mutex (the fabric mailboxes and dataspaces object locks
// rely on it).
//
// The pass is a conservative intra-procedural walk. It tracks Lock/
// RLock/Unlock/RUnlock/defer-Unlock on each mutex-valued expression in
// straight-line order and descends into branches with a copy of the
// held set; function literals start empty (they run elsewhere), and a
// call that merely passes the mutex onward is not a hold transfer.
// False positives are expected to be rare and are suppressed with a
// //predata:vet-ignore lockhold <reason> directive.
package lockhold

import (
	"go/ast"
	"go/token"
	"go/types"

	"predata/internal/analysis"
)

// Analyzer is the lockhold pass.
var Analyzer = &analysis.Analyzer{
	Name: "lockhold",
	Doc:  "flags blocking operations while a sync.Mutex/RWMutex is held",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					walkBlock(pass, n.Body, newHeld())
				}
				return false // nested FuncLits handled inside walkBlock
			}
			return true
		})
	}
	return nil
}

// held is the set of lock expressions currently held, keyed by their
// printed source form ("f.mu", "s.locks[name].mu").
type held map[string]token.Pos

func newHeld() held { return held{} }

func (h held) clone() held {
	c := make(held, len(h))
	for k, v := range h {
		c[k] = v
	}
	return c
}

func (h held) any() (string, bool) {
	best := ""
	for k := range h {
		if best == "" || k < best {
			best = k
		}
	}
	return best, best != ""
}

// walkBlock processes statements in order, threading the held set.
func walkBlock(pass *analysis.Pass, b *ast.BlockStmt, h held) {
	for _, s := range b.List {
		walkStmt(pass, s, h)
	}
}

func walkStmt(pass *analysis.Pass, s ast.Stmt, h held) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		if tryLockOp(pass, s.X, h) {
			return
		}
		checkExpr(pass, s.X, h)
	case *ast.DeferStmt:
		// defer mu.Unlock() keeps the lock held for the remaining
		// statements of this function — which is precisely the pattern
		// the analyzer audits, so nothing to remove. defer of anything
		// else is inspected with a fresh held set at "exit time".
		if kind, _ := lockCall(pass, s.Call); kind == opUnlock {
			return
		}
		if lit, ok := ast.Unparen(s.Call.Fun).(*ast.FuncLit); ok && lit.Body != nil {
			walkBlock(pass, lit.Body, newHeld())
		}
	case *ast.GoStmt:
		// Spawning never blocks; the body runs on its own stack with no
		// locks held.
		if lit, ok := ast.Unparen(s.Call.Fun).(*ast.FuncLit); ok && lit.Body != nil {
			walkBlock(pass, lit.Body, newHeld())
		}
		checkExprShallow(pass, s.Call, h)
	case *ast.SendStmt:
		report(pass, s.Pos(), "channel send", h)
		checkExpr(pass, s.Value, h)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			checkExpr(pass, e, h)
		}
		for _, e := range s.Lhs {
			checkExpr(pass, e, h)
		}
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			checkExpr(pass, e, h)
		}
	case *ast.IfStmt:
		if s.Init != nil {
			walkStmt(pass, s.Init, h)
		}
		checkExpr(pass, s.Cond, h)
		walkBlock(pass, s.Body, h.clone())
		if s.Else != nil {
			walkStmt(pass, s.Else, h.clone())
		}
	case *ast.BlockStmt:
		walkBlock(pass, s, h.clone())
	case *ast.ForStmt:
		if s.Init != nil {
			walkStmt(pass, s.Init, h)
		}
		if s.Cond != nil {
			checkExpr(pass, s.Cond, h)
		}
		body := h.clone()
		walkBlock(pass, s.Body, body)
		if s.Post != nil {
			walkStmt(pass, s.Post, body)
		}
	case *ast.RangeStmt:
		// Ranging over a channel blocks per iteration.
		if tv, ok := pass.TypesInfo.Types[s.X]; ok && tv.Type != nil {
			if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
				report(pass, s.Pos(), "range over channel", h)
			}
		}
		checkExpr(pass, s.X, h)
		walkBlock(pass, s.Body, h.clone())
	case *ast.SelectStmt:
		hasDefault := false
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
				hasDefault = true
			}
		}
		if !hasDefault {
			report(pass, s.Pos(), "select without default", h)
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				sub := h.clone()
				for _, cs := range cc.Body {
					walkStmt(pass, cs, sub)
				}
			}
		}
	case *ast.SwitchStmt:
		if s.Init != nil {
			walkStmt(pass, s.Init, h)
		}
		if s.Tag != nil {
			checkExpr(pass, s.Tag, h)
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				sub := h.clone()
				for _, cs := range cc.Body {
					walkStmt(pass, cs, sub)
				}
			}
		}
	case *ast.TypeSwitchStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				sub := h.clone()
				for _, cs := range cc.Body {
					walkStmt(pass, cs, sub)
				}
			}
		}
	case *ast.LabeledStmt:
		walkStmt(pass, s.Stmt, h)
	case *ast.IncDecStmt:
		checkExpr(pass, s.X, h)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						checkExpr(pass, v, h)
					}
				}
			}
		}
	}
}

type lockOp int

const (
	opNone lockOp = iota
	opLock
	opUnlock
)

// lockCall classifies call as a Lock/RLock (opLock) or Unlock/RUnlock
// (opUnlock) on a sync.Mutex or sync.RWMutex, returning the receiver's
// printed form.
func lockCall(pass *analysis.Pass, call *ast.CallExpr) (lockOp, string) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return opNone, ""
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok {
		return opNone, ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return opNone, ""
	}
	recv := sig.Recv().Type()
	if !analysis.NamedTypeIs(recv, "sync", "Mutex") && !analysis.NamedTypeIs(recv, "sync", "RWMutex") {
		return opNone, ""
	}
	key := types.ExprString(sel.X)
	switch fn.Name() {
	case "Lock", "RLock", "TryLock", "TryRLock":
		return opLock, key
	case "Unlock", "RUnlock":
		return opUnlock, key
	}
	return opNone, ""
}

// tryLockOp applies a lock/unlock expression statement to the held set,
// reporting double-acquisition of the same mutex expression (a
// self-deadlock for sync.Mutex).
func tryLockOp(pass *analysis.Pass, e ast.Expr, h held) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	op, key := lockCall(pass, call)
	switch op {
	case opLock:
		if _, dup := h[key]; dup {
			pass.Reportf(call.Pos(),
				"%s locked again while already held (self-deadlock for sync.Mutex)", key)
		}
		h[key] = call.Pos()
		return true
	case opUnlock:
		delete(h, key)
		return true
	}
	return false
}

// checkExpr walks an expression, reporting blocking operations when any
// lock is held. Function literals are analyzed with an empty held set.
func checkExpr(pass *analysis.Pass, e ast.Expr, h held) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			if n.Body != nil {
				walkBlock(pass, n.Body, newHeld())
			}
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				report(pass, n.Pos(), "channel receive", h)
			}
		case *ast.CallExpr:
			if desc, blocking := blockingCall(pass, n); blocking {
				report(pass, n.Pos(), desc, h)
			}
		}
		return true
	})
}

// checkExprShallow checks only the call's arguments, not the call
// itself — used for go statements whose call runs elsewhere.
func checkExprShallow(pass *analysis.Pass, call *ast.CallExpr, h held) {
	for _, a := range call.Args {
		checkExpr(pass, a, h)
	}
}

// blockingCall classifies calls that can block indefinitely.
func blockingCall(pass *analysis.Pass, call *ast.CallExpr) (string, bool) {
	fn := analysis.CalleeFunc(pass.TypesInfo, call)
	if fn == nil {
		return "", false
	}
	name := fn.Name()
	// Exemption: sync.Cond.Wait releases its lock while parked.
	if name == "Wait" && methodOn(fn, "sync", "Cond") {
		return "", false
	}
	switch {
	case analysis.FuncIs(fn, "time", "Sleep"):
		return "time.Sleep", true
	case name == "Wait" && methodOn(fn, "sync", "WaitGroup"):
		return "sync.WaitGroup.Wait", true
	case methodOn(fn, analysis.ModulePath+"/internal/fabric", "Endpoint"):
		switch name {
		case "Pull", "SendCtl", "RecvCtl", "RecvCtlTimeout":
			return "fabric." + name, true
		}
	case methodOn(fn, analysis.ModulePath+"/internal/mpi", "Comm"):
		switch name {
		case "Recv", "Barrier", "Split", "Dup":
			return "mpi.Comm." + name, true
		}
	case fn.Pkg() != nil && fn.Pkg().Path() == analysis.ModulePath+"/internal/mpi" && isPkgFunc(fn):
		switch name {
		case "Bcast", "Reduce", "Allreduce", "Gather", "Allgather",
			"Alltoall", "Scan":
			return "mpi." + name, true
		}
	}
	return "", false
}

func isPkgFunc(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() == nil
}

func methodOn(fn *types.Func, pkgPath, typeName string) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return analysis.NamedTypeIs(sig.Recv().Type(), pkgPath, typeName)
}

func report(pass *analysis.Pass, pos token.Pos, what string, h held) {
	if lock, some := h.any(); some {
		pass.Reportf(pos, "blocking %s while %s is held; release the lock first", what, lock)
	}
}
