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
// The pass reads control flow from internal/analysis/cfg, one graph per
// function body and per function literal body (a literal runs elsewhere,
// so it starts with nothing held). A forward may-hold fixpoint tracks
// Lock/RLock/Unlock/RUnlock on each mutex-valued expression over the
// blocks, uniting the held sets where paths join, so a lock taken on
// only one branch is held after the join; defer mu.Unlock() keeps the
// lock held to the end of the body. Each node is then checked against
// the held set that reaches it. A call that merely passes the mutex
// onward is not a hold transfer. False positives are suppressed with a
// //predata:vet-ignore lockhold <reason> directive.
package lockhold

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"

	"predata/internal/analysis"
	"predata/internal/analysis/cfg"
)

// Analyzer is the lockhold pass.
var Analyzer = &analysis.Analyzer{
	Name: "lockhold",
	Doc:  "flags blocking operations while a sync.Mutex/RWMutex is held",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		cfg.Bodies(f, func(body *ast.BlockStmt) { checkBody(pass, body) })
	}
	return nil
}

// held is the set of lock expressions that may be held, keyed by their
// printed source form ("f.mu", "s.locks[name].mu").
type held map[string]bool

// checker checks one function body.
type checker struct {
	pass *analysis.Pass
	// comms are the communications of the body's select clauses: their
	// channel operands are evaluated, and the select blocks, at the
	// select's head.
	comms map[ast.Stmt]bool
	// report is set for the one pass over the converged held sets.
	report bool
}

func checkBody(pass *analysis.Pass, body *ast.BlockStmt) {
	c := &checker{pass: pass, comms: map[ast.Stmt]bool{}}
	ast.Inspect(body, func(n ast.Node) bool {
		if cc, ok := n.(*ast.CommClause); ok && cc.Comm != nil {
			c.comms[cc.Comm] = true
		}
		return true
	})
	g := cfg.New(body, pass.TypesInfo)
	blocks := g.Reachable()
	in := make(map[*cfg.Block]held, len(blocks))
	for _, blk := range blocks {
		in[blk] = held{}
	}
	for changed := true; changed; {
		changed = false
		for _, blk := range blocks {
			out := c.transfer(blk, maps.Clone(in[blk]))
			for _, succ := range blk.Succs {
				for k := range out {
					if !in[succ][k] {
						in[succ][k] = true
						changed = true
					}
				}
			}
		}
	}
	c.report = true
	for _, blk := range blocks {
		c.transfer(blk, in[blk])
	}
}

// transfer runs blk's nodes over h and returns the held set at its end,
// checking each node when reporting.
func (c *checker) transfer(blk *cfg.Block, h held) held {
	for _, n := range blk.Nodes {
		if es, ok := n.(*ast.ExprStmt); ok && c.lockOp(es.X, h) {
			continue
		}
		if c.report {
			c.check(n, h)
		}
	}
	return h
}

// check reports the blocking operations node n performs while h is not
// empty.
func (c *checker) check(n ast.Node, h held) {
	switch n := n.(type) {
	case *ast.DeferStmt:
		// The deferred call runs at exit; defer mu.Unlock() keeps the
		// lock held until then, which is what the pass audits.
		return
	case *ast.GoStmt:
		// Spawning never blocks; only the arguments are evaluated here.
		for _, a := range n.Call.Args {
			c.checkExpr(a, h)
		}
		return
	case *ast.SelectStmt:
		for _, cl := range n.Body.List {
			if cl.(*ast.CommClause).Comm == nil {
				return
			}
		}
		c.reportf(n.Pos(), "select without default", h)
		return
	case *ast.RangeStmt:
		// Ranging over a channel blocks per iteration.
		if tv, ok := c.pass.TypesInfo.Types[n.X]; ok && tv.Type != nil {
			if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
				c.reportf(n.Pos(), "range over channel", h)
			}
		}
	case *ast.SendStmt:
		if !c.comms[n] {
			c.reportf(n.Pos(), "channel send", h)
		}
		c.checkExpr(n.Value, h)
		return
	case ast.Stmt:
		if c.comms[n] {
			return // a receive clause: it blocked at the select's head
		}
	}
	c.checkExpr(n, h)
}

// checkExpr reports the receives and blocking calls node n evaluates.
func (c *checker) checkExpr(n ast.Node, h held) {
	cfg.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				c.reportf(n.Pos(), "channel receive", h)
			}
		case *ast.CallExpr:
			if desc, blocking := blockingCall(c.pass, n); blocking {
				c.reportf(n.Pos(), desc, h)
			}
		}
		return true
	})
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
	if !analysis.MethodOn(fn, "sync", "Mutex") && !analysis.MethodOn(fn, "sync", "RWMutex") {
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

// lockOp applies a lock/unlock call e to h and reports whether e is
// one, reporting, on the reporting pass, a Lock of a mutex expression
// that may already be held (a self-deadlock for sync.Mutex).
func (c *checker) lockOp(e ast.Expr, h held) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	op, key := lockCall(c.pass, call)
	switch op {
	case opLock:
		if h[key] && c.report {
			c.pass.Reportf(call.Pos(),
				"%s locked again while already held (self-deadlock for sync.Mutex)", key)
		}
		h[key] = true
		return true
	case opUnlock:
		delete(h, key)
		return true
	}
	return false
}

// blockingCall classifies calls that can block indefinitely.
func blockingCall(pass *analysis.Pass, call *ast.CallExpr) (string, bool) {
	fn := analysis.CalleeFunc(pass.TypesInfo, call)
	if fn == nil {
		return "", false
	}
	name := fn.Name()
	// Exemption: sync.Cond.Wait releases its lock while parked.
	if name == "Wait" && analysis.MethodOn(fn, "sync", "Cond") {
		return "", false
	}
	switch {
	case analysis.FuncIs(fn, "time", "Sleep"):
		return "time.Sleep", true
	case name == "Wait" && analysis.MethodOn(fn, "sync", "WaitGroup"):
		return "sync.WaitGroup.Wait", true
	case analysis.MethodOn(fn, analysis.ModulePath+"/internal/fabric", "Endpoint"):
		switch name {
		case "Pull", "SendCtl", "RecvCtl", "RecvCtlTimeout":
			return "fabric." + name, true
		}
	case analysis.MethodOn(fn, analysis.ModulePath+"/internal/mpi", "Comm"):
		switch name {
		case "Recv", "Barrier", "Split", "Dup":
			return "mpi.Comm." + name, true
		}
	case fn.Pkg() != nil && fn.Pkg().Path() == analysis.ModulePath+"/internal/mpi" && analysis.IsPkgFunc(fn):
		switch name {
		case "Bcast", "Reduce", "Allreduce", "Gather", "Allgather",
			"Alltoall", "Scan":
			return "mpi." + name, true
		}
	}
	return "", false
}

// reportf reports the blocking operation what at pos when h holds a
// lock, naming the first in sorted order.
func (c *checker) reportf(pos token.Pos, what string, h held) {
	lock := ""
	for k := range h {
		if lock == "" || k < lock {
			lock = k
		}
	}
	if lock != "" {
		c.pass.Reportf(pos, "blocking %s while %s is held; release the lock first", what, lock)
	}
}
