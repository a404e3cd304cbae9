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
// The pass reads control flow from internal/analysis/cfg: one graph per
// top-level function body and per function literal in it, with its
// control dependences. A branch is rank-tainted when what it tests — an
// if or for condition, a case test of a tagged or tagless switch, a type
// switch's value, a range expression — reads Comm.Rank()/Context.Rank()
// or a tainted variable. Taint spreads to a fixpoint over the function's
// graphs (closures share captured variables): an assignment taints its
// left-hand side when it reads a tainted value, or when its block is
// control-dependent, directly or through other branches, on a
// rank-tainted branch.
//
// A collective whose block is so dependent is reported: the ranks that
// take another edge of the branch skip it. When such an edge precedes
// the collective's in the source (an if body before what follows it)
// and leaves its arm by a return, break, continue or goto, the report
// names that early exit, else the collective, which then sits inside the
// rank-conditional arm. A literal built in a block that runs on some
// ranks only has all its collectives reported; its early exits are
// judged within its own graph, since a return there leaves the literal.
//
// Ranks that leave the run take no part in what follows: an earlier
// return of an error and an Abort path (panic, os.Exit, log.Fatal) end
// the function without reaching Exit in the post-dominator tree, so a
// branch whose other arm only leaves decides nothing after it.
//
// Rank-dependent *arguments* (comm.Split(color, rank)) are the normal,
// correct pattern and are never flagged. Protocol-intended divergence —
// e.g. a crashed rank splitting out with a negative color before the
// survivors' next collective — is suppressed at the call site with
// //predata:vet-ignore collectivecheck and a reason, which doubles as
// documentation of the membership argument.
package collectivecheck

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"

	"predata/internal/analysis"
	"predata/internal/analysis/cfg"
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
				c := &checker{info: pass.TypesInfo, tainted: map[*types.Var]bool{}}
				c.add(fd.Body, nil, nil)
				for c.propagate() {
				}
				for _, g := range c.graphs {
					c.report(pass, g)
				}
			}
		}
	}
	return nil
}

// checker checks one top-level function.
type checker struct {
	info    *types.Info
	tainted map[*types.Var]bool
	graphs  []*graph // the body's, then each literal's after its parent's
}

// graph is one body's CFG, with each reachable block's control
// dependences, direct or through the branches it depends on.
type graph struct {
	blocks []*cfg.Block
	deps   [][]cfg.Dep // by Block.Index
	leaves func(*cfg.Block) bool
	// A literal's graph runs on some ranks only (inherited) when the
	// block of its parent that builds it does.
	parent    *graph
	at        *cfg.Block
	inherited bool
}

// add builds the graph of body, and those of the literals it builds.
func (c *checker) add(body *ast.BlockStmt, parent *graph, at *cfg.Block) {
	cg := cfg.New(body, c.info)
	g := &graph{blocks: cg.Reachable(), deps: make([][]cfg.Dep, len(cg.Blocks)), parent: parent, at: at}
	// The body's final return is its way out when nothing failed, handing
	// on whatever error the last call left; an earlier one leaves the run.
	g.leaves = func(blk *cfg.Block) bool {
		ret, ok := last(blk).(*ast.ReturnStmt)
		return ok && ret != body.List[len(body.List)-1] && isErrorAbort(c.info, ret)
	}
	pd := cg.PostDominators(g.leaves)
	c.graphs = append(c.graphs, g)
	for _, blk := range g.blocks {
		seen := map[*cfg.Block]bool{}
		for work := []*cfg.Block{blk}; len(work) > 0; work = work[1:] {
			for _, d := range pd.Deps(work[0]) {
				g.deps[blk.Index] = append(g.deps[blk.Index], d)
				if !seen[d.From] {
					seen[d.From] = true
					work = append(work, d.From)
				}
			}
		}
		for _, n := range blk.Nodes {
			cfg.Inspect(n, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					c.add(lit.Body, g, blk)
				}
				return true
			})
		}
	}
}

// propagate runs one sweep of the taint over every graph and reports
// whether it grew.
func (c *checker) propagate() bool {
	grew := false
	taint := func(e ast.Expr) {
		if id, ok := ast.Unparen(e).(*ast.Ident); ok {
			if v, ok := c.info.ObjectOf(id).(*types.Var); ok && !c.tainted[v] {
				c.tainted[v], grew = true, true
			}
		}
	}
	for _, g := range c.graphs {
		if g.parent != nil {
			g.inherited = c.divergent(g.parent, g.at)
		}
		for _, blk := range g.blocks {
			div := c.divergent(g, blk)
			for _, n := range blk.Nodes {
				cfg.Inspect(n, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.AssignStmt:
						if div || c.taints(n) {
							for _, l := range n.Lhs {
								taint(l)
							}
						}
					case *ast.ValueSpec:
						if div || c.taints(n) {
							for _, id := range n.Names {
								taint(id)
							}
						}
					}
					return true
				})
			}
		}
	}
	return grew
}

// divergent reports whether blk of g runs on some ranks only.
func (c *checker) divergent(g *graph, blk *cfg.Block) bool {
	for _, d := range g.deps[blk.Index] {
		if c.rankBranch(d.From) {
			return true
		}
	}
	return g.inherited
}

// rankBranch reports whether blk ends in a rank-tainted branch.
func (c *checker) rankBranch(blk *cfg.Block) bool {
	if len(blk.Succs) < 2 {
		return false
	}
	switch s := blk.Switch.(type) {
	case *ast.SwitchStmt:
		if s.Tag != nil && c.taints(s.Tag) {
			return true
		}
	case *ast.TypeSwitchStmt:
		return c.taints(s.Assign)
	}
	return c.taints(last(blk))
}

// taints reports whether n reads a rank source or a tainted variable.
func (c *checker) taints(n ast.Node) bool {
	found := false
	cfg.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			found = found || isRankCall(c.info, n)
		case *ast.Ident:
			v, ok := c.info.Uses[n].(*types.Var)
			found = found || ok && (c.tainted[v] || isRankField(v))
		}
		return !found
	})
	return found
}

// report reports the collectives of g that run on some ranks only: at the
// early exits that take the other ranks past one, or at the collective.
func (c *checker) report(pass *analysis.Pass, g *graph) {
	reported := map[token.Pos]bool{}
	reportf := func(pos token.Pos, format string, args ...any) {
		if !reported[pos] {
			reported[pos] = true
			pass.Reportf(pos, format, args...)
		}
	}
	for _, blk := range g.blocks {
		for _, n := range blk.Nodes {
			cfg.Inspect(n, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || collectiveName(c.info, call) == "" {
					return true
				}
				inside := g.inherited
				for _, d := range g.deps[blk.Index] {
					if !c.rankBranch(d.From) {
						continue
					}
					exits := c.exitsBefore(g, d)
					for _, x := range exits {
						tok := "return"
						if br, ok := x.(*ast.BranchStmt); ok {
							tok = br.Tok.String()
						}
						reportf(x.Pos(), "rank-conditional %s skips a later collective: ranks that "+
							"%s here never enter the exchange (deadlock risk)", tok, tok)
					}
					inside = inside || len(exits) == 0
				}
				if inside {
					reportf(call.Pos(), "collective %s inside rank-conditional branch: not every rank "+
						"reaches it (deadlock risk)", collectiveName(c.info, call))
				}
				return true
			})
		}
	}
}

// exitsBefore returns the early exits of g that take ranks off d's edge:
// each a return (that stays in the run), break, continue or goto whose
// block depends on an earlier edge of d's branch and whose target lies
// outside that edge's arm.
func (c *checker) exitsBefore(g *graph, d cfg.Dep) []ast.Node {
	var out []ast.Node
	for _, blk := range g.blocks {
		x := last(blk)
		br, isBr := x.(*ast.BranchStmt)
		_, isRet := x.(*ast.ReturnStmt)
		if isBr && br.Tok == token.FALLTHROUGH || !isBr && (!isRet || g.leaves(blk)) {
			continue
		}
		for _, e := range g.deps[blk.Index] {
			if e.From == d.From && e.Edge < d.Edge && !slices.Contains(g.deps[blk.Succs[0].Index], e) {
				out = append(out, x)
				break
			}
		}
	}
	return out
}

// last returns blk's last node, or nil.
func last(blk *cfg.Block) ast.Node {
	if len(blk.Nodes) == 0 {
		return nil
	}
	return blk.Nodes[len(blk.Nodes)-1]
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

// isErrorAbort reports whether a return statement propagates an error:
// some result is a (non-nil) expression whose type satisfies the error
// interface, and a call only when it builds a new error (fmt.Errorf,
// errors.New, errors.Join). `return err`, `return 0, fmt.Errorf(...)`
// qualify; `return data, nil` does not, nor does `return c.Barrier()` or
// `return run.stage(...)`, which hand on a callee's verdict, nil when it
// succeeds.
func isErrorAbort(info *types.Info, ret *ast.ReturnStmt) bool {
	errType, ok := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	if !ok {
		return false
	}
	for _, e := range ret.Results {
		if id, isIdent := ast.Unparen(e).(*ast.Ident); isIdent && id.Name == "nil" {
			continue
		}
		if call, isCall := ast.Unparen(e).(*ast.CallExpr); isCall {
			fn := analysis.CalleeFunc(info, call)
			if !analysis.FuncIs(fn, "fmt", "Errorf") && !analysis.FuncIs(fn, "errors", "New") &&
				!analysis.FuncIs(fn, "errors", "Join") {
				continue
			}
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
