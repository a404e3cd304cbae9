// Package cfg builds intraprocedural control-flow graphs from Go
// function bodies: the one model of control flow the predata-vet passes
// share (mustrelease through internal/analysis/dataflow, lockhold,
// ctxdeadline and collectivecheck directly).
//
// The graph is a list of basic blocks. Each block holds the statements
// and expressions that execute unconditionally once the block is
// entered, in execution order, and edges to its successors. Three
// synthetic blocks frame every graph:
//
//   - Entry: the function's first block;
//   - Exit: reached by normal returns and by falling off the end;
//   - Abort: reached by panic and by calls that never return
//     (os.Exit, log.Fatal*, runtime.Goexit). Must-release analyses
//     skip Abort paths — a leak on a dying process is not a leak.
//
// Conditional branches keep their condition: a block whose last
// evaluation is an if or for condition, or a case expression of a
// tagless switch, records it in Cond, with Succs[0] the true edge and
// Succs[1] the false edge, so dataflow clients can refine state along
// the `err != nil` / `ok` idioms without a general path-sensitive
// engine. Every case test also records its statement in Switch: what a
// tagged or type switch tests is split between statement and case.
//
// The graph follows Go's evaluation order where a client can tell:
//
//   - A switch tests its case expressions one by one in source order,
//     each as the last node of its own block, with a match edge to the
//     clause body and a miss edge to the next test; the default clause,
//     wherever it is written, is taken after the last miss. A check in
//     an earlier case expression therefore precedes every later clause.
//   - A select evaluates the channel operand of every communication at
//     its head, in source order, before it waits. The head block holds
//     those operands and then the *ast.SelectStmt itself, the point where
//     the goroutine blocks until a clause is ready (unless the select has
//     a default); each clause block starts with its communication
//     statement.
//   - The head block of a loop, which every iteration returns to, starts
//     with the *ast.ForStmt or *ast.RangeStmt itself. A for head then
//     holds the condition; a range statement there also stands for its
//     per-iteration step (range expression and iteration variables).
//
// Those three statement nodes mark a head; their bodies are never part
// of the head's evaluation. Inspect walks a node the way its block
// evaluates it.
//
// PostDominators computes the post-dominator tree and from it which
// branch edges decide whether a block runs. An arm that can only abort,
// or leave by a way a client names, decides nothing after its branch.
//
// Function literals are opaque: a FuncLit appears as an expression in
// the enclosing graph (its body runs at some other time, if at all) and
// callers analyze literal bodies as separate graphs.
//
// The builder covers the full statement grammar: if/else chains, for
// and range loops, expression and type switches (with fallthrough),
// select, labeled break/continue, goto, defer, go, return and panic.
package cfg

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Block is one basic block.
type Block struct {
	// Index is the block's position in Graph.Blocks (stable, for tests
	// and worklists).
	Index int
	// Nodes are the statements and expressions that execute in this
	// block, in order. Condition expressions of branches appear as the
	// last node of their block.
	Nodes []ast.Node
	// Succs are the possible successors. For a block ending in a
	// conditional branch, Succs[0] is the condition-true edge and
	// Succs[1] the condition-false edge.
	Succs []*Block
	// Cond is the branch condition this block ends with, or nil when
	// the block has at most one successor (or branches without a
	// refinable condition: range heads, select heads, case tests of a
	// tagged or type switch).
	Cond ast.Expr
	// Switch is the switch or type switch statement whose case test this
	// block ends with, or nil. A tagged switch's test compares the
	// statement's Tag with the block's last node; a type switch's tests
	// the dynamic type of the value its Assign evaluates.
	Switch ast.Stmt
}

// Graph is the CFG of one function body.
type Graph struct {
	Entry *Block
	// Exit is the normal-termination block: returns and fall-through.
	Exit *Block
	// Abort is the abnormal-termination block: panic and no-return
	// calls. It has no successors.
	Abort  *Block
	Blocks []*Block
}

// builder accumulates blocks for one function body.
type builder struct {
	g    *Graph
	cur  *Block
	info *types.Info
	// breaks/continues are stacks of the innermost targets; label maps
	// hold targets of labeled loops and switches.
	breaks        []*Block
	continues     []*Block
	labeledBreak  map[string]*Block
	labeledCont   map[string]*Block
	labeledBlocks map[string]*Block // goto targets
	pendingGotos  map[string][]*Block
	labelOfNext   string // label immediately preceding the next loop/switch
}

// New builds the CFG of one function body. info may be nil; it is used
// only to sharpen no-return call detection and panic recognition.
func New(body *ast.BlockStmt, info *types.Info) *Graph {
	g := &Graph{}
	b := &builder{
		g:             g,
		info:          info,
		labeledBreak:  map[string]*Block{},
		labeledCont:   map[string]*Block{},
		labeledBlocks: map[string]*Block{},
		pendingGotos:  map[string][]*Block{},
	}
	g.Exit = b.newBlock()  // index 0
	g.Abort = b.newBlock() // index 1
	g.Entry = b.newBlock()
	b.cur = g.Entry
	b.stmtList(body.List)
	// Falling off the end is a normal exit.
	b.jump(g.Exit)
	// Unresolved gotos (labels on paths the builder never saw — only
	// possible in malformed input) terminate at Exit to stay safe.
	for _, blocks := range b.pendingGotos {
		for _, blk := range blocks {
			blk.Succs = append(blk.Succs, g.Exit)
		}
	}
	return g
}

func (b *builder) newBlock() *Block {
	blk := &Block{Index: len(b.g.Blocks)}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

// jump ends the current block with an unconditional edge to dst and
// leaves the builder in a fresh unreachable block (statements after a
// return or break still get blocks; they simply have no predecessors).
func (b *builder) jump(dst *Block) {
	b.cur.Succs = append(b.cur.Succs, dst)
	b.cur = b.newBlock()
}

// add appends a node to the current block.
func (b *builder) add(n ast.Node) {
	if n != nil {
		b.cur.Nodes = append(b.cur.Nodes, n)
	}
}

func (b *builder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *builder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.ReturnStmt:
		b.add(s)
		b.jump(b.g.Exit)

	case *ast.ExprStmt:
		b.add(s)
		if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok && b.noReturn(call) {
			b.jump(b.g.Abort)
		}

	case *ast.IfStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		b.add(s.Cond)
		b.cur.Cond = s.Cond
		condBlk := b.cur
		done := b.newBlock()

		thenBlk := b.newBlock()
		condBlk.Succs = append(condBlk.Succs, thenBlk) // true edge
		b.cur = thenBlk
		b.stmtList(s.Body.List)
		b.cur.Succs = append(b.cur.Succs, done)

		if s.Else != nil {
			elseBlk := b.newBlock()
			condBlk.Succs = append(condBlk.Succs, elseBlk) // false edge
			b.cur = elseBlk
			b.stmt(s.Else)
			b.cur.Succs = append(b.cur.Succs, done)
		} else {
			condBlk.Succs = append(condBlk.Succs, done) // false edge
		}
		b.cur = done

	case *ast.ForStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.add(s.Init)
		}
		head := b.newBlock()
		b.cur.Succs = append(b.cur.Succs, head)
		done := b.newBlock()
		post := head // continue target when there is no post statement
		var postBlk *Block
		if s.Post != nil {
			postBlk = b.newBlock()
			postBlk.Nodes = append(postBlk.Nodes, s.Post)
			postBlk.Succs = append(postBlk.Succs, head)
			post = postBlk
		}

		body := b.newBlock()
		b.cur = head
		b.add(s)
		if s.Cond != nil {
			b.add(s.Cond)
			head.Cond = s.Cond
			head.Succs = append(head.Succs, body, done) // true, false
		} else {
			head.Succs = append(head.Succs, body)
		}

		b.pushLoop(done, post, label)
		b.cur = body
		b.stmtList(s.Body.List)
		b.cur.Succs = append(b.cur.Succs, post)
		b.popLoop(label)
		b.cur = done

	case *ast.RangeStmt:
		label := b.takeLabel()
		head := b.newBlock()
		b.cur.Succs = append(b.cur.Succs, head)
		// The range statement itself (iteration variables + range
		// expression) lives in the head, evaluated per iteration.
		head.Nodes = append(head.Nodes, s)
		done := b.newBlock()
		body := b.newBlock()
		head.Succs = append(head.Succs, body, done)

		b.pushLoop(done, head, label)
		b.cur = body
		b.stmtList(s.Body.List)
		b.cur.Succs = append(b.cur.Succs, head)
		b.popLoop(label)
		b.cur = done

	case *ast.SwitchStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.add(s.Init)
		}
		if s.Tag != nil {
			b.add(s.Tag)
		}
		b.switchBody(s, s.Body, label, s.Tag == nil)

	case *ast.TypeSwitchStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.add(s.Init)
		}
		b.add(s.Assign)
		b.switchBody(s, s.Body, label, false)

	case *ast.SelectStmt:
		label := b.takeLabel()
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				b.add(commChan(cc.Comm))
			}
		}
		b.add(s)
		head := b.cur
		done := b.newBlock()
		if label != "" {
			b.labeledBreak[label] = done
		}
		b.breaks = append(b.breaks, done)
		for _, c := range s.Body.List {
			cc, ok := c.(*ast.CommClause)
			if !ok {
				continue
			}
			blk := b.newBlock()
			head.Succs = append(head.Succs, blk)
			b.cur = blk
			if cc.Comm != nil {
				b.add(cc.Comm)
			}
			b.stmtList(cc.Body)
			b.cur.Succs = append(b.cur.Succs, done)
		}
		b.breaks = b.breaks[:len(b.breaks)-1]
		delete(b.labeledBreak, label)
		if len(head.Succs) == 0 {
			// select {} blocks forever: abnormal termination.
			head.Succs = append(head.Succs, b.g.Abort)
		}
		b.cur = done

	case *ast.BranchStmt:
		b.add(s)
		switch s.Tok {
		case token.BREAK:
			if s.Label != nil {
				if dst, ok := b.labeledBreak[s.Label.Name]; ok {
					b.jump(dst)
					return
				}
			} else if len(b.breaks) > 0 {
				b.jump(b.breaks[len(b.breaks)-1])
				return
			}
			b.jump(b.g.Exit) // malformed; fail safe
		case token.CONTINUE:
			if s.Label != nil {
				if dst, ok := b.labeledCont[s.Label.Name]; ok {
					b.jump(dst)
					return
				}
			} else if len(b.continues) > 0 {
				b.jump(b.continues[len(b.continues)-1])
				return
			}
			b.jump(b.g.Exit)
		case token.GOTO:
			if s.Label == nil {
				b.jump(b.g.Exit) // malformed; fail safe
				return
			}
			name := s.Label.Name
			if dst, ok := b.labeledBlocks[name]; ok {
				b.jump(dst)
			} else {
				from := b.cur
				b.pendingGotos[name] = append(b.pendingGotos[name], from)
				b.cur = b.newBlock()
			}
		case token.FALLTHROUGH:
			// switchBody wires the edge; nothing to do here.
		}

	case *ast.LabeledStmt:
		// A label starts a new block so goto can target it.
		target := b.newBlock()
		b.cur.Succs = append(b.cur.Succs, target)
		b.cur = target
		b.labeledBlocks[s.Label.Name] = target
		for _, from := range b.pendingGotos[s.Label.Name] {
			from.Succs = append(from.Succs, target)
		}
		delete(b.pendingGotos, s.Label.Name)
		// Loops and switches consume the label for break/continue.
		switch s.Stmt.(type) {
		case *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt,
			*ast.TypeSwitchStmt, *ast.SelectStmt:
			b.labelOfNext = s.Label.Name
		}
		b.stmt(s.Stmt)

	case *ast.DeferStmt, *ast.GoStmt, *ast.SendStmt, *ast.IncDecStmt,
		*ast.AssignStmt, *ast.DeclStmt, *ast.EmptyStmt:
		b.add(s)

	default:
		// Anything unanticipated is recorded so uses are still visible.
		b.add(s)
	}
}

// switchBody wires the case clauses of sw, an expression or type
// switch: the case expressions are tested in source order, the first at
// the end of the current block and each later one in a block of its
// own, and a miss on the last goes to the default clause, or past the
// switch when there is none. In a tagless switch each test is a
// condition (Cond). fallthrough in clause i adds an edge from the end of
// clause i's body to the start of clause i+1's body.
func (b *builder) switchBody(sw ast.Stmt, body *ast.BlockStmt, label string, tagless bool) {
	done := b.newBlock()
	if label != "" {
		b.labeledBreak[label] = done
	}
	b.breaks = append(b.breaks, done)

	var clauses []*ast.CaseClause
	for _, c := range body.List {
		if cc, ok := c.(*ast.CaseClause); ok {
			clauses = append(clauses, cc)
		}
	}
	bodyBlocks := make([]*Block, len(clauses))
	for i := range clauses {
		bodyBlocks[i] = b.newBlock()
	}
	miss := done
	for i, cc := range clauses {
		if cc.List == nil {
			miss = bodyBlocks[i]
			continue
		}
		for _, e := range cc.List {
			b.add(e)
			b.cur.Switch = sw
			if tagless {
				b.cur.Cond = e
			}
			next := b.newBlock()
			b.cur.Succs = append(b.cur.Succs, bodyBlocks[i], next) // match, miss
			b.cur = next
		}
	}
	b.cur.Succs = append(b.cur.Succs, miss)
	for i, cc := range clauses {
		b.cur = bodyBlocks[i]
		fallsThrough := false
		for _, s := range cc.Body {
			if br, ok := s.(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH {
				fallsThrough = true
			}
			b.stmt(s)
		}
		if fallsThrough && i+1 < len(bodyBlocks) {
			b.cur.Succs = append(b.cur.Succs, bodyBlocks[i+1])
			b.cur = b.newBlock()
		} else {
			b.cur.Succs = append(b.cur.Succs, done)
		}
	}
	b.breaks = b.breaks[:len(b.breaks)-1]
	delete(b.labeledBreak, label)
	b.cur = done
}

// commChan returns the channel operand of a select communication: the
// channel of a send, the operand of a receive, or nil for the default
// clause (and for a malformed communication).
func commChan(s ast.Stmt) ast.Expr {
	var x ast.Expr
	switch s := s.(type) {
	case *ast.SendStmt:
		return s.Chan
	case *ast.ExprStmt:
		x = s.X
	case *ast.AssignStmt:
		if len(s.Rhs) == 1 {
			x = s.Rhs[0]
		}
	}
	if u, ok := ast.Unparen(x).(*ast.UnaryExpr); ok && u.Op == token.ARROW {
		return u.X
	}
	return nil
}

// Inspect calls f in ast.Inspect order, but never with nil, on the part
// of node n its block evaluates. A loop or select statement heading a block contributes only
// the range expression of a range statement; function literals are
// visited but not entered, since their bodies are graphs of their own.
func Inspect(n ast.Node, f func(ast.Node) bool) {
	switch s := n.(type) {
	case *ast.ForStmt, *ast.SelectStmt:
		return
	case *ast.RangeStmt:
		n = s.X
	}
	ast.Inspect(n, func(c ast.Node) bool {
		if c == nil {
			return false
		}
		_, lit := c.(*ast.FuncLit)
		return f(c) && !lit
	})
}

// pushLoop registers break/continue targets (and their labeled forms).
func (b *builder) pushLoop(brk, cont *Block, label string) {
	b.breaks = append(b.breaks, brk)
	b.continues = append(b.continues, cont)
	if label != "" {
		b.labeledBreak[label] = brk
		b.labeledCont[label] = cont
	}
}

func (b *builder) popLoop(label string) {
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.continues = b.continues[:len(b.continues)-1]
	if label != "" {
		delete(b.labeledBreak, label)
		delete(b.labeledCont, label)
	}
}

// takeLabel consumes the label recorded by an enclosing LabeledStmt.
func (b *builder) takeLabel() string {
	l := b.labelOfNext
	b.labelOfNext = ""
	return l
}

// noReturn reports whether call never returns: the panic builtin,
// runtime.Goexit, os.Exit, or the log fatal/panic family. (testing's
// t.Fatal family is not listed — the lifecycle analyzers skip test
// files anyway.)
func (b *builder) noReturn(call *ast.CallExpr) bool {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fun.Name == "panic" {
			if b.info == nil {
				return true
			}
			if _, isBuiltin := b.info.Uses[fun].(*types.Builtin); isBuiltin {
				return true
			}
		}
	case *ast.SelectorExpr:
		pkg, ok := ast.Unparen(fun.X).(*ast.Ident)
		if !ok {
			return false
		}
		// Resolve through the type info when available so a local
		// variable named os/log doesn't trip the match.
		if b.info != nil {
			if _, isPkg := b.info.Uses[pkg].(*types.PkgName); !isPkg {
				return false
			}
		}
		full := pkg.Name + "." + fun.Sel.Name
		switch full {
		case "os.Exit", "runtime.Goexit":
			return true
		}
		if pkg.Name == "log" && (strings.HasPrefix(fun.Sel.Name, "Fatal") ||
			strings.HasPrefix(fun.Sel.Name, "Panic")) {
			return true
		}
	}
	return false
}

// Bodies calls visit on the body of every function declaration and
// function literal in f, each of which is a graph of its own.
func Bodies(f *ast.File, visit func(body *ast.BlockStmt)) {
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Body != nil {
				visit(n.Body)
			}
		case *ast.FuncLit:
			visit(n.Body)
		}
		return true
	})
}

// Reachable reports the blocks reachable from the entry, in index
// order. Dead blocks (after return/break) keep their slots in Blocks
// but take no part in dataflow.
func (g *Graph) Reachable() []*Block {
	seen := make([]bool, len(g.Blocks))
	var walk func(*Block)
	walk = func(blk *Block) {
		if seen[blk.Index] {
			return
		}
		seen[blk.Index] = true
		for _, s := range blk.Succs {
			walk(s)
		}
	}
	walk(g.Entry)
	var out []*Block
	for _, blk := range g.Blocks {
		if seen[blk.Index] {
			out = append(out, blk)
		}
	}
	return out
}

// PostDom is a graph's post-dominator tree, rooted at Exit, and the
// control dependences it implies.
type PostDom struct {
	idom []*Block // by Block.Index
	deps [][]Dep  // by Block.Index
}

// Dep is one control dependence: a block that has it runs whenever From
// takes its successor Succs[Edge], but not on every path from From.
type Dep struct {
	From *Block
	Edge int
}

// PostDominators computes g's post-dominator tree (Cooper, Harvey and
// Kennedy's iteration over the reversed graph) and control dependences
// (Ferrante, Ottenstein and Warren). A block for which leaves reports
// true is taken to end the function without reaching Exit, as Abort
// does; leaves may be nil.
func (g *Graph) PostDominators(leaves func(*Block) bool) *PostDom {
	n := len(g.Blocks)
	succs, preds := make([][]*Block, n), make([][]*Block, n)
	for _, blk := range g.Blocks {
		if leaves == nil || !leaves(blk) {
			succs[blk.Index] = blk.Succs
			for _, s := range blk.Succs {
				preds[s.Index] = append(preds[s.Index], blk)
			}
		}
	}
	// Number the blocks that reach Exit in postorder of the reversed
	// graph, from 1 with Exit last; the rest stay 0, off the tree.
	order := make([]int, n)
	var post []*Block
	var visit func(*Block)
	visit = func(blk *Block) {
		order[blk.Index] = -1
		for _, p := range preds[blk.Index] {
			if order[p.Index] == 0 {
				visit(p)
			}
		}
		post = append(post, blk)
		order[blk.Index] = len(post)
	}
	visit(g.Exit)
	pd := &PostDom{idom: make([]*Block, n), deps: make([][]Dep, n)}
	idom := pd.idom
	idom[g.Exit.Index] = g.Exit
	for changed := true; changed; {
		changed = false
		for i := len(post) - 2; i >= 0; i-- {
			var d *Block
			for _, s := range succs[post[i].Index] {
				if idom[s.Index] == nil {
					continue
				}
				for d != nil && d != s {
					if order[d.Index] < order[s.Index] {
						d = idom[d.Index]
					} else {
						s = idom[s.Index]
					}
				}
				d = s
			}
			if idom[post[i].Index] != d {
				idom[post[i].Index], changed = d, true
			}
		}
	}
	idom[g.Exit.Index] = nil
	// An edge from x decides the blocks from its target up the tree to
	// x's own post-dominator. A block off the tree has none, so it
	// depends on every edge into it.
	for _, x := range g.Blocks {
		for e, s := range succs[x.Index] {
			for blk := s; blk != nil && blk != idom[x.Index]; blk = idom[blk.Index] {
				pd.deps[blk.Index] = append(pd.deps[blk.Index], Dep{x, e})
			}
		}
	}
	return pd
}

// Idom returns blk's immediate post-dominator: the first block after blk
// on every path from blk to Exit. It is nil for Exit and for a block
// with no path to Exit, which lies off the tree.
func (p *PostDom) Idom(blk *Block) *Block { return p.idom[blk.Index] }

// Deps returns blk's control dependences: the edges whose target blk
// post-dominates while blk does not post-dominate their source.
func (p *PostDom) Deps(blk *Block) []Dep { return p.deps[blk.Index] }

// String renders the graph for tests and debugging.
func (g *Graph) String() string {
	var sb strings.Builder
	for _, blk := range g.Blocks {
		tag := ""
		switch blk {
		case g.Entry:
			tag = " entry"
		case g.Exit:
			tag = " exit"
		case g.Abort:
			tag = " abort"
		}
		fmt.Fprintf(&sb, "b%d%s:", blk.Index, tag)
		for _, s := range blk.Succs {
			fmt.Fprintf(&sb, " ->b%d", s.Index)
		}
		fmt.Fprintf(&sb, " (%d nodes)\n", len(blk.Nodes))
	}
	return sb.String()
}
