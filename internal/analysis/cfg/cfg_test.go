package cfg

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

// buildFunc parses src as a file, finds function name, and builds its
// CFG (without type information — shape tests only need syntax).
func buildFunc(t *testing.T, src, name string) *Graph {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "t.go", src, 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == name {
			return New(fd.Body, nil)
		}
	}
	t.Fatalf("func %s not found", name)
	return nil
}

// find returns the block holding the expression printed as text, alone
// or as an expression statement or a one-result return.
func find(t *testing.T, g *Graph, text string) *Block {
	t.Helper()
	for _, blk := range g.Blocks {
		for _, n := range blk.Nodes {
			switch s := n.(type) {
			case *ast.ExprStmt:
				n = s.X
			case *ast.ReturnStmt:
				if len(s.Results) == 1 {
					n = s.Results[0]
				}
			}
			if e, ok := n.(ast.Expr); ok && types.ExprString(e) == text {
				return blk
			}
		}
	}
	t.Fatalf("no block holds %s:\n%s", text, g)
	return nil
}

// skipEmpty follows blk through empty single-successor blocks.
func skipEmpty(blk *Block) *Block {
	for len(blk.Nodes) == 0 && len(blk.Succs) == 1 {
		blk = blk.Succs[0]
	}
	return blk
}

// exitReachable reports whether Exit is reachable from Entry.
func exitReachable(g *Graph) bool {
	for _, blk := range g.Reachable() {
		if blk == g.Exit {
			return true
		}
	}
	return false
}

func TestStraightLine(t *testing.T) {
	g := buildFunc(t, `package p
func f() { x := 1; _ = x }`, "f")
	if !exitReachable(g) {
		t.Fatalf("exit unreachable:\n%s", g)
	}
	if len(g.Entry.Nodes) != 2 {
		t.Fatalf("entry nodes = %d, want 2:\n%s", len(g.Entry.Nodes), g)
	}
}

func TestIfElseBranches(t *testing.T) {
	g := buildFunc(t, `package p
func f(c bool) int {
	if c {
		return 1
	}
	return 2
}`, "f")
	// The condition block must carry Cond and exactly two successors,
	// true edge first.
	var cond *Block
	for _, blk := range g.Reachable() {
		if blk.Cond != nil {
			cond = blk
		}
	}
	if cond == nil {
		t.Fatalf("no condition block:\n%s", g)
	}
	if len(cond.Succs) != 2 {
		t.Fatalf("cond successors = %d, want 2:\n%s", len(cond.Succs), g)
	}
}

func TestForLoopBackEdge(t *testing.T) {
	g := buildFunc(t, `package p
func f(n int) {
	for i := 0; i < n; i++ {
		_ = i
	}
}`, "f")
	// Some reachable block must have a back edge (successor with a
	// smaller-or-equal index that is also its ancestor). Weaker check:
	// the head has two successors (body, done).
	var head *Block
	for _, blk := range g.Reachable() {
		if blk.Cond != nil && len(blk.Succs) == 2 {
			head = blk
		}
	}
	if head == nil {
		t.Fatalf("no loop head with cond:\n%s", g)
	}
	if !exitReachable(g) {
		t.Fatalf("exit unreachable:\n%s", g)
	}
}

func TestRangeBreakContinue(t *testing.T) {
	g := buildFunc(t, `package p
func f(xs []int) {
	for _, x := range xs {
		if x < 0 {
			continue
		}
		if x > 10 {
			break
		}
		_ = x
	}
}`, "f")
	if !exitReachable(g) {
		t.Fatalf("exit unreachable:\n%s", g)
	}
}

func TestLabeledBreak(t *testing.T) {
	g := buildFunc(t, `package p
func f(m [][]int) {
outer:
	for _, row := range m {
		for _, v := range row {
			if v == 0 {
				break outer
			}
			if v == 1 {
				continue outer
			}
		}
	}
}`, "f")
	if !exitReachable(g) {
		t.Fatalf("exit unreachable:\n%s", g)
	}
}

func TestSwitchFallthroughAndDefault(t *testing.T) {
	g := buildFunc(t, `package p
func f(x int) int {
	switch x {
	case 0:
		fallthrough
	case 1:
		return 10
	default:
		return 20
	}
}`, "f")
	if !exitReachable(g) {
		t.Fatalf("exit unreachable:\n%s", g)
	}
	// The head tests case 0 (a tagged switch has no Cond): a match runs
	// clause 0, which falls through into clause 1; a miss tests case 1.
	// With a default, a miss on case 1 takes it: no edge leaves the
	// switch without running a clause.
	head, one := find(t, g, "0"), find(t, g, "1")
	if head != g.Entry || head.Cond != nil || len(head.Succs) != 2 || head.Succs[1] != one {
		t.Fatalf("case 0 test does not miss into the case 1 test:\n%s", g)
	}
	clause0 := head.Succs[0]
	if len(clause0.Nodes) != 1 || len(clause0.Succs) != 1 || clause0.Succs[0] != one.Succs[0] {
		t.Fatalf("clause 0 does not fall through into clause 1:\n%s", g)
	}
	if dflt := skipEmpty(one.Succs[1]); dflt != find(t, g, "20") {
		t.Fatalf("a miss on case 1 does not take the default:\n%s", g)
	}
}

// TestSwitchCaseOrder: case expressions are tested in source order, a
// tagless switch's tests are conditions, and the default clause runs
// only after every test missed, wherever it is written.
func TestSwitchCaseOrder(t *testing.T) {
	g := buildFunc(t, `package p
func f(a, b func() bool) {
	switch {
	default:
		z()
	case a():
		x()
	case b():
		y()
	}
	w()
}`, "f")
	ta, tb, z := find(t, g, "a()"), find(t, g, "b()"), find(t, g, "z()")
	if ta != g.Entry || ta.Cond == nil || len(ta.Succs) != 2 {
		t.Fatalf("a() is not the first test, with a condition:\n%s", g)
	}
	if ta.Succs[0] != find(t, g, "x()") || ta.Succs[1] != tb {
		t.Fatalf("a() does not match into x() and miss into the b() test:\n%s", g)
	}
	if tb.Cond == nil || tb.Succs[0] != find(t, g, "y()") || skipEmpty(tb.Succs[1]) != z {
		t.Fatalf("b() does not match into y() and miss into the default:\n%s", g)
	}
	preds := 0
	for _, blk := range g.Reachable() {
		for _, s := range blk.Succs {
			if s == z {
				preds++
			}
		}
	}
	if preds != 1 {
		t.Fatalf("default body has %d predecessors, want 1 (the last miss):\n%s", preds, g)
	}
}

func TestSwitchWithoutDefaultHasNoMatchEdge(t *testing.T) {
	g := buildFunc(t, `package p
func f(x int) {
	switch x {
	case 0:
		_ = x
	}
}`, "f")
	// The case test matches into the clause or misses past the switch.
	found := false
	for _, blk := range g.Reachable() {
		if len(blk.Succs) == 2 {
			found = true
		}
	}
	if !found {
		t.Fatalf("no-match edge missing:\n%s", g)
	}
}

func TestSelectClauses(t *testing.T) {
	g := buildFunc(t, `package p
func f(a, b chan int) int {
	select {
	case x := <-a:
		return x
	case <-b:
		return 0
	}
}`, "f")
	if !exitReachable(g) {
		t.Fatalf("exit unreachable:\n%s", g)
	}
}

// TestSelectHead: a select evaluates every channel operand at its head,
// in source order, and then waits; each clause starts with its
// communication.
func TestSelectHead(t *testing.T) {
	g := buildFunc(t, `package p
func f(a, b chan int, done func() chan struct{}) {
	select {
	case v := <-a:
		_ = v
	case b <- 1:
	case <-done():
	default:
	}
}`, "f")
	head := g.Entry
	var got []string
	for _, n := range head.Nodes {
		if e, ok := n.(ast.Expr); ok {
			got = append(got, types.ExprString(e))
		}
	}
	sel, ok := head.Nodes[len(head.Nodes)-1].(*ast.SelectStmt)
	if !ok || strings.Join(got, " ") != "a b done()" {
		t.Fatalf("head holds operands %v and then %T, want [a b done()] then the select:\n%s", got, head.Nodes[len(head.Nodes)-1], g)
	}
	if len(head.Succs) != 4 {
		t.Fatalf("select head has %d successors, want one per clause (4):\n%s", len(head.Succs), g)
	}
	for i, c := range sel.Body.List {
		if comm := c.(*ast.CommClause).Comm; comm != nil && head.Succs[i].Nodes[0] != comm {
			t.Errorf("clause %d does not start with its communication:\n%s", i, g)
		}
	}
}

// TestLoopHeadsHoldTheirStatement: the block every iteration returns to
// starts with the loop statement; a for head then holds its condition.
func TestLoopHeadsHoldTheirStatement(t *testing.T) {
	g := buildFunc(t, `package p
func f(n int, xs []int) {
	for i := 0; i < n; i++ {
	}
	for range xs {
	}
	for {
	}
}`, "f")
	var heads []string
	for _, blk := range g.Reachable() {
		if len(blk.Nodes) == 0 {
			continue
		}
		switch s := blk.Nodes[0].(type) {
		case *ast.ForStmt:
			if s.Cond != nil && (len(blk.Nodes) != 2 || blk.Cond != s.Cond) {
				t.Errorf("for head holds %d nodes, want the loop and its condition:\n%s", len(blk.Nodes), g)
			}
			heads = append(heads, "for")
		case *ast.RangeStmt:
			heads = append(heads, "range")
		}
	}
	if strings.Join(heads, " ") != "for range for" {
		t.Fatalf("loop heads %v, want [for range for]:\n%s", heads, g)
	}
}

func TestEmptySelectAborts(t *testing.T) {
	g := buildFunc(t, `package p
func f() { select {} }`, "f")
	abortSeen := false
	for _, blk := range g.Reachable() {
		if blk == g.Abort {
			abortSeen = true
		}
	}
	if !abortSeen {
		t.Fatalf("select{} does not reach Abort:\n%s", g)
	}
}

func TestPanicGoesToAbort(t *testing.T) {
	g := buildFunc(t, `package p
func f(c bool) {
	if c {
		panic("boom")
	}
}`, "f")
	abortSeen := false
	for _, blk := range g.Reachable() {
		for _, s := range blk.Succs {
			if s == g.Abort {
				abortSeen = true
			}
		}
	}
	if !abortSeen {
		t.Fatalf("panic edge to Abort missing:\n%s", g)
	}
	if !exitReachable(g) {
		t.Fatalf("normal path lost:\n%s", g)
	}
}

func TestGotoForwardAndBackward(t *testing.T) {
	g := buildFunc(t, `package p
func f(c bool) {
retry:
	if c {
		goto out
	}
	goto retry
out:
	_ = c
}`, "f")
	if !exitReachable(g) {
		t.Fatalf("exit unreachable:\n%s", g)
	}
}

func TestTypeSwitch(t *testing.T) {
	g := buildFunc(t, `package p
func f(v any) int {
	switch x := v.(type) {
	case int:
		return x
	case string:
		return len(x)
	}
	return 0
}`, "f")
	if !exitReachable(g) {
		t.Fatalf("exit unreachable:\n%s", g)
	}
}

func TestDeferAndGoAreRecorded(t *testing.T) {
	g := buildFunc(t, `package p
func f(fn func()) {
	defer fn()
	go fn()
}`, "f")
	n := 0
	for _, blk := range g.Reachable() {
		n += len(blk.Nodes)
	}
	if n != 2 {
		t.Fatalf("recorded nodes = %d, want 2 (defer, go):\n%s", n, g)
	}
}

func TestInfiniteLoopNoExit(t *testing.T) {
	g := buildFunc(t, `package p
func f() {
	for {
	}
}`, "f")
	if exitReachable(g) {
		t.Fatalf("for{} must not reach exit:\n%s", g)
	}
}

// TestControlDependence: a block depends on the branch edges that decide
// whether it runs, and not on a branch whose other arm can only abort or
// leave.
func TestControlDependence(t *testing.T) {
	g := buildFunc(t, `package p
func f(a, b, c bool) error {
	if a {
		x()
	}
	for b {
		if c {
			panic(0)
		}
		if d() {
			return err
		}
		y()
	}
	z()
	return nil
}`, "f")
	ret := find(t, g, "err")
	pd := g.PostDominators(func(blk *Block) bool { return blk == ret })
	for text, want := range map[string]string{
		"x()":      "a/0",
		"panic(0)": "c/0",
		"err":      "d()/0",
		"y()":      "b/0",
		"z()":      "",
		"nil":      "",
	} {
		var got []string
		for _, d := range pd.Deps(find(t, g, text)) {
			got = append(got, fmt.Sprintf("%s/%d", types.ExprString(d.From.Cond), d.Edge))
		}
		if strings.Join(got, " ") != want {
			t.Errorf("%s depends on %v, want %q:\n%s", text, got, want, g)
		}
	}
	if pd.Idom(find(t, g, "panic(0)")) != nil || pd.Idom(ret) != nil {
		t.Errorf("a block that can only abort or leave is in the post-dominator tree:\n%s", g)
	}
}

// FuzzCFG builds the graph of every function body go/parser accepts, and
// of every function literal in it, and checks what the passes rely on:
// New does not panic, a block with a Cond has exactly two successors,
// every statement is in exactly one block, and the post-dominator tree
// holds exactly the blocks that reach Exit, each under a block that lies
// on every path from it to Exit.
func FuzzCFG(f *testing.F) {
	for _, body := range []string{
		"x := 1; _ = x",
		"if c { return 1 } else if d { panic(0) }; return 2",
		"for i := 0; i < n; i++ { if i > 3 { break }; continue }",
		"outer: for _, r := range m { for range r { continue outer } }",
		"switch x { case 0: fallthrough; case 1, 2: return; default: }",
		"switch { default: z(); case a(): x() }",
		"switch v := i.(type) { case int: _ = v; case nil: }",
		"select { case v, ok := <-a: _ = ok; case b <- <-c: ; default: }",
		"select {}",
		"retry: if c { goto out }; goto retry; out: _ = c",
		"defer func() { recover() }(); go func() { for { select { case <-d: return } } }()",
		"L: switch { case a: break L }; for { os.Exit(1) }",
		"goto", // go/parser accepts a goto without its label
	} {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body string) {
		file, err := parser.ParseFile(token.NewFileSet(), "f.go", "package p\nfunc f() {\n"+body+"\n}\n", 0)
		if err != nil {
			return
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					checkGraph(t, n.Body, New(n.Body, nil))
				}
			case *ast.FuncLit:
				checkGraph(t, n.Body, New(n.Body, nil))
			}
			return true
		})
	})
}

// checkGraph checks g, built from body, for FuzzCFG.
func checkGraph(t *testing.T, body *ast.BlockStmt, g *Graph) {
	t.Helper()
	in := map[ast.Node]int{}
	for _, blk := range g.Blocks {
		if blk.Cond != nil && len(blk.Succs) != 2 {
			t.Fatalf("b%d has a Cond and %d successors:\n%s", blk.Index, len(blk.Succs), g)
		}
		for _, n := range blk.Nodes {
			in[n]++
		}
	}
	for n, k := range in {
		if k != 1 {
			t.Fatalf("%T at %d is in %d blocks:\n%s", n, n.Pos(), k, g)
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ExprStmt, *ast.AssignStmt, *ast.SendStmt, *ast.IncDecStmt,
			*ast.ReturnStmt, *ast.DeclStmt, *ast.DeferStmt, *ast.GoStmt,
			*ast.BranchStmt, *ast.EmptyStmt, *ast.ForStmt, *ast.RangeStmt, *ast.SelectStmt:
			if in[n] != 1 {
				t.Fatalf("%T at %d is in no block:\n%s", n, n.Pos(), g)
			}
		}
		return true
	})
	pd := g.PostDominators(nil)
	for _, blk := range g.Blocks {
		d := pd.Idom(blk)
		switch {
		case blk == g.Exit:
			if d != nil {
				t.Fatalf("Exit has post-dominator b%d:\n%s", d.Index, g)
			}
		case !reaches(g, blk, nil):
			if d != nil {
				t.Fatalf("b%d cannot reach Exit but has post-dominator b%d:\n%s", blk.Index, d.Index, g)
			}
		case d == nil:
			t.Fatalf("b%d reaches Exit but has no post-dominator:\n%s", blk.Index, g)
		case d == blk || reaches(g, blk, d):
			t.Fatalf("b%d reaches Exit around its post-dominator b%d:\n%s", blk.Index, d.Index, g)
		}
	}
}

// reaches reports whether some path from blk to Exit avoids the block
// avoid.
func reaches(g *Graph, blk, avoid *Block) bool {
	seen := map[*Block]bool{avoid: true}
	work := []*Block{blk}
	for len(work) > 0 {
		b := work[len(work)-1]
		work = work[:len(work)-1]
		switch {
		case seen[b]:
		case b == g.Exit:
			return true
		default:
			seen[b] = true
			work = append(work, b.Succs...)
		}
	}
	return false
}
