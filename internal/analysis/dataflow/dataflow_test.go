package dataflow

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"

	"predata/internal/analysis"
)

// toySpec tracks the synthetic resource of:
//
//	func acquire() (*res, error)
//	func (*res) close()
//	func (*res) peek() int
//
// declared inside each test's source, with close exactly-once.
func toySpec(exactlyOnce bool) *Spec {
	return &Spec{
		Resource: "res",
		Acquire: func(info *types.Info, e ast.Expr) (string, bool) {
			call, ok := e.(*ast.CallExpr)
			if !ok {
				return "", false
			}
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "acquire" {
				return "acquire", true
			}
			return "", false
		},
		Release: func(info *types.Info, call *ast.CallExpr) bool {
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			return ok && sel.Sel.Name == "close"
		},
		Benign: func(info *types.Info, call *ast.CallExpr) bool {
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			return ok && sel.Sel.Name == "peek"
		},
		ExactlyOnce: exactlyOnce,
	}
}

const toyDecls = `
type res struct{ n int }
func acquire() (*res, error) { return &res{}, nil }
func (r *res) close()        {}
func (r *res) peek() int     { return r.n }
`

// check type-checks body wrapped in a package with the toy declarations
// and returns the findings.
func check(t *testing.T, src string, exactlyOnce bool) []Finding {
	t.Helper()
	full := "package p\n" + toyDecls + "\n" + src
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "t.go", full, 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: importer.Default()}
	pkg, err := conf.Check("p", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatalf("type-check: %v", err)
	}
	pass := &analysis.Pass{
		Fset:      fset,
		Files:     []*ast.File{f},
		Pkg:       pkg,
		TypesInfo: info,
	}
	return Check(pass, toySpec(exactlyOnce))
}

func kinds(fs []Finding) []Kind {
	out := make([]Kind, len(fs))
	for i, f := range fs {
		out[i] = f.Kind
	}
	return out
}

func TestCleanPaths(t *testing.T) {
	for name, src := range map[string]string{
		"straight": `func f() error {
			r, err := acquire()
			if err != nil { return err }
			r.close()
			return nil
		}`,
		"defer": `func f() error {
			r, err := acquire()
			if err != nil { return err }
			defer r.close()
			return nil
		}`,
		"handoff-return": `func f() (*res, error) {
			r, err := acquire()
			if err != nil { return nil, err }
			return r, nil
		}`,
		"handoff-call": `func g(*res) {}
		func f() {
			r, _ := acquire()
			g(r)
		}`,
		"nil-guard": `func f() {
			r, _ := acquire()
			if r == nil { return }
			r.close()
		}`,
		"loop-close-before-backedge": `func f(n int) {
			for i := 0; i < n; i++ {
				r, err := acquire()
				if err != nil { continue }
				r.close()
			}
		}`,
		"panic-path-exempt": `func f(c bool) {
			r, _ := acquire()
			if c { panic("x") }
			r.close()
		}`,
		"goto-rejoin": `func f(c bool) {
			r, _ := acquire()
			if c { goto done }
		done:
			r.close()
		}`,
		"closure-capture-handoff": `func f(run func(func())) {
			r, _ := acquire()
			run(func() { r.close() })
		}`,
	} {
		t.Run(name, func(t *testing.T) {
			if fs := check(t, src, false); len(fs) != 0 {
				t.Fatalf("want clean, got %v", kinds(fs))
			}
		})
	}
}

func TestLeaks(t *testing.T) {
	for name, src := range map[string]string{
		"branch-leak": `func f(c bool) {
			r, _ := acquire()
			if c { return }
			r.close()
		}`,
		"benign-only": `func f() int {
			r, _ := acquire()
			return r.peek()
		}`,
		"loop-leak-on-break": `func f(n int) {
			for i := 0; i < n; i++ {
				r, _ := acquire()
				if i == 2 { break }
				r.close()
			}
		}`,
		"switch-missing-case": `func f(x int) {
			r, _ := acquire()
			switch x {
			case 0:
				r.close()
			}
		}`,
	} {
		t.Run(name, func(t *testing.T) {
			fs := check(t, src, false)
			if len(fs) != 1 || fs[0].Kind != Leak {
				t.Fatalf("want exactly one Leak, got %v", kinds(fs))
			}
		})
	}
}

func TestDiscardAndReassign(t *testing.T) {
	fs := check(t, `func f() { acquire() }`, false)
	if len(fs) != 1 || fs[0].Kind != Discard {
		t.Fatalf("expr-stmt: want Discard, got %v", kinds(fs))
	}
	fs = check(t, `func f() { _, _ = acquire() }`, false)
	if len(fs) != 1 || fs[0].Kind != Discard {
		t.Fatalf("blank: want Discard, got %v", kinds(fs))
	}
	fs = check(t, `func f() {
		r, _ := acquire()
		r, _ = acquire()
		r.close()
	}`, false)
	if len(fs) != 1 || fs[0].Kind != LeakReassign {
		t.Fatalf("rebind: want LeakReassign, got %v", kinds(fs))
	}
}

func TestExactlyOnce(t *testing.T) {
	fs := check(t, `func f(c bool) {
		r, _ := acquire()
		r.close()
		if c { r.close() }
	}`, true)
	if len(fs) != 1 || fs[0].Kind != DoubleRelease {
		t.Fatalf("want DoubleRelease, got %v", kinds(fs))
	}
	fs = check(t, `func f() int {
		r, _ := acquire()
		r.close()
		return r.peek()
	}`, true)
	if len(fs) != 1 || fs[0].Kind != UseAfterRelease {
		t.Fatalf("want UseAfterRelease, got %v", kinds(fs))
	}
	// Idempotent releases (ExactlyOnce=false) report neither.
	fs = check(t, `func f(c bool) int {
		r, _ := acquire()
		r.close()
		if c { r.close() }
		return r.peek()
	}`, false)
	if len(fs) != 0 {
		t.Fatalf("idempotent: want clean, got %v", kinds(fs))
	}
}

func TestFuncLitBodiesAnalyzedIndependently(t *testing.T) {
	fs := check(t, `func f(run func(func())) {
		run(func() {
			r, _ := acquire()
			if r != nil { return }
			r.close()
		})
	}`, false)
	if len(fs) != 1 || fs[0].Kind != Leak {
		t.Fatalf("want Leak inside closure, got %v", kinds(fs))
	}
}

func TestValidityFlagKillsObligation(t *testing.T) {
	// The err edge must not leak even though close is unreachable there.
	fs := check(t, `func f() {
		r, err := acquire()
		if err != nil {
			return
		}
		r.close()
	}`, false)
	if len(fs) != 0 {
		t.Fatalf("err-guard: want clean, got %v", kinds(fs))
	}
	// Conjunction: err == nil && c refines err on the true edge.
	fs = check(t, `func f(c bool) {
		r, err := acquire()
		if err == nil && c {
			r.close()
			return
		}
		if err == nil {
			r.close()
		}
	}`, false)
	if len(fs) != 0 {
		t.Fatalf("conjunction: want clean, got %v", kinds(fs))
	}
}

func TestFindingPositionsPointAtAcquire(t *testing.T) {
	src := `func f(c bool) {
		r, _ := acquire()
		if c { return }
		r.close()
	}`
	fs := check(t, src, false)
	if len(fs) != 1 {
		t.Fatalf("want one finding, got %v", kinds(fs))
	}
	if fs[0].Pos != fs[0].AcquirePos || !fs[0].Pos.IsValid() {
		t.Fatalf("leak must report at the acquire site")
	}
	if !strings.Contains(fs[0].Desc, "acquire") {
		t.Fatalf("desc = %q, want acquire site name", fs[0].Desc)
	}
}
