package suite_test

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path"
	"path/filepath"
	"strings"
	"testing"

	"predata/internal/analysis"
	"predata/internal/analysis/suite"
)

// A bite is one edit of shipped code that brings in the fault a pass
// exists to catch: old occurs exactly once in the file, and the file
// with new in its place still type-checks.
type bite struct {
	pass, pkg, file string
	old, new        string
}

var bites = []bite{
	// Replay's admission carries an empty lease instead of the credits
	// it acquired, so a replayed chunk's budget bytes are never returned.
	{"mustrelease", "predata/internal/flowctl", "controller.go",
		"lease, err := df.c.budget.Acquire(ctx, n)",
		"_, err := df.c.budget.Acquire(ctx, n)\n\tlease := &Lease{}"},
	// The daemon opens its journal and never stores it for Close.
	{"mustrelease", "predata/internal/serve", "serve.go",
		"d.journal = log",
		"_ = log.Dir()"},
	// A refused pull returns with its span still open.
	{"mustrelease", "predata/internal/fabric", "fabric.go",
		"sp.End(0)\n\t\treturn nil, 0, fmt.Errorf(\"fabric: Pull from endpoint %d: %w\", h.Endpoint, faults.ErrEndpointDown)",
		"return nil, 0, fmt.Errorf(\"fabric: Pull from endpoint %d: %w\", h.Endpoint, faults.ErrEndpointDown)"},
	// A decoded chunk is dropped instead of handed to the engine.
	{"mustrelease", "predata/internal/predata", "predata.go",
		"return chunk, nil",
		"return nil, nil"},
	// The revive wait loses its dump deadline; the transient case's
	// attempt budget must not stand in for it.
	{"ctxdeadline", "predata/internal/predata", "predata.go",
		"if time.Now().After(deadline) {",
		"if deadline.IsZero() {"},
	// A wrapped transient no longer matches, so it is not retried.
	{"typederr", "predata/internal/predata", "predata.go",
		"case errors.Is(err, faults.ErrTransient):",
		"case err == faults.ErrTransient:"},
	// Rank 0 skips the migration all-to-all the other ranks wait in.
	{"collectivecheck", "predata/internal/apps/gtc", "gtc.go",
		"if comm.Size() > 1 && s.cfg.MigrationFraction > 0 {",
		"if comm.Rank() > 0 && s.cfg.MigrationFraction > 0 {"},
	// Rank 0 skips every species' exchange: its loop continues past the
	// all-to-all before reaching it.
	{"collectivecheck", "predata/internal/apps/gtc", "gtc.go",
		"sp++ {\n\t\tdata := s.particles[sp]",
		"sp++ {\n\t\tif comm.Rank() == 0 {\n\t\t\tcontinue\n\t\t}\n\t\tdata := s.particles[sp]"},
	// Admission waits for the pass slot with the flow's lock held.
	{"lockhold", "predata/internal/flowctl", "controller.go",
		"level := df.decideLocked()\n\tdf.mu.Unlock()",
		"level := df.decideLocked()"},
	// A rank goroutine that nothing waits for.
	{"goroutineleak", "predata/internal/mpi", "mpi.go",
		"defer wg.Done()\n\t\t\tdefer func() {",
		"defer func() {"},
}

// TestEveryAnalyzerBites proves each pass in the suite non-vacuous on
// the real tree: every row's edit, applied to the parsed source of its
// package, must draw an unsuppressed finding from its pass in the
// function it edits, where the unedited package has none. A pass with
// no row fails the test.
func TestEveryAnalyzerBites(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks real packages from source")
	}
	rows := map[string]bool{}
	var paths []string
	for _, b := range bites {
		rows[b.pass] = true
		paths = append(paths, b.pkg)
	}
	for _, a := range suite.Analyzers() {
		if !rows[a.Name] {
			t.Errorf("%s has no row in bites: show it catches a fault in shipped code", a.Name)
		}
	}
	loaded, err := analysis.Load(".", paths...)
	if err != nil {
		t.Fatal(err)
	}
	pkgs := map[string]*analysis.Package{}
	for _, p := range loaded {
		pkgs[p.ImportPath] = p
	}
	imp := importer.ForCompiler(loaded[0].Fset, "source", nil)
	for _, b := range bites {
		t.Run(b.pass+"/"+path.Base(b.pkg), func(t *testing.T) {
			a := suite.ByName(b.pass)
			if a == nil {
				t.Fatalf("no pass named %s", b.pass)
			}
			edited, before, after := mutate(t, pkgs[b.pkg], imp, b)
			if n := findings(t, pkgs[b.pkg], a, before); n != 0 {
				t.Fatalf("unedited %s already has %d finding(s) in lines %d-%d", b.file, n, before.first, before.last)
			}
			if findings(t, edited, a, after) == 0 {
				t.Errorf("%s is silent after replacing %q with %q in %s", b.pass, b.old, b.new, b.file)
			}
		})
	}
}

// mutate returns pkg type-checked with b's edit applied, and the line
// span of the function declaration that holds the edit before and after
// it.
func mutate(t *testing.T, pkg *analysis.Package, imp types.Importer, b bite) (*analysis.Package, span, span) {
	t.Helper()
	if pkg == nil {
		t.Fatalf("package %s not loaded", b.pkg)
	}
	name := filepath.Join(pkg.Dir, b.file)
	src, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(src), b.old); n != 1 {
		t.Fatalf("%q occurs %d times in %s, want once", b.old, n, b.file)
	}
	at := strings.Index(string(src), b.old)
	f, err := parser.ParseFile(pkg.Fset, name, strings.Replace(string(src), b.old, b.new, 1), parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	files := append([]*ast.File(nil), pkg.Files...)
	var before span
	for i, old := range files {
		if pkg.Fset.Position(old.Pos()).Filename == name {
			files[i], before = f, enclosing(t, pkg.Fset, old, at)
		}
	}
	if before.file == "" {
		t.Fatalf("%s is not in %s", b.file, b.pkg)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(pkg.ImportPath, pkg.Fset, files, info)
	if err != nil {
		t.Fatalf("edited %s does not type-check: %v", b.file, err)
	}
	edited := &analysis.Package{ImportPath: pkg.ImportPath, Dir: pkg.Dir, Fset: pkg.Fset,
		Files: files, Types: tpkg, Info: info}
	return edited, before, enclosing(t, pkg.Fset, f, at)
}

// enclosing returns the line span of the function declaration in f
// that holds byte offset at.
func enclosing(t *testing.T, fset *token.FileSet, f *ast.File, at int) span {
	t.Helper()
	pos := fset.File(f.Pos()).Pos(at)
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Pos() <= pos && pos < fd.End() {
			return span{fset.Position(pos).Filename, fset.Position(fd.Pos()).Line, fset.Position(fd.End()).Line}
		}
	}
	t.Fatalf("offset %d of %s is not inside a function declaration", at, fset.Position(pos).Filename)
	return span{}
}

// span is a line range of one file.
type span struct {
	file        string
	first, last int
}

// findings counts a's unsuppressed findings in pkg inside s.
func findings(t *testing.T, pkg *analysis.Package, a *analysis.Analyzer, s span) int {
	t.Helper()
	fs, err := analysis.RunAnalyzers([]*analysis.Package{pkg}, []*analysis.Analyzer{a})
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, f := range fs {
		if !f.Suppressed && f.Analyzer == a.Name && f.Path == s.file && s.first <= f.Line && f.Line <= s.last {
			t.Logf("%s:%d: %s", filepath.Base(f.Path), f.Line, f.Message)
			n++
		}
	}
	return n
}
