// Package analysistest runs an analyzer over fixture packages and checks
// its diagnostics against // want "regexp" comments, mirroring the
// upstream golang.org/x/tools/go/analysis/analysistest contract on top
// of the project's dependency-free analysis framework.
//
// A fixture is a directory of .go files forming one package. Every line
// expected to trigger a diagnostic carries a trailing comment:
//
//	mu.Lock()
//	time.Sleep(d) // want `blocking call.*while .*mu.* is held`
//
// Multiple expectations on one line use multiple backquoted strings.
// The test fails on any unmatched expectation and on any unexpected
// diagnostic. Fixtures may import the real project packages
// (predata/internal/mpi, ...), which are type-checked from source.
package analysistest

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"predata/internal/analysis"
)

var wantRE = regexp.MustCompile("//\\s*want\\s+((?:`[^`]*`\\s*)+)$")
var wantPartRE = regexp.MustCompile("`([^`]*)`")

// expectation is one // want entry.
type expectation struct {
	file    string
	line    int
	pattern *regexp.Regexp
	matched bool
}

// Run analyzes the fixture package rooted at dir (relative to the test's
// working directory) and checks diagnostics against its want comments.
func Run(t *testing.T, a *analysis.Analyzer, dir string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("analysistest: %v", err)
	}
	fset := token.NewFileSet()
	var paths []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			paths = append(paths, filepath.Join(dir, e.Name()))
		}
	}
	if len(paths) == 0 {
		t.Fatalf("analysistest: no .go files in %s", dir)
	}
	sort.Strings(paths)

	var files []*ast.File
	var expects []*expectation
	for _, path := range paths {
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			t.Fatalf("analysistest: parse %s: %v", path, err)
		}
		files = append(files, f)
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("analysistest: %v", err)
		}
		for i, line := range strings.Split(string(src), "\n") {
			m := wantRE.FindStringSubmatch(strings.TrimRight(line, " \t"))
			if m == nil {
				continue
			}
			for _, part := range wantPartRE.FindAllStringSubmatch(m[1], -1) {
				re, err := regexp.Compile(part[1])
				if err != nil {
					t.Fatalf("analysistest: %s:%d: bad want pattern: %v", path, i+1, err)
				}
				expects = append(expects, &expectation{file: path, line: i + 1, pattern: re})
			}
		}
	}

	pkg, info, err := checkFixture(fset, dir, files)
	if err != nil {
		t.Fatalf("analysistest: type-check %s: %v", dir, err)
	}

	pass := &analysis.Pass{
		Analyzer:  a,
		Fset:      fset,
		Files:     files,
		Pkg:       pkg,
		TypesInfo: info,
	}
	pass.Report = func(d analysis.Diagnostic) {
		pos := fset.Position(d.Pos)
		for _, e := range expects {
			if e.matched || e.file != pos.Filename || e.line != pos.Line {
				continue
			}
			if e.pattern.MatchString(d.Message) {
				e.matched = true
				return
			}
		}
		t.Errorf("%s:%d:%d: unexpected diagnostic: %s", pos.Filename, pos.Line, pos.Column, d.Message)
	}
	if err := a.Run(pass); err != nil {
		t.Fatalf("analysistest: %s: %v", a.Name, err)
	}
	for _, e := range expects {
		if !e.matched {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", e.file, e.line, e.pattern)
		}
	}
}

// checkFixture type-checks the parsed fixture files. The fixture package
// gets a module-internal import path so analyzers that distinguish
// project-owned symbols (typederr's sentinels) treat fixture
// declarations as in-module.
func checkFixture(fset *token.FileSet, dir string, files []*ast.File) (*types.Package, *types.Info, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, nil, err
	}
	conf := types.Config{
		Importer: &dirImporter{imp: importer.ForCompiler(fset, "source", nil), dir: abs},
	}
	pkg, err := conf.Check(analysis.ModulePath+"/fixture", fset, files, info)
	if err != nil {
		return nil, nil, err
	}
	return pkg, info, nil
}

// dirImporter resolves imports relative to the fixture directory, which
// lives inside the module, so project packages import normally.
type dirImporter struct {
	imp types.Importer
	dir string
}

func (d *dirImporter) Import(path string) (*types.Package, error) {
	if from, ok := d.imp.(types.ImporterFrom); ok {
		return from.ImportFrom(path, d.dir, 0)
	}
	return d.imp.Import(path)
}
