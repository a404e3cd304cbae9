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
	"go/importer"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"predata/internal/analysis"
)

var wantRE = regexp.MustCompile("^//\\s*want\\s+((?:`[^`]*`\\s*)+)$")
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
// The fixture gets a module-internal import path, so analyzers that
// distinguish project-owned symbols (typederr's sentinels) treat its
// declarations as in-module.
func Run(t *testing.T, a *analysis.Analyzer, dir string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("analysistest: %v", err)
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			names = append(names, e.Name())
		}
	}
	abs, err := filepath.Abs(dir)
	if err != nil || len(names) == 0 {
		t.Fatalf("analysistest: no .go files in %s (%v)", dir, err)
	}
	fset := token.NewFileSet()
	pkg, err := analysis.CheckUnit(fset, importer.ForCompiler(fset, "source", nil),
		analysis.ModulePath+"/fixture", abs, names)
	if err != nil {
		t.Fatalf("analysistest: %v", err)
	}
	var expects []*expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				for _, part := range wantPartRE.FindAllStringSubmatch(m[1], -1) {
					re, err := regexp.Compile(part[1])
					if err != nil {
						t.Fatalf("analysistest: %s:%d: bad want pattern: %v", pos.Filename, pos.Line, err)
					}
					expects = append(expects, &expectation{file: pos.Filename, line: pos.Line, pattern: re})
				}
			}
		}
	}

	pass := &analysis.Pass{
		Analyzer:  a,
		Fset:      fset,
		Files:     pkg.Files,
		Pkg:       pkg.Types,
		TypesInfo: pkg.Info,
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
