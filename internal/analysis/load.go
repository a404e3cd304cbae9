package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked analysis unit. In-package test
// files are part of their package's unit, mirroring go vet; external
// (package foo_test) files form a separate unit with an ImportPath
// suffixed "_test".
type Package struct {
	ImportPath string
	Dir        string
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info
}

// listedPackage is the subset of `go list -json` output the loader needs.
type listedPackage struct {
	ImportPath   string
	Dir          string
	Name         string
	GoFiles      []string
	CgoFiles     []string
	TestGoFiles  []string
	XTestGoFiles []string
	Error        *struct{ Err string }
}

// Load enumerates the packages matching patterns (as the go tool would,
// from dir) and type-checks each from source. Dependencies — including
// the standard library — are resolved by the go/importer source
// importer, so no compiled export data is required.
func Load(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	listed, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "source", nil)
	var pkgs []*Package
	for _, lp := range listed {
		if lp.Error != nil {
			return nil, fmt.Errorf("analysis: %s: %s", lp.ImportPath, lp.Error.Err)
		}
		if len(lp.CgoFiles) > 0 {
			// cgo packages cannot be type-checked from pure source; the
			// repository has none, so refuse loudly rather than skip.
			return nil, fmt.Errorf("analysis: %s uses cgo, unsupported", lp.ImportPath)
		}
		units := []struct {
			path  string
			name  string
			files []string
		}{
			{lp.ImportPath, lp.Name, append(append([]string{}, lp.GoFiles...), lp.TestGoFiles...)},
			{lp.ImportPath + "_test", lp.Name + "_test", lp.XTestGoFiles},
		}
		for _, u := range units {
			if len(u.files) == 0 {
				continue
			}
			pkg, err := CheckUnit(fset, imp, u.path, lp.Dir, u.files)
			if err != nil {
				return nil, err
			}
			pkgs = append(pkgs, pkg)
		}
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].ImportPath < pkgs[j].ImportPath })
	return pkgs, nil
}

// CheckUnit parses and type-checks the named files of directory dir as
// the package path, resolving imports through imp from dir.
func CheckUnit(fset *token.FileSet, imp types.Importer, path, dir string, files []string) (*Package, error) {
	var parsed []*ast.File
	for _, name := range files {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("analysis: parse %s: %w", name, err)
		}
		parsed = append(parsed, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{
		Importer: &dirImporter{imp: imp, dir: dir},
		Error:    func(error) {}, // collect all, fail on the first below
	}
	tpkg, err := conf.Check(path, fset, parsed, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-check %s: %w", path, err)
	}
	return &Package{
		ImportPath: path,
		Dir:        dir,
		Fset:       fset,
		Files:      parsed,
		Types:      tpkg,
		Info:       info,
	}, nil
}

// dirImporter routes imports through an ImporterFrom with the unit's
// directory as the resolution origin, so module-relative paths resolve
// regardless of the process working directory.
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

// goList shells out to the go tool for package enumeration — the one
// piece of build-system knowledge (patterns, build tags, module layout)
// not worth reimplementing.
func goList(dir string, patterns []string) ([]listedPackage, error) {
	args := append([]string{"list", "-e", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var out, stderr bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("analysis: go list %s: %v\n%s",
			strings.Join(patterns, " "), err, stderr.String())
	}
	dec := json.NewDecoder(&out)
	var pkgs []listedPackage
	for dec.More() {
		var lp listedPackage
		if err := dec.Decode(&lp); err != nil {
			return nil, fmt.Errorf("analysis: decoding go list output: %w", err)
		}
		pkgs = append(pkgs, lp)
	}
	return pkgs, nil
}
