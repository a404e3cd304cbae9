// Package analysis is a small, dependency-free analogue of
// golang.org/x/tools/go/analysis, carrying the project-specific analyzer
// suite behind cmd/predata-vet.
//
// PreDatA's correctness depends on invariants the Go compiler cannot
// express: collectives must be invoked by every rank in the same order,
// staging/fabric locks must not be held across blocking operations, and
// the typed fault errors must be matched with errors.Is. Each invariant
// is encoded as an Analyzer — a named pass over one type-checked package
// that reports Diagnostics — and the driver (cmd/predata-vet) runs the
// whole suite over any package pattern, honoring //predata:vet-ignore
// suppression directives.
//
// The API mirrors go/analysis closely (Analyzer, Pass, Diagnostic) so
// the suite could be rebased onto the upstream multichecker without
// touching analyzer logic; only the loader and driver are bespoke, built
// on go list, go/parser and go/types with the source importer.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer describes one static-analysis pass.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //predata:vet-ignore directives. It must be a valid identifier.
	Name string
	// Doc is the one-paragraph description shown by predata-vet -help.
	Doc string
	// Run applies the pass to one package, reporting findings through
	// pass.Report. It returns an error only for internal failures;
	// findings are never errors.
	Run func(pass *Pass) error
}

// Pass hands one type-checked package to an Analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Report delivers one finding. The driver attaches suppression and
	// formatting on top.
	Report func(Diagnostic)
}

// Reportf reports a diagnostic at pos with a formatted message.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding inside a package.
type Diagnostic struct {
	Pos     token.Pos
	End     token.Pos // optional; token.NoPos means unknown
	Message string
}

// ---- shared type-resolution helpers used by the analyzers ----

// ModulePath is the import-path prefix of this repository's packages;
// analyzers use it to recognize project-owned types and sentinels.
const ModulePath = "predata"

// CalleeFunc resolves the called function or method of call, or nil when
// the callee is not a statically known func (e.g. a called variable).
// Generic instantiations resolve to their origin function.
func CalleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	case *ast.IndexExpr: // explicit generic instantiation f[T](...)
		if base, ok := ast.Unparen(fun.X).(*ast.Ident); ok {
			id = base
		} else if sel, ok := ast.Unparen(fun.X).(*ast.SelectorExpr); ok {
			id = sel.Sel
		}
	case *ast.IndexListExpr:
		if base, ok := ast.Unparen(fun.X).(*ast.Ident); ok {
			id = base
		} else if sel, ok := ast.Unparen(fun.X).(*ast.SelectorExpr); ok {
			id = sel.Sel
		}
	}
	if id == nil {
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// FuncIs reports whether fn is the package-level function pkgPath.name.
func FuncIs(fn *types.Func, pkgPath, name string) bool {
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() != nil {
		return false
	}
	return fn.Pkg().Path() == pkgPath && fn.Name() == name
}

// MethodIs reports whether fn is method name on type pkgPath.typeName
// (value or pointer receiver).
func MethodIs(fn *types.Func, pkgPath, typeName, name string) bool {
	if fn == nil || fn.Name() != name {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return NamedTypeIs(sig.Recv().Type(), pkgPath, typeName)
}

// NamedTypeIs reports whether t (after stripping pointers and aliases)
// is the named type pkgPath.typeName.
func NamedTypeIs(t types.Type, pkgPath, typeName string) bool {
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil &&
		obj.Pkg().Path() == pkgPath && obj.Name() == typeName
}

// InModule reports whether pkg belongs to this repository's module.
func InModule(pkg *types.Package) bool {
	if pkg == nil {
		return false
	}
	p := pkg.Path()
	return p == ModulePath || strings.HasPrefix(p, ModulePath+"/")
}

// IsTestFile reports whether the file position names a _test.go file.
func IsTestFile(fset *token.FileSet, pos token.Pos) bool {
	f := fset.File(pos)
	return f != nil && strings.HasSuffix(f.Name(), "_test.go")
}
