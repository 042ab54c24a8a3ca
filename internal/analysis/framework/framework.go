// Package framework is a minimal, dependency-free stand-in for the parts
// of golang.org/x/tools/go/analysis that pthammer-lint needs. The build
// environment vendors nothing, so the Analyzer/Pass/Diagnostic shapes are
// re-derived here on top of go/ast and go/types alone. The driver (the
// go vet unitchecker shim in internal/analysis/unitcheck) and the
// analyzertest fixture harness construct a Pass per package and hand it
// to each Analyzer's Run.
package framework

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer describes one static check. Name appears in diagnostics and
// keys the analyzer's facts in the per-package facts file.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// Diagnostic is one finding at a position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Pass carries one package's syntax and type information to an analyzer,
// plus the fact channel between dependency passes.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report delivers a diagnostic to the driver.
	Report func(Diagnostic)

	// readFact returns the raw fact this analyzer exported for the
	// given dependency package, if any. Wired by the driver.
	readFact func(pkgPath string) (json.RawMessage, bool)
	// writeFact stores this package's exported fact. Wired by the driver.
	writeFact func(raw json.RawMessage)
}

// NewPass assembles a Pass. readFact/writeFact may be nil when the
// analyzer set in use needs no cross-package facts.
func NewPass(a *Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info,
	report func(Diagnostic),
	readFact func(string) (json.RawMessage, bool),
	writeFact func(json.RawMessage)) *Pass {
	return &Pass{
		Analyzer:  a,
		Fset:      fset,
		Files:     files,
		Pkg:       pkg,
		TypesInfo: info,
		Report:    report,
		readFact:  readFact,
		writeFact: writeFact,
	}
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// ImportFact unmarshals the fact this analyzer exported for pkgPath into
// out, reporting whether such a fact exists.
func (p *Pass) ImportFact(pkgPath string, out any) bool {
	if p.readFact == nil {
		return false
	}
	raw, ok := p.readFact(pkgPath)
	if !ok {
		return false
	}
	return json.Unmarshal(raw, out) == nil
}

// ExportFact records v as this package's fact for the current analyzer.
func (p *Pass) ExportFact(v any) error {
	if p.writeFact == nil {
		return nil
	}
	raw, err := json.Marshal(v)
	if err != nil {
		return err
	}
	p.writeFact(raw)
	return nil
}

// PkgPath returns the package's canonical import path ("" for a nil
// package, which only happens on typecheck failure paths drivers already
// handle).
func (p *Pass) PkgPath() string {
	if p.Pkg == nil {
		return ""
	}
	return CanonicalPkgPath(p.Pkg.Path())
}

// CanonicalPkgPath strips the " [pkg.test]" suffix go vet appends to
// test-variant import paths, so suffix matching and fact lookup treat a
// test variant exactly like its package.
func CanonicalPkgPath(path string) string {
	if i := strings.Index(path, " ["); i >= 0 {
		return path[:i]
	}
	return path
}

// SortDiagnostics orders diagnostics by file position for stable output.
func SortDiagnostics(fset *token.FileSet, ds []Diagnostic) {
	sort.SliceStable(ds, func(i, j int) bool {
		pi, pj := fset.Position(ds[i].Pos), fset.Position(ds[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return pi.Column < pj.Column
	})
}

// FuncFor returns the *types.Func a call expression statically resolves
// to, or nil for dynamic calls (func values, interface methods) and
// builtins.
func FuncFor(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if fn, ok := sel.Obj().(*types.Func); ok {
				return fn
			}
			return nil
		}
		// Package-qualified call: pkg.Fn.
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// DeclName renders a function declaration as its annotation/allowlist
// key: "Func" for plain functions, "Recv.Method" (receiver base type
// name) for methods.
func DeclName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name + "." + fd.Name.Name
	}
	return fd.Name.Name
}

// ReceiverTypeName returns the name of the named type (or pointer-to-named)
// that is fn's receiver base, and the receiver's package path. Empty
// strings for non-methods.
func ReceiverTypeName(fn *types.Func) (typeName, pkgPath string) {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return "", ""
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return "", ""
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return obj.Name(), ""
	}
	return obj.Name(), obj.Pkg().Path()
}
