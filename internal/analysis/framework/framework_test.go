package framework

import (
	"encoding/json"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"testing"
)

// parseAndCheck type-checks one synthetic file and returns everything a
// Pass needs.
func parseAndCheck(t *testing.T, filename, src string) (*token.FileSet, *ast.File, *types.Package, *types.Info) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, filename, src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	pkg, err := conf.Check("example.test/p", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatal(err)
	}
	return fset, f, pkg, info
}

const frameworkSrc = `// Package p exercises framework helpers.
package p

import "sort"

type Dev struct{}

// Flush is a method: DeclName must render the receiver base type.
//
//pthammer:noalloc
func (d *Dev) Flush() {}

func Plain(xs []int) {
	sort.Ints(xs) // resolvable package-qualified call
	d := &Dev{}
	d.Flush() //pthammer:privileged-ok test fixture
	f := func() {}
	f() // dynamic call: FuncFor must return nil
}
`

func TestFuncForAndDeclName(t *testing.T) {
	fset, f, _, info := parseAndCheck(t, "p.go", frameworkSrc)

	var names []string
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok {
			names = append(names, DeclName(fd))
		}
	}
	if len(names) != 2 || names[0] != "Dev.Flush" || names[1] != "Plain" {
		t.Fatalf("DeclName over decls = %v, want [Dev.Flush Plain]", names)
	}

	var got []string
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if fn := FuncFor(info, call); fn != nil {
			got = append(got, fn.Name())
			if fn.Name() == "Flush" {
				name, pkgPath := ReceiverTypeName(fn)
				if name != "Dev" || pkgPath != "example.test/p" {
					t.Errorf("ReceiverTypeName(Flush) = %q, %q", name, pkgPath)
				}
			}
		} else {
			got = append(got, "<dynamic>")
		}
		return true
	})
	want := []string{"Ints", "Flush", "<dynamic>"}
	if len(got) != len(want) {
		t.Fatalf("resolved calls = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("resolved calls = %v, want %v", got, want)
		}
	}
	_ = fset
}

func TestAnnotations(t *testing.T) {
	fset, f, _, _ := parseAndCheck(t, "p.go", frameworkSrc)
	ann := CollectAnnotations(fset, []*ast.File{f})

	var flushDecl *ast.FuncDecl
	var flushCall ast.Node
	ast.Inspect(f, func(n ast.Node) bool {
		if fd, ok := n.(*ast.FuncDecl); ok && fd.Name.Name == "Flush" {
			flushDecl = fd
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Flush" {
				flushCall = call
			}
		}
		return true
	})
	if flushDecl == nil || flushCall == nil {
		t.Fatal("fixture decls not found")
	}
	if !FuncAnnotated("noalloc", flushDecl) {
		t.Error("doc-comment //pthammer:noalloc not detected")
	}
	if FuncAnnotated("alloc-ok", flushDecl) {
		t.Error("wrong annotation name matched")
	}
	if !ann.At("privileged-ok", flushCall.Pos()) {
		t.Error("trailing //pthammer:privileged-ok not detected at call site")
	}
	if ann.At("alloc-ok", flushCall.Pos()) {
		t.Error("absent annotation reported present")
	}
}

func TestIsTestFile(t *testing.T) {
	fset := token.NewFileSet()
	for _, tc := range []struct {
		name string
		want bool
	}{
		{"p.go", false},
		{"p_test.go", true},
		{"dir/p_test.go", true},
		{"test.go", false},
		{"p_test.go.orig", false},
	} {
		f, err := parser.ParseFile(fset, tc.name, "package p\n", 0)
		if err != nil {
			t.Fatal(err)
		}
		if got := IsTestFile(fset, f); got != tc.want {
			t.Errorf("IsTestFile(%q) = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestPassFactsAndReport(t *testing.T) {
	fset, f, pkg, info := parseAndCheck(t, "p.go", frameworkSrc)

	a := &Analyzer{Name: "t", Doc: "test"}
	var reported []Diagnostic
	store := map[string]json.RawMessage{"dep/pkg": json.RawMessage(`{"Funcs":["X"]}`)}
	var written json.RawMessage
	pass := NewPass(a, fset, []*ast.File{f}, pkg, info,
		func(d Diagnostic) { reported = append(reported, d) },
		func(path string) (json.RawMessage, bool) { raw, ok := store[path]; return raw, ok },
		func(raw json.RawMessage) { written = raw })

	if got, want := pass.PkgPath(), "example.test/p"; got != want {
		t.Fatalf("PkgPath() = %q, want %q", got, want)
	}

	var fact struct{ Funcs []string }
	if !pass.ImportFact("dep/pkg", &fact) || len(fact.Funcs) != 1 || fact.Funcs[0] != "X" {
		t.Fatalf("ImportFact = %+v", fact)
	}
	if pass.ImportFact("missing/pkg", &fact) {
		t.Fatal("ImportFact reported a fact for an unknown package")
	}
	if err := pass.ExportFact(map[string]int{"n": 1}); err != nil {
		t.Fatal(err)
	}
	if string(written) != `{"n":1}` {
		t.Fatalf("ExportFact wrote %q", written)
	}

	pass.Reportf(f.Pos(), "finding %d", 7)
	if len(reported) != 1 || reported[0].Message != "finding 7" {
		t.Fatalf("Reportf delivered %+v", reported)
	}

	// Nil fact channels (drivers that need no facts) must be inert.
	bare := NewPass(a, fset, []*ast.File{f}, pkg, info, func(Diagnostic) {}, nil, nil)
	if bare.ImportFact("dep/pkg", &fact) {
		t.Fatal("nil readFact produced a fact")
	}
	if err := bare.ExportFact(1); err != nil {
		t.Fatal(err)
	}
}

func TestCanonicalPkgPath(t *testing.T) {
	cases := map[string]string{
		"pthammer/internal/sweep":                                "pthammer/internal/sweep",
		"pthammer/internal/sweep [pthammer/internal/sweep.test]": "pthammer/internal/sweep",
		"": "",
	}
	for in, want := range cases {
		if got := CanonicalPkgPath(in); got != want {
			t.Errorf("CanonicalPkgPath(%q) = %q, want %q", in, got, want)
		}
	}
	if p := (&Pass{}); p.PkgPath() != "" {
		t.Error("PkgPath on nil package should be empty")
	}
}

func TestPathMatches(t *testing.T) {
	if !PathMatches("internal/machine", "internal/machine") {
		t.Error("exact path did not match")
	}
	if !PathMatches("pthammer/internal/machine", "internal/machine") {
		t.Error("suffix path did not match")
	}
	if PathMatches("pthammer/notinternal/machine", "internal/machine") {
		t.Error("partial segment matched")
	}
}

func TestSortDiagnostics(t *testing.T) {
	fset := token.NewFileSet()
	fa := fset.AddFile("a.go", -1, 100)
	fb := fset.AddFile("b.go", -1, 100)
	fa.SetLinesForContent([]byte("x\ny\nz\n"))
	fb.SetLinesForContent([]byte("x\ny\nz\n"))
	ds := []Diagnostic{
		{Pos: fb.Pos(0), Message: "b1"},
		{Pos: fa.Pos(4), Message: "a3"},
		{Pos: fa.Pos(2), Message: "a2"},
		{Pos: fa.Pos(3), Message: "a2col2"},
	}
	SortDiagnostics(fset, ds)
	var got []string
	for _, d := range ds {
		got = append(got, d.Message)
	}
	want := []string{"a2", "a2col2", "a3", "b1"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sorted order %v, want %v", got, want)
		}
	}
}
