// Package noalloc verifies the 0 allocs/op contract on the simulator's
// steady-state hot paths. A function whose doc comment carries
// //pthammer:noalloc may not contain allocating constructs, and every
// statically-resolved module callee must itself be annotated, so the
// guarantee composes across packages (an exported fact carries each
// package's annotated set to its importers).
//
// Flagged inside an annotated function:
//   - make/new builtins, append, composite literals of map/slice type
//   - map writes and string concatenation
//   - function literals that capture enclosing locals (closure allocation)
//   - interface boxing of concrete non-pointer values at call arguments,
//     returns, assignments and conversions
//   - any fmt.* call
//   - calls to unannotated functions, and dynamic calls (interface
//     methods, func values), which the analyzer cannot see through
//
// Escape hatches: the argument of panic(...) is skipped wholesale (a
// panicking path has left the steady state), math/bits and seeded
// math/rand methods are allowlisted, and any single finding can be
// waived with //pthammer:alloc-ok <why> on (or directly above) its line.
//
// A small set of functions (the required map) must carry the annotation:
// those are the hot paths whose 0 allocs/op contract CI depends on, and
// deleting the annotation — or the function — fails the build rather
// than silently dropping the verification.
package noalloc

import (
	"go/ast"
	"go/token"
	"go/types"

	"pthammer/internal/analysis/framework"
)

// Analyzer is the hot-path allocation check.
var Analyzer = &framework.Analyzer{
	Name: "noalloc",
	Doc:  "forbid allocating constructs in functions annotated //pthammer:noalloc",
	Run:  run,
}

// Fact is the per-package set of //pthammer:noalloc functions, exported
// so importing packages can check cross-package calls.
type Fact struct {
	Funcs []string `json:"funcs"`
}

// required maps a package import-path suffix to declaration names that
// MUST carry //pthammer:noalloc. These are the structural hot-path
// contracts: dropping the annotation (or renaming the function away)
// would silently stop verifying the function's body, so the analyzer
// turns either into a build failure instead.
var required = map[string][]string{
	"internal/bench": {
		// The flush-free hammer iteration: every hammer caller (bench
		// scenarios, escalation drivers, mt scenarios) runs it in its
		// steady state, and the annotation is how its 0 allocs/op is
		// checked.
		"ImplicitHammer.HammerOnce",
	},
}

// stdlibAllowed reports whether a call into the standard library is known
// allocation-free: math/bits is pure bit arithmetic, and the draw methods
// of a seeded generator (rand.Rand.Float64/Uint64/...) do not allocate.
func stdlibAllowed(fn *types.Func, isMethod bool) bool {
	switch fn.Pkg().Path() {
	case "math/bits":
		return true
	case "math/rand", "math/rand/v2":
		return isMethod
	}
	return false
}

func run(pass *framework.Pass) error {
	ann := framework.CollectAnnotations(pass.Fset, pass.Files)

	// First pass: collect this package's annotated set (needed before
	// checking bodies, since annotated functions may call each other).
	local := make(map[string]bool)
	decls := make(map[string]*ast.FuncDecl)
	var annotated []*ast.FuncDecl
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			decls[framework.DeclName(fd)] = fd
			if framework.FuncAnnotated("noalloc", fd) {
				local[framework.DeclName(fd)] = true
				annotated = append(annotated, fd)
			}
		}
	}
	for suffix, names := range required {
		if !framework.PathMatches(pass.PkgPath(), suffix) {
			continue
		}
		for _, n := range names {
			if local[n] {
				continue
			}
			if fd := decls[n]; fd != nil {
				pass.Reportf(fd.Pos(), "%s must carry //pthammer:noalloc: it is a structurally verified hot path", n)
			} else if len(pass.Files) > 0 {
				pass.Reportf(pass.Files[0].Pos(), "required noalloc function %s not found in %s", n, pass.PkgPath())
			}
		}
	}
	if len(annotated) > 0 {
		names := make([]string, 0, len(annotated))
		for _, fd := range annotated {
			names = append(names, framework.DeclName(fd))
		}
		if err := pass.ExportFact(Fact{Funcs: names}); err != nil {
			return err
		}
	}

	c := &checker{pass: pass, ann: ann, local: local, imported: make(map[string]map[string]bool)}
	for _, fd := range annotated {
		c.checkFunc(fd)
	}
	return nil
}

type checker struct {
	pass  *framework.Pass
	ann   *framework.Annotations
	local map[string]bool
	// imported caches per-package annotated sets read from facts.
	imported map[string]map[string]bool
}

// calleeAnnotated reports whether the function named name in package
// path carries //pthammer:noalloc.
func (c *checker) calleeAnnotated(path, name string) bool {
	path = framework.CanonicalPkgPath(path)
	if path == c.pass.PkgPath() {
		return c.local[name]
	}
	set, ok := c.imported[path]
	if !ok {
		set = make(map[string]bool)
		var fact Fact
		if c.pass.ImportFact(path, &fact) {
			for _, n := range fact.Funcs {
				set[n] = true
			}
		}
		c.imported[path] = set
	}
	return set[name]
}

// report emits a finding unless the site carries //pthammer:alloc-ok.
func (c *checker) report(pos token.Pos, format string, args ...any) {
	if c.ann.At("alloc-ok", pos) {
		return
	}
	c.pass.Reportf(pos, format, args...)
}

// checkFunc walks one annotated function body.
func (c *checker) checkFunc(fd *ast.FuncDecl) {
	info := c.pass.TypesInfo
	obj, _ := info.Defs[fd.Name].(*types.Func)
	if obj == nil {
		return
	}
	outerSig, _ := obj.Type().(*types.Signature)

	// Index function literals so return statements and captures resolve
	// against the innermost enclosing signature.
	var lits []*ast.FuncLit
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			lits = append(lits, lit)
		}
		return true
	})
	enclosingSig := func(pos token.Pos) *types.Signature {
		var best *ast.FuncLit
		for _, lit := range lits {
			if lit.Body.Pos() <= pos && pos < lit.Body.End() {
				if best == nil || lit.Pos() > best.Pos() {
					best = lit
				}
			}
		}
		if best == nil {
			return outerSig
		}
		if sig, ok := info.TypeOf(best).(*types.Signature); ok {
			return sig
		}
		return outerSig
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			return c.checkCall(fd, n)
		case *ast.CompositeLit:
			if t := info.TypeOf(n); t != nil {
				switch t.Underlying().(type) {
				case *types.Map, *types.Slice:
					c.report(n.Pos(), "map/slice composite literal allocates in noalloc function %s", framework.DeclName(fd))
				}
			}
		case *ast.FuncLit:
			if capt := capturedLocal(info, fd, n); capt != nil {
				c.report(n.Pos(), "function literal captures %q: closure allocation in noalloc function %s", capt.Name(), framework.DeclName(fd))
			}
		case *ast.AssignStmt:
			c.checkAssign(fd, n)
		case *ast.IncDecStmt:
			if idx, ok := ast.Unparen(n.X).(*ast.IndexExpr); ok && isMapIndex(info, idx) {
				c.report(n.Pos(), "map write in noalloc function %s", framework.DeclName(fd))
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isNonConstString(info, n) {
				c.report(n.Pos(), "string concatenation allocates in noalloc function %s", framework.DeclName(fd))
			}
		case *ast.ReturnStmt:
			sig := enclosingSig(n.Pos())
			c.checkReturn(fd, sig, n)
		case *ast.DeclStmt:
			c.checkDecl(fd, n)
		}
		return true
	})
}

// checkCall handles every call form; returns false to prune the walk
// under panic() arguments.
func (c *checker) checkCall(fd *ast.FuncDecl, call *ast.CallExpr) bool {
	info := c.pass.TypesInfo
	name := framework.DeclName(fd)

	// Builtins.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "panic":
				// A panicking path has already left the steady state;
				// the (allocating) message construction is irrelevant.
				return false
			case "make", "new":
				c.report(call.Pos(), "%s allocates in noalloc function %s", b.Name(), name)
			case "append":
				c.report(call.Pos(), "append may grow its backing array in noalloc function %s", name)
			}
			c.checkArgBoxing(fd, call)
			return true
		}
	}

	// Conversions: T(x). Only interface targets allocate.
	if tv, ok := info.Types[ast.Unparen(call.Fun)]; ok && tv.IsType() {
		if len(call.Args) == 1 && boxes(info, tv.Type, call.Args[0]) {
			c.report(call.Pos(), "conversion boxes a concrete value into an interface in noalloc function %s", name)
		}
		return true
	}

	fn := framework.FuncFor(info, call)
	if fn == nil || fn.Pkg() == nil {
		c.report(call.Pos(), "dynamic call in noalloc function %s: the analyzer cannot verify the callee", name)
		c.checkArgBoxing(fd, call)
		return true
	}
	sig, _ := fn.Type().(*types.Signature)
	isMethod := sig != nil && sig.Recv() != nil
	if isMethod && types.IsInterface(sig.Recv().Type()) {
		c.report(call.Pos(), "interface method call %s.%s in noalloc function %s: the analyzer cannot verify the callee", recvName(sig), fn.Name(), name)
		c.checkArgBoxing(fd, call)
		return true
	}

	switch {
	case fn.Pkg().Path() == "fmt":
		c.report(call.Pos(), "fmt.%s allocates in noalloc function %s", fn.Name(), name)
	case stdlibAllowed(fn, isMethod):
	default:
		calleeName := fn.Name()
		if isMethod {
			if tn, _ := framework.ReceiverTypeName(fn); tn != "" {
				calleeName = tn + "." + fn.Name()
			}
		}
		if !c.calleeAnnotated(fn.Pkg().Path(), calleeName) {
			c.report(call.Pos(), "call to %s.%s from noalloc function %s: callee is not annotated //pthammer:noalloc", fn.Pkg().Name(), calleeName, name)
		}
	}
	c.checkArgBoxing(fd, call)
	return true
}

// checkArgBoxing flags arguments implicitly converted to interface
// parameters.
func (c *checker) checkArgBoxing(fd *ast.FuncDecl, call *ast.CallExpr) {
	info := c.pass.TypesInfo
	sig, _ := info.TypeOf(call.Fun).(*types.Signature)
	if sig == nil {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				pt = params.At(params.Len() - 1).Type()
			} else if s, ok := params.At(params.Len() - 1).Type().(*types.Slice); ok {
				pt = s.Elem()
			}
		case i < params.Len():
			pt = params.At(i).Type()
		}
		if boxes(info, pt, arg) {
			c.report(arg.Pos(), "argument boxes a concrete value into an interface parameter in noalloc function %s", framework.DeclName(fd))
		}
	}
}

// checkAssign flags map writes, string +=, and interface boxing on
// assignment.
func (c *checker) checkAssign(fd *ast.FuncDecl, s *ast.AssignStmt) {
	info := c.pass.TypesInfo
	name := framework.DeclName(fd)
	for _, lhs := range s.Lhs {
		if idx, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok && isMapIndex(info, idx) {
			c.report(s.Pos(), "map write in noalloc function %s", name)
		}
	}
	if s.Tok == token.ADD_ASSIGN && len(s.Lhs) == 1 {
		if t := info.TypeOf(s.Lhs[0]); t != nil {
			if b, ok := t.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
				c.report(s.Pos(), "string concatenation allocates in noalloc function %s", name)
			}
		}
	}
	if len(s.Lhs) == len(s.Rhs) {
		for i := range s.Lhs {
			if boxes(info, info.TypeOf(s.Lhs[i]), s.Rhs[i]) {
				c.report(s.Rhs[i].Pos(), "assignment boxes a concrete value into an interface in noalloc function %s", name)
			}
		}
	}
}

// checkReturn flags interface boxing at return sites.
func (c *checker) checkReturn(fd *ast.FuncDecl, sig *types.Signature, s *ast.ReturnStmt) {
	if sig == nil || len(s.Results) != sig.Results().Len() {
		return
	}
	for i, r := range s.Results {
		if boxes(c.pass.TypesInfo, sig.Results().At(i).Type(), r) {
			c.report(r.Pos(), "return boxes a concrete value into an interface in noalloc function %s", framework.DeclName(fd))
		}
	}
}

// checkDecl flags boxing in `var x I = concrete` declarations.
func (c *checker) checkDecl(fd *ast.FuncDecl, ds *ast.DeclStmt) {
	gd, ok := ds.Decl.(*ast.GenDecl)
	if !ok {
		return
	}
	info := c.pass.TypesInfo
	for _, spec := range gd.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok || vs.Type == nil {
			continue
		}
		t := info.TypeOf(vs.Type)
		for _, v := range vs.Values {
			if boxes(info, t, v) {
				c.report(v.Pos(), "declaration boxes a concrete value into an interface in noalloc function %s", framework.DeclName(fd))
			}
		}
	}
}

// boxes reports whether assigning e to a target of type t performs an
// allocating interface conversion: t is an interface and e is a concrete
// non-pointer, non-nil value. Pointers (and interfaces) fit in the
// interface data word without allocating.
func boxes(info *types.Info, t types.Type, e ast.Expr) bool {
	if t == nil || !types.IsInterface(t) {
		return false
	}
	et := info.TypeOf(e)
	if et == nil || types.IsInterface(et) {
		return false
	}
	switch u := et.Underlying().(type) {
	case *types.Pointer:
		return false
	case *types.Basic:
		if u.Kind() == types.UntypedNil {
			return false
		}
	}
	return true
}

// capturedLocal returns a variable local to fd (declared outside lit)
// that lit's body references, or nil if the literal captures nothing.
func capturedLocal(info *types.Info, fd *ast.FuncDecl, lit *ast.FuncLit) *types.Var {
	var captured *types.Var
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if captured != nil {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		if v.Pos() >= fd.Pos() && v.Pos() < fd.End() && !(v.Pos() >= lit.Pos() && v.Pos() < lit.End()) {
			captured = v
			return false
		}
		return true
	})
	return captured
}

// isMapIndex reports whether idx indexes a map.
func isMapIndex(info *types.Info, idx *ast.IndexExpr) bool {
	t := info.TypeOf(idx.X)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// isNonConstString reports whether the expression is a string-typed,
// non-constant binary expression (constant folding happens at compile
// time and allocates nothing).
func isNonConstString(info *types.Info, e *ast.BinaryExpr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Value != nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// recvName renders an interface receiver's type name for diagnostics.
func recvName(sig *types.Signature) string {
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return t.String()
}
