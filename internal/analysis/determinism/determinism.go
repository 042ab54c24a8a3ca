// Package determinism flags nondeterminism sources in the packages whose
// output must be byte-identical per seed: the sweep/flip/evset/fault
// pipeline, the scenario bodies and machine facade behind the tables,
// and every cmd/ entry point. PThammer's tables are diffed in CI against
// golden runs, so a wall-clock read, an unseeded global rand call, or an
// unordered map iteration is a correctness bug, not a style issue.
//
// Flagged in deterministic packages (non-test files):
//   - time.Now / time.Since / time.Until
//   - package-level math/rand and math/rand/v2 functions (seeded
//     *rand.Rand methods are fine; constructors New/NewSource/... are
//     fine, since they exist to build seeded generators)
//   - range over a map, unless the loop only gathers keys/values into a
//     slice that a later sort.*/slices.* call in the same function
//     orders, or the site carries //pthammer:nondeterministic-ok
package determinism

import (
	"go/ast"
	"go/types"
	"strings"

	"pthammer/internal/analysis/framework"
)

// Analyzer is the determinism check.
var Analyzer = &framework.Analyzer{
	Name: "determinism",
	Doc:  "forbid wall-clock, global rand and unsorted map iteration in deterministic packages",
	Run:  run,
}

// deterministicSuffixes are the import-path suffixes of the packages with
// per-seed byte-identical output contracts.
var deterministicSuffixes = []string{
	"internal/sweep",
	"internal/flip",
	"internal/evset",
	"internal/fault",
	// The multi-core interleaver: its grant order is the multi-tenant
	// machine's whole determinism story, so a wall-clock read or an
	// unordered iteration here breaks byte-identical mt-* output.
	"internal/core",
	// The retired payload engine's program format: Encode must stay a
	// pure function of the program (the fuzzed round trip), until the
	// package is deleted.
	"internal/payload",
	// The cohort scheduler's population tables are byte-diffed across
	// GOMAXPROCS and pool sizes in CI; per-tenant randomness must come
	// from the mixed tenant seed alone.
	"internal/cohort",
	// The scenario bodies and the machine facade produce every
	// pthammer-flip and pthammer-mt byte: pair finders, planner
	// ranking, escalation driver and multi-tenant wiring.
	"internal/bench",
	"internal/machine",
}

// randConstructors are the math/rand package-level functions that build
// seeded generators rather than drawing from the global one.
var randConstructors = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true,
	"NewPCG":     true,
	"NewChaCha8": true,
}

// isDeterministicPkg reports whether the import path is under the
// determinism contract: any cmd/ binary or one of the listed suffixes.
// The cmd match accepts both module-rooted "cmd/pthammer-sweep" and
// testdata-style "lint.test/cmd/tool" paths.
func isDeterministicPkg(path string) bool {
	for _, s := range deterministicSuffixes {
		if framework.PathMatches(path, s) {
			return true
		}
	}
	return strings.HasPrefix(path, "cmd/") || strings.Contains(path, "/cmd/")
}

func run(pass *framework.Pass) error {
	if !isDeterministicPkg(pass.PkgPath()) {
		return nil
	}
	ann := framework.CollectAnnotations(pass.Fset, pass.Files)
	for _, f := range pass.Files {
		if framework.IsTestFile(pass.Fset, f) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkCalls(pass, fd.Body)
			checkMapRanges(pass, ann, fd.Body, fd.Body)
		}
	}
	return nil
}

// checkCalls flags wall-clock and global-rand calls anywhere in body.
func checkCalls(pass *framework.Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := framework.FuncFor(pass.TypesInfo, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		sig, _ := fn.Type().(*types.Signature)
		if sig != nil && sig.Recv() != nil {
			// Methods (e.g. on a seeded *rand.Rand) are fine.
			return true
		}
		switch fn.Pkg().Path() {
		case "time":
			switch fn.Name() {
			case "Now", "Since", "Until":
				pass.Reportf(call.Pos(), "call to time.%s in deterministic package: derive timestamps from the simulated clock or the seed", fn.Name())
			}
		case "math/rand", "math/rand/v2":
			if !randConstructors[fn.Name()] {
				pass.Reportf(call.Pos(), "call to global %s.%s in deterministic package: use a seeded *rand.Rand", fn.Pkg().Name(), fn.Name())
			}
		}
		return true
	})
}

// checkMapRanges flags map iteration in body (an innermost function
// body), recursing into function literals with their own body scope.
func checkMapRanges(pass *framework.Pass, ann *framework.Annotations, fnBody, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			// The literal is its own "same function" scope for the
			// gather-then-sort idiom.
			checkMapRanges(pass, ann, n.Body, n.Body)
			return false
		case *ast.RangeStmt:
			t := pass.TypesInfo.TypeOf(n.X)
			if t == nil {
				return true
			}
			if _, isMap := t.Underlying().(*types.Map); !isMap {
				return true
			}
			if ann.At("nondeterministic-ok", n.Pos()) {
				return true
			}
			if target, ok := gatherTarget(pass.TypesInfo, n); ok && sortedLater(pass.TypesInfo, fnBody, n, target) {
				return true
			}
			pass.Reportf(n.Pos(), "range over map in deterministic package: sort the keys first or annotate //pthammer:nondeterministic-ok")
		}
		return true
	})
}

// gatherTarget checks the gather idiom: the range body consists solely of
// `x = append(x, ...)` statements (possibly nested in if/blocks) against
// a single slice variable, and returns that variable's object.
func gatherTarget(info *types.Info, rng *ast.RangeStmt) (types.Object, bool) {
	var target types.Object
	var walk func(stmts []ast.Stmt) bool
	walk = func(stmts []ast.Stmt) bool {
		for _, s := range stmts {
			switch s := s.(type) {
			case *ast.AssignStmt:
				obj, ok := appendTo(info, s)
				if !ok {
					return false
				}
				if target == nil {
					target = obj
				} else if target != obj {
					return false
				}
			case *ast.IfStmt:
				if s.Init != nil || !walk(s.Body.List) {
					return false
				}
				if s.Else != nil {
					eb, ok := s.Else.(*ast.BlockStmt)
					if !ok || !walk(eb.List) {
						return false
					}
				}
			case *ast.BlockStmt:
				if !walk(s.List) {
					return false
				}
			case *ast.BranchStmt:
				// continue/break inside a filtered gather loop.
			default:
				return false
			}
		}
		return true
	}
	if !walk(rng.Body.List) || target == nil {
		return nil, false
	}
	return target, true
}

// appendTo matches `x = append(x, ...)` and returns x's object.
func appendTo(info *types.Info, s *ast.AssignStmt) (types.Object, bool) {
	if len(s.Lhs) != 1 || len(s.Rhs) != 1 {
		return nil, false
	}
	lhs, ok := s.Lhs[0].(*ast.Ident)
	if !ok {
		return nil, false
	}
	call, ok := s.Rhs[0].(*ast.CallExpr)
	if !ok {
		return nil, false
	}
	fn, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || fn.Name != "append" {
		return nil, false
	}
	if b, ok := info.Uses[fn].(*types.Builtin); !ok || b.Name() != "append" {
		return nil, false
	}
	if len(call.Args) == 0 {
		return nil, false
	}
	first, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
	if !ok || first.Name != lhs.Name {
		return nil, false
	}
	obj := info.ObjectOf(lhs)
	if obj == nil {
		return nil, false
	}
	return obj, true
}

// sortedLater reports whether, after the range statement, the same
// function body calls a sort/slices function with the gathered slice
// among its arguments.
func sortedLater(info *types.Info, fnBody *ast.BlockStmt, rng *ast.RangeStmt, target types.Object) bool {
	found := false
	ast.Inspect(fnBody, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() {
			return true
		}
		fn := framework.FuncFor(info, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		switch fn.Pkg().Path() {
		case "sort", "slices":
		default:
			return true
		}
		for _, arg := range call.Args {
			if id, ok := ast.Unparen(arg).(*ast.Ident); ok && info.ObjectOf(id) == target {
				found = true
				return false
			}
		}
		return true
	})
	return found
}
