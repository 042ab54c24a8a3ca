// Package privilegedops makes the paper's "implicit accesses only" claim
// a compile-time property: machine.Flush (clflush) and
// machine.InvalidatePage (invlpg) are privileged operations an
// unprivileged attacker does not have, so only the explicitly
// allowlisted privileged-baseline bodies — and tests — may call them.
// The runtime PrivilegedOps counters still assert the same invariant on
// the attack path; this analyzer catches a stray call one compile, not
// one CI smoke diff, after it is introduced.
//
// A call site outside the allowlist can carry
// //pthammer:privileged-ok <why> when a new privileged baseline is being
// built; the annotation is a reviewed, greppable exemption.
package privilegedops

import (
	"go/ast"

	"pthammer/internal/analysis/framework"
)

// Analyzer is the privileged-operations check.
var Analyzer = &framework.Analyzer{
	Name: "privilegedops",
	Doc:  "restrict machine.Flush/machine.InvalidatePage to allowlisted privileged baselines",
	Run:  run,
}

// privilegedMethods are the machine.Machine methods that model
// instructions an unprivileged attacker cannot execute.
var privilegedMethods = map[string]bool{
	"Flush":          true,
	"InvalidatePage": true,
}

// allowlist maps a package import-path suffix to the top-level function
// names (Func or Recv.Method) allowed to perform privileged operations.
// These are exactly the explicit-baseline bodies the paper compares
// against.
var allowlist = map[string]map[string]bool{
	"internal/bench": {
		// The privileged flush+invlpg hammer baseline.
		"ImplicitPair.HammerOncePrivileged": true,
		// Scenario table: the explicit clflush baseline closure.
		"Scenarios": true,
	},
	"internal/sweep": {
		// FlushBetween sweeps are the privileged-baseline arm of the
		// Figure 5/6 comparisons.
		"Spec.runShard": true,
	},
}

func run(pass *framework.Pass) error {
	path := pass.PkgPath()
	if framework.PathMatches(path, "internal/machine") {
		// The machine package implements the operations; its own bodies
		// (and counters) are the mechanism, not a caller.
		return nil
	}
	var allowed map[string]bool
	for suffix, fns := range allowlist {
		if framework.PathMatches(path, suffix) {
			allowed = fns
			break
		}
	}
	ann := framework.CollectAnnotations(pass.Fset, pass.Files)
	for _, f := range pass.Files {
		if framework.IsTestFile(pass.Fset, f) {
			// Tests exercise the privileged baselines and the counters
			// themselves.
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if allowed[framework.DeclName(fd)] {
				continue
			}
			checkBody(pass, ann, fd)
		}
	}
	return nil
}

// checkBody flags privileged calls anywhere under the declaration,
// including inside closures (which attribute to the enclosing top-level
// function for allowlist purposes).
func checkBody(pass *framework.Pass, ann *framework.Annotations, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := framework.FuncFor(pass.TypesInfo, call)
		if fn == nil || !privilegedMethods[fn.Name()] {
			return true
		}
		typeName, pkgPath := framework.ReceiverTypeName(fn)
		if typeName != "Machine" || !framework.PathMatches(pkgPath, "internal/machine") {
			return true
		}
		if ann.At("privileged-ok", call.Pos()) {
			return true
		}
		pass.Reportf(call.Pos(), "privileged machine.%s call outside the allowlisted baselines: the attack path must stay flush-free (annotate //pthammer:privileged-ok <why> if this is a new privileged baseline)", fn.Name())
		return true
	})
}
