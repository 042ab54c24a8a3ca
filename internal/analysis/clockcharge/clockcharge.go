// Package clockcharge makes the latency-accounting invariant structural:
// every mem.Device/mem.Translator implementation — a Lookup or Translate
// method that returns a mem.Result — must advance the shared
// timing.Clock on every path that returns a Result. The
// simulator's entire measurement story (Figure 5/6 latency histograms,
// Probe verdicts) is cycle differences on that one clock, so a device
// that reports a latency without charging it silently skews every
// downstream distribution.
//
// A return is considered charged when a lexically earlier call in the
// same method either advances a timing.Clock or delegates to another
// device/translator (which this analyzer holds to the same contract).
// Genuinely free paths can carry //pthammer:nocharge-ok <why> on the
// return line.
package clockcharge

import (
	"go/ast"
	"go/token"
	"go/types"

	"pthammer/internal/analysis/framework"
)

// Analyzer is the clock-accounting check.
var Analyzer = &framework.Analyzer{
	Name: "clockcharge",
	Doc:  "require mem.Device/mem.Translator implementations to advance the clock before returning a Result",
	Run:  run,
}

func run(pass *framework.Pass) error {
	ann := framework.CollectAnnotations(pass.Fset, pass.Files)
	for _, f := range pass.Files {
		if framework.IsTestFile(pass.Fset, f) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || fd.Recv == nil {
				continue
			}
			if fd.Name.Name != "Lookup" && fd.Name.Name != "Translate" {
				continue
			}
			obj, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if obj == nil {
				continue
			}
			sig, _ := obj.Type().(*types.Signature)
			if sig == nil || !isDeviceSig(sig) {
				continue
			}
			checkMethod(pass, ann, fd)
		}
	}
	return nil
}

// isMemResult reports whether t is the Result type of a package whose
// import path ends in internal/mem.
func isMemResult(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Result" && obj.Pkg() != nil &&
		framework.PathMatches(obj.Pkg().Path(), "internal/mem")
}

// isDeviceSig matches the mem.Device/mem.Translator result shape: a
// mem.Result among the results. Callers check the method name.
func isDeviceSig(sig *types.Signature) bool {
	for i := 0; i < sig.Results().Len(); i++ {
		if isMemResult(sig.Results().At(i).Type()) {
			return true
		}
	}
	return false
}

// checkMethod verifies every return in the method body is preceded by a
// charge.
func checkMethod(pass *framework.Pass, ann *framework.Annotations, fd *ast.FuncDecl) {
	info := pass.TypesInfo

	// Collect the positions of charging calls: Clock.Advance, or
	// delegation to another device/translator.
	var charges []token.Pos
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if isChargeCall(info, call) {
			charges = append(charges, call.Pos())
		}
		return true
	})

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			// Returns inside literals are not the method's returns.
			return false
		case *ast.ReturnStmt:
			if ann.At("nocharge-ok", n.Pos()) {
				return true
			}
			for _, p := range charges {
				if p < n.Pos() {
					return true
				}
			}
			pass.Reportf(n.Pos(), "%s returns a mem.Result without advancing the clock: charge the latency with Clock.Advance (or delegate) first, or annotate //pthammer:nocharge-ok <why>", framework.DeclName(fd))
		}
		return true
	})
}

// isChargeCall reports whether the call advances a timing.Clock or
// delegates to another Lookup/Translate returning a mem.Result.
func isChargeCall(info *types.Info, call *ast.CallExpr) bool {
	fn := framework.FuncFor(info, call)
	if fn == nil {
		return false
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return false
	}
	switch fn.Name() {
	case "Advance":
		tn, pkgPath := framework.ReceiverTypeName(fn)
		return tn == "Clock" && framework.PathMatches(pkgPath, "internal/timing")
	case "Lookup", "Translate":
		return isDeviceSig(sig)
	}
	return false
}
