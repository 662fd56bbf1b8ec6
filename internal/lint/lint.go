// Package lint is corona-vet: a suite of static-analysis invariants that
// keep the repository's core guarantees — byte-identical deterministic
// sweeps, zero-allocation pooled message flow, disciplined fault-point
// naming, structured logging, and a deprecation fence — enforced by the
// compiler toolchain instead of convention and CI greps. The suite compiles into cmd/corona-vet and runs as
// `go vet -vettool=corona-vet ./...`; docs/LINTING.md is the catalog.
//
// Intentional violations are annotated in place:
//
//	//lint:allow <analyzer> <reason>
//
// on the offending line or the line above it. The reason is mandatory and
// the analyzer name must exist; malformed directives are themselves
// diagnostics.
package lint

import (
	"go/ast"
	"go/types"
	"strings"

	"corona/internal/lint/analysis"
)

// Analyzers returns the full corona-vet suite in catalog order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		Determinism,
		PoolFlow,
		FaultPoint,
		LogDiscipline,
		DeprecatedCaller,
	}
}

// Names returns the set of analyzer names, the legal targets of a
// lint:allow directive.
func Names() map[string]bool {
	names := make(map[string]bool)
	for _, a := range Analyzers() {
		names[a.Name] = true
	}
	return names
}

// simPackages is the simulation core: every package whose execution feeds
// the byte-identical determinism contract (docs/DETERMINISM.md). The server,
// store, and cmd layers are deliberately absent — wall-clock time is
// legitimate operational state there.
var simPackages = map[string]bool{
	"sim": true, "core": true, "noc": true, "xbar": true, "mesh": true,
	"swmr": true, "bus": true, "memory": true, "cohsim": true,
	"coherence": true, "arbiter": true, "stats": true, "trace": true,
	"traffic": true, "photonic": true, "power": true,
}

// hasInternalSegment reports whether pkgPath contains the consecutive
// segments ".../internal/<name>/...". Matching on segments rather than the
// repository's module prefix keeps the analyzers testable against fixture
// packages (testdata/src/<mod>/internal/<name>) and robust to a module
// rename.
func hasInternalSegment(pkgPath, name string) bool {
	segs := strings.Split(normalizePkgPath(pkgPath), "/")
	for i := 0; i+1 < len(segs); i++ {
		if segs[i] == "internal" && segs[i+1] == name {
			return true
		}
	}
	return false
}

// inSimScope reports whether pkgPath is one of the simulation-core packages.
func inSimScope(pkgPath string) bool {
	segs := strings.Split(normalizePkgPath(pkgPath), "/")
	for i := 0; i+1 < len(segs); i++ {
		if segs[i] == "internal" && simPackages[segs[i+1]] {
			return true
		}
	}
	return false
}

// normalizePkgPath strips go vet's test-variant decorations; see
// analysis.NormalizePkgPath.
func normalizePkgPath(pkgPath string) string { return analysis.NormalizePkgPath(pkgPath) }

// calleeOf resolves the called object of a call expression: the *types.Func
// for direct calls and method calls, nil for builtins, conversions, and
// calls through function-valued expressions.
func calleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// funcFrom reports whether fn is a package-level function (no receiver)
// declared in a package satisfying pathOK.
func funcFrom(fn *types.Func, pathOK func(string) bool) bool {
	if fn == nil || fn.Pkg() == nil || !pathOK(fn.Pkg().Path()) {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() == nil
}

// isNamedFrom reports whether t (after unwrapping pointers) is the named
// type typeName from a package satisfying pathOK.
func isNamedFrom(t types.Type, typeName string, pathOK func(string) bool) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return false
	}
	return n.Obj().Name() == typeName && pathOK(n.Obj().Pkg().Path())
}
