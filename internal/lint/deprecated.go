package lint

import (
	"go/ast"

	"corona/internal/lint/analysis"
)

// DeprecatedCaller fences off the repository's deprecated compatibility
// surfaces: a symbol kept only so external users of old releases keep
// compiling must have no in-repo caller. The check is semantic rather than
// a list of spelled-out names: any use of an object whose doc comment
// carries a "Deprecated:" paragraph is reported, wherever the object
// migrates.
//
// Deprecation facts travel between compilation units in corona-vet's vetx
// files, so cross-package calls are caught under `go vet`'s separate
// per-package analysis. Two uses stay legal: the declaring package's own
// test files (they pin the wrappers' compatibility behavior), and the body
// of another deprecated declaration (compat shims may layer).
var DeprecatedCaller = &analysis.Analyzer{
	Name: "deprecated",
	Doc: "forbid in-repo use of symbols documented as Deprecated:, except " +
		"from the declaring package's tests and other deprecated shims",
	Run: runDeprecatedCaller,
}

func runDeprecatedCaller(pass *analysis.Pass) error {
	if len(pass.Deprecated) == 0 {
		return nil
	}
	selfPath := normalizePkgPath(pass.Pkg.Path())
	for _, file := range pass.Files {
		var enclosing []*ast.FuncDecl
		ast.Inspect(file, func(n ast.Node) bool {
			if n == nil {
				return true
			}
			if fd, ok := n.(*ast.FuncDecl); ok {
				enclosing = append(enclosing, fd)
				// Note: Inspect gives no pop signal per node type; track by
				// position instead — the last enclosing decl whose range
				// covers the current node is the active one.
			}
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			obj := pass.TypesInfo.Uses[id]
			key := analysis.DeprecatedKey(obj)
			if key == "" || !pass.Deprecated[key] {
				return true
			}
			declPath := normalizePkgPath(obj.Pkg().Path())
			if pass.InTestFile(id.Pos()) && declPath == selfPath {
				return true // the declaring package's tests pin compat behavior
			}
			for _, fd := range enclosing {
				if fd.Pos() <= id.Pos() && id.Pos() <= fd.End() && declaredDeprecated(pass, fd) {
					return true // deprecated shims may call each other
				}
			}
			pass.Reportf(id.Pos(),
				"%s is deprecated: see its Deprecated: doc note for the replacement", key)
			return true
		})
	}
	return nil
}

// declaredDeprecated reports whether the function declaration itself
// carries a Deprecated: paragraph — i.e. the use occurs inside another
// deprecated shim.
func declaredDeprecated(pass *analysis.Pass, fd *ast.FuncDecl) bool {
	name := fd.Name.Name
	key := normalizePkgPath(pass.Pkg.Path()) + "." + name
	if fd.Recv != nil {
		// Method shim: reconstruct the method key through its own object.
		if obj := pass.TypesInfo.Defs[fd.Name]; obj != nil {
			key = analysis.DeprecatedKey(obj)
		}
	}
	return pass.Deprecated[key]
}
