package lint

import (
	"go/ast"
	"go/types"

	"corona/internal/lint/analysis"
)

// Determinism forbids nondeterminism sources inside the simulation core.
// The repo's headline contract — a sweep is byte-identical at any worker
// count, across runs and machines (docs/DETERMINISM.md) —
// dies the moment simulated behavior observes wall-clock time, the global
// math/rand stream (shared, lock-ordered, seeded by the runtime), crypto
// randomness, or Go's randomized map iteration order on a path that feeds
// ordered output. Simulation randomness must come from per-component
// sim.Rand generators seeded via core.CellSeed.
var Determinism = &analysis.Analyzer{
	Name: "determinism",
	Doc: "forbid wall-clock time, global math/rand, crypto/rand, and map-ordered " +
		"output inside the simulation packages (sim, core, noc, fabrics, stats, …)",
	Run: runDeterminism,
}

// forbiddenTimeFuncs observe or depend on wall-clock time. time.Duration
// arithmetic and constants remain fine — only the runtime clock is banned.
var forbiddenTimeFuncs = map[string]string{
	"Now":       "wall-clock time",
	"Since":     "wall-clock time",
	"Until":     "wall-clock time",
	"Sleep":     "wall-clock scheduling",
	"After":     "wall-clock scheduling",
	"Tick":      "wall-clock scheduling",
	"NewTicker": "wall-clock scheduling",
	"NewTimer":  "wall-clock scheduling",
	"AfterFunc": "wall-clock scheduling",
}

// seededRandConstructors are the math/rand package-level functions that do
// NOT touch the global source: they build explicitly seeded generators,
// which is exactly what deterministic code should do (better yet, sim.Rand).
var seededRandConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

func runDeterminism(pass *analysis.Pass) error {
	if !inSimScope(pass.Pkg.Path()) {
		return nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				checkDeterminismUse(pass, n)
			case *ast.RangeStmt:
				checkMapRange(pass, file, n)
			}
			return true
		})
	}
	return nil
}

// checkDeterminismUse flags references to the banned time and rand symbols.
// Matching the use (not just calls) also catches taking time.Now as a value.
func checkDeterminismUse(pass *analysis.Pass, sel *ast.SelectorExpr) {
	obj := pass.TypesInfo.Uses[sel.Sel]
	if obj == nil || obj.Pkg() == nil {
		return
	}
	switch obj.Pkg().Path() {
	case "time":
		if why, ok := forbiddenTimeFuncs[obj.Name()]; ok {
			if _, isFunc := obj.(*types.Func); isFunc {
				pass.Reportf(sel.Pos(),
					"time.%s is %s: simulation code must be reproducible, use kernel time (sim.Time) instead",
					obj.Name(), why)
			}
		}
	case "math/rand", "math/rand/v2":
		fn, ok := obj.(*types.Func)
		if !ok || seededRandConstructors[fn.Name()] {
			return
		}
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() == nil {
			pass.Reportf(sel.Pos(),
				"%s.%s draws from the global rand source: use a seeded sim.Rand (core.CellSeed) so streams are reproducible",
				obj.Pkg().Path(), obj.Name())
		}
	case "crypto/rand":
		pass.Reportf(sel.Pos(),
			"crypto/rand is nondeterministic by design and has no place in simulation code")
	}
}

// checkMapRange flags `for … range m` over a map when the loop body feeds an
// order-sensitive sink: an append whose result is not sorted immediately
// after the loop, a direct write/print, or a channel send. Go randomizes map
// iteration order per run, so any such loop breaks byte-identical output.
// Order-insensitive bodies — counting, summing, building another map — pass.
func checkMapRange(pass *analysis.Pass, file *ast.File, rng *ast.RangeStmt) {
	tv, ok := pass.TypesInfo.Types[rng.X]
	if !ok || tv.Type == nil {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	var sinkPos ast.Node
	var sink string
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if sinkPos != nil {
			return false
		}
		switch n := n.(type) {
		case *ast.SendStmt:
			sinkPos, sink = n, "sends on a channel"
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "append" {
				if _, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin {
					if !sortedAfter(pass, file, rng) {
						sinkPos, sink = n, "appends to a slice that is not sorted immediately after the loop"
					}
					return false
				}
			}
			if isOrderedWriteCall(pass, n) {
				sinkPos, sink = n, "writes output"
			}
		}
		return true
	})
	if sinkPos != nil {
		pass.Reportf(rng.Pos(),
			"map iteration order is randomized, and this loop %s: iterate sorted keys (or sort the result before it is observed)", sink)
	}
}

// sortedAfter reports whether one of the statements following rng in its
// enclosing block calls into package sort or slices — the canonical
// "collect keys, then sort" determinization idiom.
func sortedAfter(pass *analysis.Pass, file *ast.File, rng *ast.RangeStmt) bool {
	var after []ast.Stmt
	ast.Inspect(file, func(n ast.Node) bool {
		if after != nil {
			return false
		}
		block, ok := n.(*ast.BlockStmt)
		if !ok {
			return true
		}
		for i, stmt := range block.List {
			if stmt == ast.Stmt(rng) {
				after = block.List[i+1:]
				if after == nil {
					after = []ast.Stmt{}
				}
				return false
			}
		}
		return true
	})
	for _, stmt := range after {
		found := false
		ast.Inspect(stmt, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if fn := calleeOf(pass.TypesInfo, call); fn != nil && fn.Pkg() != nil {
				switch fn.Pkg().Path() {
				case "sort", "slices":
					found = true
				}
			}
			return !found
		})
		if found {
			return true
		}
	}
	return false
}

// isOrderedWriteCall reports whether call emits bytes somewhere ordered:
// fmt printing, io writes, or encoder calls.
func isOrderedWriteCall(pass *analysis.Pass, call *ast.CallExpr) bool {
	fn := calleeOf(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	switch fn.Pkg().Path() {
	case "fmt":
		switch fn.Name() {
		case "Print", "Printf", "Println", "Fprint", "Fprintf", "Fprintln":
			return true
		}
	}
	switch fn.Name() {
	case "Write", "WriteString", "WriteByte", "WriteRune", "Encode":
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			return true
		}
	}
	return false
}
