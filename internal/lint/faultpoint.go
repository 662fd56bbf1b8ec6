package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"corona/internal/lint/analysis"
)

// FaultPoint polices the deterministic fault-injection vocabulary
// (internal/faultinject, docs/OPERATIONS.md). Chaos drills and the crash
// matrix address failure sites by name — `CORONA_FAULTS=store.append.torn:…`
// — so the names are an operational API:
//
//   - every faultinject.Fire/FireN/Hits point name must be a string literal (an
//     operator must be able to grep for it) shaped pkg.component.action,
//     with the leading segment naming the package that owns the site;
//   - a point fires from exactly one call site per package (a second site
//     silently doubles the hit-count stream the @N triggers key on);
//   - the set of points a package fires must match the fault-point table in
//     docs/OPERATIONS.md exactly, both directions — an undocumented point is
//     invisible to operators, a documented-but-deleted one is a stale drill.
//
// The documentation cross-check anchors at the repository's go.mod and runs
// only for packages that call into faultinject at all.
var FaultPoint = &analysis.Analyzer{
	Name: "faultpoint",
	Doc: "require faultinject point names to be literal pkg.component.action " +
		"strings, fired once per package, matching docs/OPERATIONS.md",
	Run: runFaultPoint,
}

// faultPointDoc is the repo-root-relative file holding the fault-point
// vocabulary. Points are recognized inside backticked code spans.
const faultPointDoc = "docs/OPERATIONS.md"

var (
	pointNameRE = regexp.MustCompile(`^[a-z][a-z0-9]*(\.[a-z][a-z0-9]*){2,}$`)
	// docSpanRE captures inline backticked spans; the point name is the prefix
	// of the span up to an optional :mode@N / :mode:p=… trigger spec.
	docSpanRE = regexp.MustCompile("`([^`]+)`")
	// docTokenRE finds point-shaped tokens on fenced code-block lines, where
	// backticks carry no markup meaning.
	docTokenRE = regexp.MustCompile(`[a-z][a-z0-9]*(\.[a-z][a-z0-9]*){2,}`)
)

func runFaultPoint(pass *analysis.Pass) error {
	isFaultPkg := func(p string) bool { return hasInternalSegment(p, "faultinject") }
	pkgName := pass.Pkg.Name()

	fired := make(map[string][]token.Pos) // Fire sites per point name
	sawFaultinject := false

	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeOf(pass.TypesInfo, call)
			if !funcFrom(fn, isFaultPkg) {
				return true
			}
			if pass.InTestFile(call.Pos()) {
				// Tests arm scratch points and drill production ones by
				// name; the vocabulary rules bind production sites only.
				return true
			}
			sawFaultinject = true
			fires := fn.Name() == "Fire" || fn.Name() == "FireN"
			if (!fires && fn.Name() != "Hits") || len(call.Args) < 1 {
				return true
			}
			name, ok := stringLiteral(call.Args[0])
			if !ok {
				pass.Reportf(call.Args[0].Pos(),
					"faultinject.%s point name must be a string literal so operators can grep for it", fn.Name())
				return true
			}
			if !pointNameRE.MatchString(name) {
				pass.Reportf(call.Args[0].Pos(),
					"fault point %q is not shaped pkg.component.action (lowercase dot-separated, ≥3 segments)", name)
				return true
			}
			if first := name[:strings.Index(name, ".")]; first != pkgName {
				pass.Reportf(call.Args[0].Pos(),
					"fault point %q claims package %q but fires from package %q: the first segment names the owning package", name, first, pkgName)
				return true
			}
			if fires {
				fired[name] = append(fired[name], call.Args[0].Pos())
			}
			return true
		})
	}

	// Duplicate-site check: deterministic @N triggers count hits globally
	// per point, so a second Fire site changes every drill's meaning.
	names := make([]string, 0, len(fired))
	for name := range fired {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		sites := fired[name]
		if len(sites) > 1 {
			sort.Slice(sites, func(i, j int) bool { return sites[i] < sites[j] })
			for _, pos := range sites[1:] {
				pass.Reportf(pos,
					"fault point %q is fired from %d call sites in this package: each point fires from one site, or its hit ordinals become path-dependent", name, len(sites))
			}
		}
	}

	if !sawFaultinject {
		return nil
	}
	documented, err := documentedFaultPoints(pass)
	if err != nil {
		pass.Reportf(pass.Files[0].Package,
			"cannot cross-check fault points against %s: %v", faultPointDoc, err)
		return nil
	}
	for _, name := range names {
		if !documented[name] {
			pass.Reportf(fired[name][0],
				"fault point %q is not documented in %s: add it to the fault-injection section so operators can find it", name, faultPointDoc)
		}
	}
	// Reverse direction: table rows owned by this package must still exist
	// in code.
	var docNames []string
	for name := range documented {
		docNames = append(docNames, name)
	}
	sort.Strings(docNames)
	for _, name := range docNames {
		if owner := name[:strings.Index(name, ".")]; owner == pkgName && len(fired[name]) == 0 {
			pass.Reportf(pass.Files[0].Package,
				"%s documents fault point %q for this package, but nothing fires it: stale documentation row", faultPointDoc, name)
		}
	}
	return nil
}

// documentedFaultPoints extracts every point name the operations doc
// mentions: inline backticked spans in prose, and bare point-shaped tokens
// inside ``` code fences (where backticks carry no markup meaning — scanning
// a fence for span pairs would desynchronize every span after it).
// Trigger-spec suffixes are stripped, so `store.append.torn:error:p=0.05`
// documents point store.append.torn.
func documentedFaultPoints(pass *analysis.Pass) (map[string]bool, error) {
	if pass.ReadRepoFile == nil {
		return nil, fmt.Errorf("no repository root available")
	}
	data, err := pass.ReadRepoFile(faultPointDoc)
	if err != nil {
		return nil, err
	}
	points := make(map[string]bool)
	record := func(span string) {
		if i := strings.Index(span, ":"); i >= 0 {
			span = span[:i]
		}
		span = strings.TrimSpace(span)
		if pointNameRE.MatchString(span) {
			points[span] = true
		}
	}
	inFence := false
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			inFence = !inFence
			continue
		}
		if inFence {
			for _, tok := range docTokenRE.FindAllString(line, -1) {
				record(tok)
			}
			continue
		}
		for _, m := range docSpanRE.FindAllStringSubmatch(line, -1) {
			record(m[1])
		}
	}
	return points, nil
}

// stringLiteral unquotes expr when it is a plain string literal.
func stringLiteral(expr ast.Expr) (string, bool) {
	lit, ok := ast.Unparen(expr).(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return "", false
	}
	s, err := strconv.Unquote(lit.Value)
	if err != nil {
		return "", false
	}
	return s, true
}
