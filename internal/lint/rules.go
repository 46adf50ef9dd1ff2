package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Rule is one analyzer.
type Rule struct {
	// Name is the rule name used in diagnostics and suppressions.
	Name string
	// Doc is a one-line description for listings.
	Doc string
	// Sev is the severity of every diagnostic the rule reports.
	Sev Severity
	// Run analyzes one package.
	Run func(*Context) []Diagnostic
}

// Rules returns the registered rule set in a stable (name) order.
func Rules() []*Rule {
	out := []*Rule{
		{Name: "ctxpropagate", Sev: SevError,
			Doc: "context must flow: no sim.Run/Engine.Accel on ctx-carrying paths, no context.Background outside main",
			Run: runCtxPropagate},
		{Name: "arenaescape", Sev: SevError,
			Doc: "arena-backed builder results must not escape (return/field store) a Reset/Put in the same function",
			Run: runArenaEscape},
		{Name: "spanhygiene", Sev: SevWarning,
			Doc: "every Tracer.Start* span must reach End on all return paths and stay on its goroutine",
			Run: runSpanHygiene},
		{Name: "nodeterminism", Sev: SevError,
			Doc: "no wall clocks or global rand in packages feeding modelled timings",
			Run: runNoDeterminism},
		{Name: "schemaversion", Sev: SevError,
			Doc: "versioned JSON structs must match the pinned schema registry (fingerprint, version const, current-version reader)",
			Run: runSchemaVersion},
		{Name: "metricname", Sev: SevWarning,
			Doc: "obs metric registrations use the dotted lowercase convention and one kind per name",
			Run: runMetricName},
		{Name: "stoptheworld", Sev: SevError,
			Doc: "no calls to runtime entry points that stop the world (ReadMemStats, GC, GOMAXPROCS(n), Stack(all), goroutine profiles, heap dumps, tracer start)",
			Run: runStopTheWorld},
		{Name: "deprecatedapi", Sev: SevWarning,
			Doc: "no calls to functions documented Deprecated: outside their own package",
			Run: runDeprecatedAPI},
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Context hands a rule everything it needs: the loader (for positions,
// deprecation facts, the module layout) and the package under analysis,
// plus the check-wide shared state.
type Context struct {
	L   *Loader
	Pkg *Package

	// metrics is the check-wide metric registration table, shared across
	// packages so name/kind conflicts are caught wherever the two sites
	// live.
	metrics *metricTable
	// schemas is the pinned schema registry loaded from schemas.json.
	schemas *schemaRegistry
}

// diag builds a diagnostic at pos; the runner fills Rule and Sev.
func (c *Context) diag(pos token.Pos, format string, args ...any) Diagnostic {
	file, line, col := c.L.posOf(pos)
	return Diagnostic{
		File: file, Line: line, Col: col,
		Unit:    c.Pkg.Path,
		Message: fmt.Sprintf(format, args...),
	}
}

// Check runs the rules over the packages (in the given order), applies each
// package's suppression pragmas, and returns the merged, position-sorted
// result. rules nil means Rules().
func Check(l *Loader, pkgs []*Package, rules []*Rule) (*Result, error) {
	if rules == nil {
		rules = Rules()
	}
	schemas, err := loadSchemaRegistry(l)
	if err != nil {
		return nil, err
	}
	known := make(map[string]bool)
	known["suppression"] = true
	for _, r := range Rules() {
		known[r.Name] = true
	}
	metrics := newMetricTable()
	var diags []Diagnostic
	for _, pkg := range pkgs {
		ctx := &Context{L: l, Pkg: pkg, metrics: metrics, schemas: schemas}
		for _, r := range rules {
			for _, d := range r.Run(ctx) {
				d.Rule = r.Name
				d.Sev = r.Sev
				diags = append(diags, d)
			}
		}
		sups, supDiags := parseSuppressions(l, pkg, known)
		diags = append(diags, supDiags...)
		diags = applySuppressions(diags, sups)
	}
	sortDiags(diags)
	return &Result{Diags: diags}, nil
}

// ---- shared type-query helpers ----

// calleeFunc resolves the function or method a call expression invokes
// (nil for calls through function-typed values, conversions, or builtins).
func (c *Context) calleeFunc(call *ast.CallExpr) *types.Func {
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := c.Pkg.Info.Uses[f].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if fn, ok := c.Pkg.Info.Uses[f.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// isFunc reports whether fn is the package-level function pkgPath.name.
func isFunc(fn *types.Func, pkgPath, name string) bool {
	if fn == nil || fn.Pkg() == nil || fn.Name() != name {
		return false
	}
	return fn.Pkg().Path() == pkgPath && fn.Type().(*types.Signature).Recv() == nil
}

// isMethod reports whether fn is the method recvName.name declared in
// pkgPath (pointer and value receivers alike).
func isMethod(fn *types.Func, pkgPath, recvName, name string) bool {
	if fn == nil || fn.Name() != name {
		return false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	p, n := namedOf(recv.Type())
	return p == pkgPath && n == recvName
}

// eachFuncBody visits every function and method body in the package,
// including function literals nested inside them.
func (c *Context) eachFuncBody(fn func(decl *ast.FuncDecl)) {
	for _, f := range c.Pkg.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				fn(fd)
			}
		}
	}
}

// rootIdent unwraps a (possibly chained) expression down to the identifier
// it hangs off: rootIdent(sp.Arg("k", v).End) == sp. Nil when the chain
// roots in a call or literal rather than a plain identifier.
func rootIdent(expr ast.Expr) *ast.Ident {
	for {
		switch e := ast.Unparen(expr).(type) {
		case *ast.Ident:
			return e
		case *ast.SelectorExpr:
			expr = e.X
		case *ast.CallExpr:
			expr = e.Fun
		case *ast.IndexExpr:
			expr = e.X
		default:
			return nil
		}
	}
}
