package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// determinismScoped lists the module packages (by path suffix under
// internal/) whose outputs feed modelled timings, plan scoring, or the
// simulated device: gpusim's virtual clock, core's plan selection, the
// numeric kernels and the pipeline scheduler. Wall-clock reads or the
// global rand source in these packages make runs irreproducible — the
// time-space processing model's cost tables must be a pure function of the
// inputs. Measured host wall time that is reported but never fed back into
// a model is allowed behind a justified pragma.
var determinismScoped = []string{
	"internal/gpusim",
	"internal/core",
	"internal/bh",
	"internal/pp",
	"internal/clc",
	"internal/cl",
	"internal/pipeline",
}

// runNoDeterminism flags time.Now/Since/Until and math/rand (v1 and v2)
// package-level sources in determinism-scoped packages. rand.New with an
// explicit seeded source is fine — that is how deterministic jitter is
// supposed to be built.
func runNoDeterminism(c *Context) []Diagnostic {
	scoped := false
	for _, suffix := range determinismScoped {
		p := c.L.ModulePath + "/" + suffix
		if c.Pkg.Path == p || strings.HasPrefix(c.Pkg.Path, p+"/") {
			scoped = true
			break
		}
	}
	if !scoped {
		return nil
	}
	var out []Diagnostic
	for _, f := range c.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := c.calleeFunc(call)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			switch fn.Pkg().Path() {
			case "time":
				switch fn.Name() {
				case "Now", "Since", "Until":
					out = append(out, c.diag(call.Pos(),
						"time.%s reads the wall clock in a determinism-scoped package; modelled timings must come from the plan cost model (justify measured-only host timing with a pragma)", fn.Name()))
				}
			case "math/rand", "math/rand/v2":
				// Package-level functions draw from the shared global
				// source; constructors building an explicitly seeded
				// generator are the sanctioned path.
				if !strings.HasPrefix(fn.Name(), "New") && isPackageLevel(fn) {
					out = append(out, c.diag(call.Pos(),
						"%s.%s draws from the global rand source in a determinism-scoped package; build a seeded *rand.Rand instead", pathBase(fn.Pkg().Path()), fn.Name()))
				}
			}
			return true
		})
	}
	return out
}

// isPackageLevel reports whether fn is a plain package-level function (no
// receiver): rand.Intn yes, (*rand.Rand).Intn no.
func isPackageLevel(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() == nil
}

// pathBase returns the last element of an import path ("math/rand/v2" →
// "rand", because v2's package name is still rand).
func pathBase(p string) string {
	if strings.HasSuffix(p, "/v2") {
		p = strings.TrimSuffix(p, "/v2")
	}
	if i := strings.LastIndex(p, "/"); i >= 0 {
		return p[i+1:]
	}
	return p
}
