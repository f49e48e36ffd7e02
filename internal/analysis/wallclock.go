package analysis

import (
	"go/ast"
	"strconv"
)

// WallClock forbids wall-clock reads (time.Now, time.Since, time.Until) and
// math/rand imports inside the deterministic solver packages: candidates,
// cover, mip, lp, distance, constraints, and abstraction. GECCO's headline
// guarantee is byte-identical abstraction output for the same input under
// any worker count; a solver that consults the clock or a PRNG can return
// different groupings between runs, which no determinism test can pin
// reliably. A solver learns the time only from its context: a deadline the
// caller chose over determinism arrives as ctx.Err(), which the solvers
// sample exactly as they sample cancellation, so no solver package needs
// a clock read or a gecco-allow directive for it. internal/par is
// allowlisted wholesale.
var WallClock = &Analyzer{
	Name: "wallclock",
	Doc:  "forbids wall-clock and PRNG use in the deterministic solver packages",
	Run:  runWallClock,
}

// wallclockScope are the deterministic solver packages (path suffixes).
var wallclockScope = []string{
	"internal/candidates", "internal/cover", "internal/mip", "internal/lp",
	"internal/distance", "internal/constraints", "internal/abstraction",
	// internal/par is in scope so its budget machinery stays visible to the
	// analyzer's allowlist below rather than silently out of bounds.
	"internal/par",
}

// wallclockFuncs are the banned time package functions.
var wallclockFuncs = map[string]bool{"Now": true, "Since": true, "Until": true}

func runWallClock(pass *Pass) {
	if !pass.pathSuffixIn(wallclockScope...) {
		return
	}
	// Built-in allowlist: internal/par owns the budget-sampling primitives
	// (worker counts, batch sizing); its time use is the sanctioned site.
	if pass.pathSuffixIn("internal/par") {
		return
	}
	for _, f := range pass.Files {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if path == "math/rand" || path == "math/rand/v2" {
				pass.Reportf(imp.Pos(), "import of %s in deterministic solver package %s: PRNG-dependent grouping output cannot be byte-identical across runs", path, pass.PkgPath)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || !wallclockFuncs[sel.Sel.Name] {
				return true
			}
			if pass.pkgNameOf(sel.X) == "time" {
				pass.Reportf(call.Pos(), "time.%s in deterministic solver package %s: wall-clock reads make solver behavior time-dependent (inject a budget, or gecco-allow an opt-in deadline check)", sel.Sel.Name, pass.PkgPath)
			}
			return true
		})
	}
}
