// Package analysis is gecco's in-tree static-analysis suite: five analyzers
// that mechanically enforce the repository's determinism, context-flow, and
// hot-path invariants, plus the package loader and fixture harness that run
// them. The API deliberately mirrors the shape of golang.org/x/tools/go/
// analysis (Analyzer, Pass, Diagnostic, and an analysistest-style fixture
// runner with `// want "re"` comments) so the analyzers could be ported to
// the upstream framework verbatim — but it is implemented entirely on the
// standard library (go/ast, go/types, and the source importer), because the
// build must work offline with an empty module cache.
//
// The invariants encoded here are not stylistic: every one of them was
// violated — and fixed — in an earlier PR of this repository, and the code
// paths they guard are exactly the ones the roadmap's solver-speedup and
// sharded-serving work will churn next. The analyzers turn those
// post-mortems into machine-checked rules:
//
//   - detmap:    map-iteration order must never leak into output
//     (the PR 1 determinism pins).
//   - wallclock: the deterministic solver packages must not read the wall
//     clock or math/rand; a time limit reaches a solver only as its
//     context's deadline.
//   - ctxflow:   long scans must be cancellable; library code must not
//     mint its own context.Background (the PR 1/PR 2 cancellation work).
//   - oncesafe:  a sync.Once closure must publish every captured result on
//     every path (the PR 3 nil-session single-flight race).
//   - hotpath:   functions marked //gecco:hotpath must not call fmt,
//     Value.AsString, or allocate maps (the PR 5 columnar refactor took
//     exactly those off the constraint hot path).
//
// Suppression is explicit and audited: a finding is silenced only by a
// same-line or preceding-line directive of the form
//
//	//lint:gecco-allow(<analyzer>): <one-line justification>
//
// with a non-empty justification; a malformed or unjustified directive is
// itself reported. Hot-path functions opt in via a //gecco:hotpath line in
// their doc comment.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer describes one static check. The shape matches
// golang.org/x/tools/go/analysis.Analyzer so rules stay portable.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //lint:gecco-allow(<name>) directives.
	Name string
	// Doc states the enforced invariant and the historical bug that
	// motivated it.
	Doc string
	// Run reports the analyzer's findings for one package.
	Run func(*Pass)
}

// Pass carries one type-checked package through an analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files are the package's parsed non-test files, with comments.
	Files []*ast.File
	// Pkg is the type-checked package; it may carry partial information if
	// type checking reported errors (TypeErrors below).
	Pkg *types.Package
	// TypesInfo maps expressions and identifiers to types and objects.
	// Analyzers must tolerate missing entries (nil TypeOf results) so a
	// package with type errors still gets its syntactic checks.
	TypesInfo *types.Info
	// PkgPath is the package's import path ("gecco/internal/distance", or
	// the fixture-relative path under analysistest).
	PkgPath string
	// TypeErrors collects type-checker complaints; they do not stop the run.
	TypeErrors []error

	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding, resolved to a file position.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// All returns the five analyzers of the suite, in stable order.
func All() []*Analyzer {
	return []*Analyzer{DetMap, WallClock, CtxFlow, OnceSafe, HotPath}
}

// Run applies the analyzers to every loaded package and returns the
// surviving findings: diagnostics suppressed by a justified
// //lint:gecco-allow directive are dropped, and malformed directives are
// reported as findings of the pseudo-analyzer "directive". The result is
// sorted by file, line, and analyzer so output order never depends on map
// iteration — the suite practices what detmap preaches.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var all []Diagnostic
	for _, pkg := range pkgs {
		dirs := collectDirectives(pkg.Fset, pkg.Files)
		var raw []Diagnostic
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:   a,
				Fset:       pkg.Fset,
				Files:      pkg.Files,
				Pkg:        pkg.Types,
				TypesInfo:  pkg.TypesInfo,
				PkgPath:    pkg.Path,
				TypeErrors: pkg.TypeErrors,
				diags:      &raw,
			}
			a.Run(pass)
		}
		all = append(all, dirs.filter(raw)...)
		all = append(all, dirs.malformed()...)
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return all
}
