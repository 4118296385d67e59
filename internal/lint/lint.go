// Package lint is the project's static-analysis suite: five analyzers
// that turn the simulator's determinism and hot-path invariants (byte-
// identical tables at any parallelism, zero-allocation event kernel,
// context-first public entry points, complete Snap methods) into
// machine-checked law, plus the waiver directive that documents every
// deliberate exception.
//
// The package deliberately mirrors the golang.org/x/tools/go/analysis
// API shape — Analyzer, Pass, Diagnostic, Facts, and an
// analysistest-style golden runner — but is built on the standard
// library alone: the build environment vendors no third-party modules,
// so the module stays dependency-free and `go run ./cmd/peilint ./...`
// works offline. Porting an analyzer here to a real go/analysis
// multichecker is a mechanical rename.
//
// Analysis is module-wide, not per package: the driver (driver.go)
// analyzes packages in import topological order, analyzers with
// FactTypes export Facts (fact.go) on functions they have analyzed,
// and downstream passes import those facts — so a helper two packages
// away that reads the wall clock, allocates a string per call, or
// hashes a counter name is caught at the call site in checked code,
// with the witness chain in the message.
//
// # Waivers
//
//	//peilint:allow <analyzer> <reason>
//
// suppresses that analyzer's diagnostics on the directive's own line
// (trailing-comment form) and on the statement below a standalone
// directive; a contiguous block of standalone directives stacks, so one
// statement can waive several analyzers. The analyzer name must be one
// of the registered analyzers and the reason must be non-empty; the
// `waiver` meta-analyzer reports malformed directives so a typo cannot
// silently disable enforcement.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //peilint:allow directives.
	Name string
	// Doc is a one-paragraph description of what the analyzer enforces
	// and why.
	Doc string
	// Packages lists module-relative import paths ("internal/sim",
	// "pei") the analyzer applies to; a nil slice means every package.
	// The driver consults this — Run itself analyzes whatever package
	// it is handed, which is what lets analysistest feed it testdata
	// packages outside the production scope.
	Packages []string
	// FactTypes lists the fact types the analyzer exports (fact.go). A
	// non-empty list makes the driver run the analyzer on every module
	// package in import topological order — facts must be gathered even
	// where diagnostics are out of scope — with reporting suppressed
	// outside Packages.
	FactTypes []Fact
	// Run performs the check, reporting findings via pass.Reportf.
	Run func(pass *Pass) error
}

// AppliesTo reports whether the analyzer's package scope covers the
// given module-relative package path (exact match or subdirectory).
func (a *Analyzer) AppliesTo(relPath string) bool {
	if a.Packages == nil {
		return true
	}
	for _, p := range a.Packages {
		if relPath == p || strings.HasPrefix(relPath, p+"/") {
			return true
		}
	}
	return false
}

// A Diagnostic is a single finding, positioned in the analyzed source.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// A Pass hands one type-checked package to an analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	// ModulePath is the path of the module under analysis ("pimsim");
	// analyzers use it to classify a callee's package as module-local
	// and to test whether it falls inside their own scope.
	ModulePath string

	// report is false when the driver runs the pass for fact gathering
	// only (the package is outside the analyzer's scope): facts are
	// exported, diagnostics are discarded before waiver consultation so
	// a waiver suppressing nothing visible still reads as stale.
	report  bool
	facts   *factStore
	waivers waiverSet
	diags   []Diagnostic
}

// InScope reports whether pkg (any package in the current types
// universe) falls inside this pass's analyzer scope. Analyzers use it
// to report a cross-package call only at the outermost entry into
// unchecked territory: a callee whose own package is in scope already
// gets a direct diagnostic there.
func (p *Pass) InScope(pkg *types.Package) bool {
	if pkg == nil {
		return false
	}
	rel := strings.TrimPrefix(strings.TrimPrefix(pkg.Path(), p.ModulePath), "/")
	return p.Analyzer.AppliesTo(rel)
}

// Reportf records a diagnostic at pos unless a matching
// //peilint:allow directive waives it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	if !p.report {
		return
	}
	position := p.Fset.Position(pos)
	// The waiver validator is not itself waivable — otherwise
	// `//peilint:allow waiver ...` could suppress its own diagnostic.
	if p.Analyzer.Name != waiverAnalyzerName {
		if w := p.waivers.covering(p.Analyzer.Name, position); w != nil {
			w.used = true
			return
		}
	}
	p.diags = append(p.diags, Diagnostic{
		Pos:      position,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// waiver is one parsed //peilint:allow directive.
type waiver struct {
	pos      token.Pos
	analyzer string // "" when the directive is malformed
	reason   string
	// used records that the waiver suppressed at least one diagnostic
	// in a reporting pass; the driver turns unused well-formed waivers
	// into stale-waiver findings so dead exceptions cannot accumulate.
	used bool
}

// waiverSet indexes waivers by file and line.
type waiverSet map[string]map[int]*waiver

// covering returns the well-formed waiver for the named analyzer that
// covers the position — as a trailing comment on the flagged line, or
// anywhere in the contiguous block of directive lines directly above it
// (so several analyzers can be waived for one statement by stacking
// directives) — or nil. Malformed waivers never suppress anything.
func (ws waiverSet) covering(analyzer string, pos token.Position) *waiver {
	lines := ws[pos.Filename]
	match := func(w *waiver) bool {
		return w != nil && w.analyzer == analyzer && w.reason != ""
	}
	if w := lines[pos.Line]; match(w) {
		return w
	}
	for line := pos.Line - 1; ; line-- {
		w, ok := lines[line]
		if !ok {
			return nil
		}
		if match(w) {
			return w
		}
	}
}

const waiverPrefix = "//peilint:allow"

// parseWaivers extracts every //peilint:allow directive from the files,
// keeping malformed ones (with analyzer/reason left empty) so the
// waiver analyzer can report them.
func parseWaivers(fset *token.FileSet, files []*ast.File) waiverSet {
	ws := make(waiverSet)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, waiverPrefix) {
					continue
				}
				rest := strings.TrimPrefix(c.Text, waiverPrefix)
				// Require a separator so "//peilint:allowx" is not a directive.
				if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
					continue
				}
				// A line comment swallows everything to end of line, so an
				// analysistest `// want` expectation sharing the line would
				// otherwise read as part of the reason.
				if i := strings.Index(rest, "// want"); i >= 0 {
					rest = rest[:i]
				}
				pos := fset.Position(c.Pos())
				w := &waiver{pos: c.Pos()}
				if fields := strings.Fields(rest); len(fields) > 0 {
					w.analyzer = fields[0]
					w.reason = strings.TrimSpace(strings.Join(fields[1:], " "))
				}
				if ws[pos.Filename] == nil {
					ws[pos.Filename] = make(map[int]*waiver)
				}
				ws[pos.Filename][pos.Line] = w
			}
		}
	}
	return ws
}

func sortDiagnostics(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

// Analyzers returns the full suite in a stable order: the five
// invariant analyzers plus the waiver validator.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		SimDeterm,
		StatsHandle,
		CtxFirst,
		HotAlloc,
		SnapComplete,
		Waiver,
	}
}

// waiverAnalyzerName is the waiver validator's name, used where
// referring to the Waiver variable itself would create an
// initialization cycle through Reportf.
const waiverAnalyzerName = "waiver"

// analyzerNames returns the names waivable by //peilint:allow (every
// analyzer except the waiver validator itself, which is deliberately
// omitted — and not referenced via Analyzers() to avoid an
// initialization cycle back into the Waiver variable).
func analyzerNames() []string {
	return []string{SimDeterm.Name, StatsHandle.Name, CtxFirst.Name, HotAlloc.Name, SnapComplete.Name}
}
