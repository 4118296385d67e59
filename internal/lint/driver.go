// The module-wide driver: analyzes packages in import-graph topological
// order so that facts exported by a dependency are visible when its
// importers are analyzed, then post-processes the result set —
// deduplicating diagnostics, sorting them stably, and reporting stale
// waivers. This is what `go run ./cmd/peilint ./...` and the
// whole-tree test run; the golden tests go through analyzeSingle.

package lint

import (
	"fmt"
	"sort"
)

// Analyze runs the analyzers over the target packages with whole-module
// fact propagation. The analysis set is the targets plus every
// module-local package they transitively import (the loader has already
// type-checked those to build the targets at all); fact-exporting
// analyzers run over the whole set in topological order, while
// diagnostics are kept only for target packages inside each analyzer's
// scope. A well-formed //peilint:allow directive in a target package
// that suppressed nothing is itself reported (analyzer "waiver"):
// stale waivers cannot accumulate. Diagnostics come back deduplicated
// and sorted by file, line, column, analyzer.
func Analyze(loader *Loader, targets []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	diags, waivers, err := analyze(loader, targets, analyzers, nil)
	if err != nil {
		return nil, err
	}
	diags = append(diags, staleWaivers(loader, targets, waivers, analyzers)...)
	return finishDiagnostics(diags), nil
}

// analyzeSingle runs one analyzer with fact propagation through the
// target's import closure, reporting on the target package regardless
// of the analyzer's scope — the analysistest entry point, where the
// testdata package is deliberately outside every production perimeter.
// No stale-waiver pass: golden packages carry waivers for analyzers
// that are not running.
func analyzeSingle(loader *Loader, target *Package, a *Analyzer) ([]Diagnostic, error) {
	diags, _, err := analyze(loader, nil, []*Analyzer{a}, target)
	if err != nil {
		return nil, err
	}
	return finishDiagnostics(diags), nil
}

// analyze is the shared driver core. When forced is non-nil it is the
// sole reporting package (scope ignored); otherwise targets report
// subject to scope.
func analyze(loader *Loader, targets []*Package, analyzers []*Analyzer, forced *Package) ([]Diagnostic, map[*Package]waiverSet, error) {
	roots := targets
	if forced != nil {
		roots = []*Package{forced}
	}
	order := topoClosure(loader, roots)
	targetSet := make(map[*Package]bool, len(targets))
	for _, t := range targets {
		targetSet[t] = true
	}

	facts := newFactStore()
	waivers := make(map[*Package]waiverSet)
	var diags []Diagnostic
	for _, pkg := range order {
		rel := pkg.RelPath(loader.ModulePath)
		ws := parseWaivers(pkg.Fset, pkg.Files)
		waivers[pkg] = ws
		for _, a := range analyzers {
			reporting := pkg == forced || (targetSet[pkg] && a.AppliesTo(rel))
			if !reporting && len(a.FactTypes) == 0 {
				continue
			}
			pass := &Pass{
				Analyzer:   a,
				Fset:       pkg.Fset,
				Files:      pkg.Files,
				Pkg:        pkg.Types,
				Info:       pkg.Info,
				ModulePath: loader.ModulePath,
				report:     reporting,
				facts:      facts,
				waivers:    ws,
			}
			if err := a.Run(pass); err != nil {
				return nil, nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.ImportPath, err)
			}
			diags = append(diags, pass.diags...)
		}
	}
	return diags, waivers, nil
}

// topoClosure returns the roots plus every loader-known package they
// transitively import, dependencies before dependents. Standard-library
// imports resolve through the source importer, not the loader, so they
// are naturally excluded.
func topoClosure(loader *Loader, roots []*Package) []*Package {
	sorted := make([]*Package, len(roots))
	copy(sorted, roots)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].ImportPath < sorted[j].ImportPath })

	var order []*Package
	seen := make(map[*Package]bool)
	var visit func(p *Package)
	visit = func(p *Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, imp := range p.Types.Imports() {
			if dep := loader.Loaded(imp.Path()); dep != nil {
				visit(dep)
			}
		}
		order = append(order, p)
	}
	for _, r := range sorted {
		visit(r)
	}
	return order
}

// staleWaivers reports every well-formed waiver in a target package
// that names an analyzer in this run yet suppressed nothing: either the
// code it excused has been fixed, or the waiver never matched — both
// mean it must go, so the waiver inventory stays an honest list of live
// exceptions.
func staleWaivers(loader *Loader, targets []*Package, waivers map[*Package]waiverSet, analyzers []*Analyzer) []Diagnostic {
	ran := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		ran[a.Name] = true
	}
	var diags []Diagnostic
	for _, pkg := range targets {
		for _, lines := range waivers[pkg] {
			for _, w := range lines {
				if w.analyzer == "" || w.reason == "" || !ran[w.analyzer] || w.used {
					continue
				}
				diags = append(diags, Diagnostic{
					Pos:      pkg.Fset.Position(w.pos),
					Analyzer: waiverAnalyzerName,
					Message: fmt.Sprintf("stale waiver: %s reports nothing here; delete this //peilint:allow %s directive",
						w.analyzer, w.analyzer),
				})
			}
		}
	}
	return diags
}

// finishDiagnostics deduplicates identical findings (the same position,
// analyzer, and message can surface twice when a package is analyzed
// under overlapping patterns) and sorts the result stably.
func finishDiagnostics(diags []Diagnostic) []Diagnostic {
	seen := make(map[Diagnostic]bool, len(diags))
	out := diags[:0]
	for _, d := range diags {
		if !seen[d] {
			seen[d] = true
			out = append(out, d)
		}
	}
	sortDiagnostics(out)
	return out
}
