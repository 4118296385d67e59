// The statshandle analyzer: per-event code must not pay a string hash
// per counter update. stats.Handle — an interned index into the
// registry's flat value array — exists so per-event trees bump
// integers, not map entries. Under the handler event model (DESIGN.md
// §11) every scheduled event runs through an OnEvent method, so OnEvent
// is the root that covers per-event code; RunN and Schedule are the
// kernel's own dispatch and enqueue paths, and Step names a per-step
// loop anywhere. This analyzer keeps the
// string-keyed convenience methods out of those trees, including
// through wrappers defined in other packages: a helper that calls
// Registry.Add by name carries a StringStatsFact, and calling it from a
// hot tree is the same hash per event.

package lint

import (
	"go/ast"
	"go/types"
)

// hotRoots are the method/function names whose call trees are per-event
// hot paths.
var hotRoots = map[string]bool{
	"OnEvent":  true,
	"RunN":     true,
	"Step":     true,
	"Schedule": true,
}

// stringKeyedRegistryMethods are the stats.Registry methods that take a
// counter name and hash it per call.
var stringKeyedRegistryMethods = map[string]bool{
	"Add": true,
	"Inc": true,
	"Get": true,
	"Set": true,
}

// StatsHandle flags string-keyed stats.Registry calls inside hot call
// trees. Scope excludes internal/stats itself (the registry's own
// implementation).
var StatsHandle = &Analyzer{
	Name: "statshandle",
	Doc: "inside OnEvent/RunN/Step/Schedule call trees, stats must go through " +
		"pre-resolved stats.Handle counters (Registry.Counter at construction " +
		"time), not string-keyed Registry.Add/Inc/Get/Set — whether called " +
		"directly or through a wrapper in another package",
	Packages: []string{
		"internal/sim",
		"internal/cache",
		"internal/dram",
		"internal/hmc",
		"internal/pim",
		"internal/cpu",
		"internal/vm",
		"internal/machine",
		"internal/memlayout",
		"internal/workloads",
	},
	FactTypes: []Fact{(*StringStatsFact)(nil)},
	Run:       runStatsHandle,
}

// StringStatsFact marks a function that calls a string-keyed
// stats.Registry method on every invocation, directly or transitively —
// a per-call string hash wherever it is called from.
type StringStatsFact struct {
	Source string // the string-keyed method, e.g. "Registry.Add"
	Path   string // witness call chain down to Source
}

// AFact marks StringStatsFact as a fact type.
func (*StringStatsFact) AFact() {}

// isStringKeyedRegistryMethod reports whether f is one of the
// string-keyed stats.Registry methods.
func isStringKeyedRegistryMethod(f *types.Func) bool {
	if f == nil || !stringKeyedRegistryMethods[f.Name()] {
		return false
	}
	named := methodRecvNamed(f)
	if named == nil {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Name() == "Registry" && obj.Pkg() != nil && obj.Pkg().Name() == "stats"
}

func runStatsHandle(pass *Pass) error {
	decls := localFuncs(pass)
	edges := localEdges(pass, decls)

	gatherStatsFacts(pass, decls, edges)

	// BFS from the hot roots through package-local edges.
	hot := make(map[*types.Func]string) // func -> root that reaches it
	var queue []*types.Func
	for f := range decls {
		if hotRoots[f.Name()] {
			hot[f] = f.Name()
			queue = append(queue, f)
		}
	}
	for len(queue) > 0 {
		f := queue[0]
		queue = queue[1:]
		for _, callee := range edges[f] {
			if _, seen := hot[callee]; !seen {
				hot[callee] = hot[f]
				queue = append(queue, callee)
			}
		}
	}

	for f, root := range hot {
		fd := decls[f]
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := funcFor(pass.Info, call.Fun)
			if callee == nil {
				return true
			}
			if isStringKeyedRegistryMethod(callee) {
				pass.Reportf(call.Pos(),
					"string-keyed stats.Registry.%s in %s's call tree (via %s): resolve a stats.Handle with Registry.Counter at construction time and update through it",
					callee.Name(), root, f.Name())
				return true
			}
			// A wrapper in another, unchecked package that hashes a
			// counter name per call is the same cost in disguise.
			if callee.Pkg() == nil || callee.Pkg() == pass.Pkg || pass.InScope(callee.Pkg()) {
				return true
			}
			var fact StringStatsFact
			if pass.ImportObjectFact(callee, &fact) {
				pass.Reportf(call.Pos(),
					"call to %s in %s's call tree hashes a counter name per event (%s): resolve a stats.Handle at construction time instead",
					qualName(callee), root, chainTo(callee, reach{fact.Source, fact.Path}))
			}
			return true
		})
	}
	return nil
}

// gatherStatsFacts exports a StringStatsFact for every declared
// function that reaches a string-keyed Registry call — except the
// Registry methods themselves, which the direct check already names.
func gatherStatsFacts(pass *Pass, decls map[*types.Func]*ast.FuncDecl, edges map[*types.Func][]*types.Func) {
	seeds := make(map[*types.Func]reach)
	for f, fd := range decls {
		if isStringKeyedRegistryMethod(f) {
			continue
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if _, seeded := seeds[f]; seeded {
				return false
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := funcFor(pass.Info, call.Fun)
			if callee == nil {
				return true
			}
			if isStringKeyedRegistryMethod(callee) {
				src := "Registry." + callee.Name()
				seeds[f] = reach{Source: src, Path: src}
				return true
			}
			if callee.Pkg() != pass.Pkg {
				var fact StringStatsFact
				if pass.ImportObjectFact(callee, &fact) {
					seeds[f] = reach{Source: fact.Source, Path: chainTo(callee, reach{fact.Source, fact.Path})}
				}
			}
			return true
		})
	}
	for f, r := range propagateReach(decls, edges, seeds) {
		if isStringKeyedRegistryMethod(f) {
			continue
		}
		pass.ExportObjectFact(f, &StringStatsFact{Source: r.Source, Path: r.Path})
	}
}
