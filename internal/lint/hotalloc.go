// The hotalloc analyzer: the calendar-queue kernel is zero-allocation
// in steady state (pinned by testing.AllocsPerRun in the sim package's
// tests), and every simulator event funnels through it. This analyzer
// rejects the three easy ways to reintroduce a per-event allocation:
// formatted strings, string concatenation, and capturing closures.
//
// Panic arguments are exempt — a formatted panic message allocates only
// on the way down, when the simulation is already dead — and so are
// New* constructors, which run once at machine-build time rather than
// per event, and snapshot.go files, whose checkpoint serialization runs
// once per quiescent phase boundary, never inside the event loop.

package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
)

// allocatingFmtFuncs are fmt package functions that build and return a
// string (or error) — one heap allocation each.
var allocatingFmtFuncs = map[string]bool{
	"Sprintf":  true,
	"Sprint":   true,
	"Sprintln": true,
	"Errorf":   true,
	"Appendf":  true,
}

// HotAlloc flags per-event allocations inside the event kernel and the
// per-event component packages that feed it (caches, DRAM, HMC, PIM,
// the cores).
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc: "inside the simulator's per-event packages, forbid fmt string " +
		"building, non-constant string concatenation, and closures that " +
		"capture variables — directly or via calls into helper packages " +
		"that build strings per call; panic arguments, New* constructors, " +
		"and snapshot.go files (phase-boundary serialization, not per-event " +
		"code) are exempt",
	Packages: []string{
		"internal/sim",
		"internal/cache",
		"internal/dram",
		"internal/hmc",
		"internal/pim",
		"internal/cpu",
	},
	FactTypes: []Fact{(*AllocFact)(nil)},
	Run:       runHotAlloc,
}

// AllocFact marks a function that allocates a string on every call:
// fmt string building (Errorf excluded — error construction is
// cold-path by project convention, aborting or poisoning the run) or
// non-constant concatenation, directly or transitively. Hot-path code
// calling such a helper in another package pays the allocation per
// event even though the helper's own package is outside the hot
// perimeter.
type AllocFact struct {
	Source string // the allocating operation, e.g. "fmt.Sprintf"
	Path   string // witness call chain down to Source
}

// AFact marks AllocFact as a fact type.
func (*AllocFact) AFact() {}

// factFmtFuncs are the fmt string builders that seed AllocFacts.
// Errorf is deliberately absent: in this codebase error construction
// aborts or poisons a run, so it never recurs per event.
var factFmtFuncs = map[string]bool{
	"Sprintf":  true,
	"Sprint":   true,
	"Sprintln": true,
	"Appendf":  true,
}

func runHotAlloc(pass *Pass) error {
	gatherAllocFacts(pass)
	for _, file := range pass.Files {
		// Snapshot/restore code runs once per quiescent phase boundary —
		// by definition outside the event loop — so a whole snapshot.go
		// file is exempt, the same way New* constructors are.
		if filepath.Base(pass.Fset.Position(file.Pos()).Filename) == "snapshot.go" {
			continue
		}
		panicSpans := collectPanicArgSpans(pass.Info, file)
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if strings.HasPrefix(fd.Name.Name, "New") {
				continue // construction time, not per event
			}
			checkHotFunc(pass, fd, panicSpans)
		}
	}
	return nil
}

// gatherAllocFacts computes, for every function declared in the
// package, whether it builds a string on every call — directly or
// through package-local calls or calls into already-analyzed module
// packages — and exports an AllocFact for each one that does. Panic
// arguments stay exempt: a message built on the way down allocates only
// once, when the run is already dead.
func gatherAllocFacts(pass *Pass) {
	decls := localFuncs(pass)
	edges := localEdges(pass, decls)
	seeds := make(map[*types.Func]reach)
	for f, fd := range decls {
		file := fileOf(pass, fd)
		if file == nil {
			continue
		}
		panicSpans := collectPanicArgSpans(pass.Info, file)
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if n == nil {
				return true
			}
			if _, seeded := seeds[f]; seeded {
				return false
			}
			if panicSpans.contains(n) {
				return false
			}
			switch n := n.(type) {
			case *ast.CallExpr:
				callee := funcFor(pass.Info, n.Fun)
				if callee == nil {
					return true
				}
				if callee.Pkg() != nil && callee.Pkg().Path() == "fmt" && factFmtFuncs[callee.Name()] {
					src := "fmt." + callee.Name()
					seeds[f] = reach{Source: src, Path: src}
					return true
				}
				if callee.Pkg() != pass.Pkg {
					var fact AllocFact
					if pass.ImportObjectFact(callee, &fact) {
						seeds[f] = reach{Source: fact.Source, Path: chainTo(callee, reach{fact.Source, fact.Path})}
					}
				}
			case *ast.BinaryExpr:
				if n.Op == token.ADD && isNonConstantString(pass, n) {
					seeds[f] = reach{Source: "string concatenation", Path: "string concatenation"}
				}
			case *ast.AssignStmt:
				if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 {
					if t := pass.Info.TypeOf(n.Lhs[0]); t != nil && isStringType(t) {
						seeds[f] = reach{Source: "string +=", Path: "string +="}
					}
				}
			}
			return true
		})
	}
	for f, r := range propagateReach(decls, edges, seeds) {
		pass.ExportObjectFact(f, &AllocFact{Source: r.Source, Path: r.Path})
	}
}

// fileOf returns the *ast.File containing the declaration.
func fileOf(pass *Pass, fd *ast.FuncDecl) *ast.File {
	for _, f := range pass.Files {
		if fd.Pos() >= f.Pos() && fd.Pos() <= f.End() {
			return f
		}
	}
	return nil
}

func checkHotFunc(pass *Pass, fd *ast.FuncDecl, panicSpans panicArgSpans) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if n == nil {
			return true
		}
		if panicSpans.contains(n) {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			f := funcFor(pass.Info, n.Fun)
			if f != nil && f.Pkg() != nil && f.Pkg().Path() == "fmt" && allocatingFmtFuncs[f.Name()] {
				pass.Reportf(n.Pos(),
					"fmt.%s allocates a string per event: precompute the message or move formatting off the hot path",
					f.Name())
			}
			checkAllocCall(pass, n, f)
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isNonConstantString(pass, n) {
				pass.Reportf(n.Pos(),
					"string concatenation allocates per event: intern the string at construction time")
			}
		case *ast.AssignStmt:
			if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 {
				if t := pass.Info.TypeOf(n.Lhs[0]); t != nil && isStringType(t) {
					pass.Reportf(n.Pos(),
						"string += allocates per event: intern the string at construction time")
				}
			}
		case *ast.FuncLit:
			if captured := capturedVars(pass, n); len(captured) > 0 {
				pass.Reportf(n.Pos(),
					"closure captures %s and therefore allocates per event: hoist the closure to construction time or pass state explicitly",
					strings.Join(captured, ", "))
				return false // don't re-report nested literals' shared captures
			}
		}
		return true
	})
}

// checkAllocCall flags calls from hot-path code into module functions
// outside the hot perimeter that allocate a string on every call.
// Callees inside the perimeter are not re-flagged: the allocation
// itself gets a direct diagnostic in its own package.
func checkAllocCall(pass *Pass, call *ast.CallExpr, callee *types.Func) {
	if callee == nil || callee.Pkg() == nil || callee.Pkg() == pass.Pkg || pass.InScope(callee.Pkg()) {
		return
	}
	var fact AllocFact
	if !pass.ImportObjectFact(callee, &fact) {
		return
	}
	pass.Reportf(call.Pos(),
		"call to %s allocates per event via %s (%s): precompute the string or move the helper call off the hot path",
		qualName(callee), fact.Source, chainTo(callee, reach{fact.Source, fact.Path}))
}

func isStringType(t types.Type) bool {
	basic, ok := t.Underlying().(*types.Basic)
	return ok && basic.Info()&types.IsString != 0
}

// isNonConstantString reports whether the expression is a string
// concatenation the compiler cannot fold (at least one operand is not
// a constant).
func isNonConstantString(pass *Pass, e *ast.BinaryExpr) bool {
	tv, ok := pass.Info.Types[e]
	if !ok || !isStringType(tv.Type) {
		return false
	}
	return tv.Value == nil // constant-folded concatenations carry a value
}

// capturedVars returns the sorted names of variables the function
// literal references but does not declare — the captures that force the
// closure onto the heap.
func capturedVars(pass *Pass, lit *ast.FuncLit) []string {
	seen := make(map[string]bool)
	var names []string
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := pass.Info.Uses[id]
		v, ok := obj.(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		// Package-level variables are not captures.
		if v.Parent() == pass.Pkg.Scope() || v.Parent() == types.Universe {
			return true
		}
		// Declared inside the literal (params, results, locals)?
		if v.Pos() >= lit.Pos() && v.Pos() <= lit.End() {
			return true
		}
		if !seen[v.Name()] {
			seen[v.Name()] = true
			names = append(names, v.Name())
		}
		return true
	})
	sort.Strings(names)
	return names
}
