// The simdeterm analyzer: simulator code must be a pure function of its
// configuration and seeds. Wall-clock time, the seedless global RNG,
// and order-sensitive map iteration are the three ways nondeterminism
// has historically crept into discrete-event simulators, and any one of
// them breaks the byte-identical golden tables the harness pins.

package lint

import (
	"go/ast"
	"go/types"
)

// simPackages is the determinism perimeter: every package whose code
// runs inside (or feeds) a simulation.
var simPackages = []string{
	"internal/sim",
	"internal/cache",
	"internal/dram",
	"internal/hmc",
	"internal/pim",
	"internal/cpu",
	"internal/vm",
	"internal/machine",
	"internal/memlayout",
	"internal/stats",
	"internal/workloads",
}

// SimDeterm forbids nondeterminism sources in simulator packages.
var SimDeterm = &Analyzer{
	Name: "simdeterm",
	Doc: "forbid wall-clock time, the seedless global math/rand RNG, and " +
		"order-sensitive map iteration in simulator packages — directly or " +
		"through any chain of calls into helper packages; simulated time " +
		"comes from sim.Kernel cycles and every RNG must be rand.New with a " +
		"recorded seed so runs are reproducible bit for bit",
	Packages:  simPackages,
	FactTypes: []Fact{(*NondetFact)(nil)},
	Run:       runSimDeterm,
}

// NondetFact marks a function that transitively reaches a wall-clock or
// seedless-RNG source. Exported on every module function so that a
// simulator package calling a helper two imports away is caught at the
// call site, with the witness chain in the message.
type NondetFact struct {
	Source string // the forbidden operation, e.g. "time.Now"
	Path   string // witness call chain down to Source
}

// AFact marks NondetFact as a fact type.
func (*NondetFact) AFact() {}

// globalRandAllowed lists math/rand package-level functions that do not
// touch the global RNG: constructors for explicitly seeded generators.
var globalRandAllowed = map[string]bool{
	"New":       true,
	"NewSource": true,
	"NewZipf":   true, // takes a *Rand; seeding is the caller's
	// math/rand/v2 constructors.
	"NewPCG":     true,
	"NewChaCha8": true,
}

func runSimDeterm(pass *Pass) error {
	gatherNondetFacts(pass)
	for _, file := range pass.Files {
		// A call's Fun selector is handled by checkNondetCall; remember
		// those nodes so checkNondetRef only sees true value references
		// (callbacks, injectable seams) — a call would otherwise report
		// twice.
		calleePos := make(map[ast.Expr]bool)
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				checkForbiddenRef(pass, n)
				if !calleePos[n] {
					checkNondetRef(pass, n)
				}
			case *ast.RangeStmt:
				checkMapRange(pass, file, n)
			case *ast.CallExpr:
				calleePos[ast.Unparen(n.Fun)] = true
				checkNondetCall(pass, n)
			}
			return true
		})
	}
	return nil
}

// nondetSource classifies a function as a direct nondeterminism source:
// wall-clock reads and the seedless global RNG.
func nondetSource(f *types.Func) (string, bool) {
	if f == nil || f.Pkg() == nil {
		return "", false
	}
	switch f.Pkg().Path() {
	case "time":
		if f.Name() == "Now" || f.Name() == "Since" {
			return "time." + f.Name(), true
		}
	case "math/rand", "math/rand/v2":
		if isPkgFunc(f, f.Pkg().Path()) && !globalRandAllowed[f.Name()] {
			return f.Pkg().Name() + "." + f.Name(), true
		}
	}
	return "", false
}

// gatherNondetFacts computes, for every function declared in the
// package, whether it transitively reaches a nondeterminism source —
// directly, through package-local calls, or through calls into
// already-analyzed module packages (their NondetFacts) — and exports a
// NondetFact for each one that does.
func gatherNondetFacts(pass *Pass) {
	decls := localFuncs(pass)
	edges := localEdges(pass, decls)
	seeds := make(map[*types.Func]reach)
	for f, fd := range decls {
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if _, seeded := seeds[f]; seeded {
				return false
			}
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if callee, ok := pass.Info.Uses[n.Sel].(*types.Func); ok {
					if src, bad := nondetSource(callee); bad {
						seeds[f] = reach{Source: src, Path: src}
					}
				}
			case *ast.CallExpr:
				callee := funcFor(pass.Info, n.Fun)
				if callee == nil || callee.Pkg() == pass.Pkg {
					return true
				}
				var fact NondetFact
				if pass.ImportObjectFact(callee, &fact) {
					seeds[f] = reach{Source: fact.Source, Path: chainTo(callee, reach{fact.Source, fact.Path})}
				}
			}
			return true
		})
	}
	for f, r := range propagateReach(decls, edges, seeds) {
		pass.ExportObjectFact(f, &NondetFact{Source: r.Source, Path: r.Path})
	}
}

// checkNondetCall flags calls from simulator code into module functions
// outside the determinism perimeter that transitively reach a
// nondeterminism source. Calls within the perimeter are not re-flagged
// here: the source itself already gets a direct diagnostic in its own
// package.
func checkNondetCall(pass *Pass, call *ast.CallExpr) {
	callee := funcFor(pass.Info, call.Fun)
	if callee == nil || callee.Pkg() == nil || callee.Pkg() == pass.Pkg || pass.InScope(callee.Pkg()) {
		return
	}
	var fact NondetFact
	if !pass.ImportObjectFact(callee, &fact) {
		return
	}
	pass.Reportf(call.Pos(),
		"call to %s reaches %s (%s): simulator code must stay deterministic through every helper package it calls",
		qualName(callee), fact.Source, chainTo(callee, reach{fact.Source, fact.Path}))
}

// checkNondetRef flags value references (not calls) to out-of-scope
// module functions that transitively reach a nondeterminism source:
// storing such a function in a callback field smuggles the wall clock
// into the perimeter just as surely as calling it, and func-valued
// seams are otherwise invisible to the call-graph checks.
func checkNondetRef(pass *Pass, sel *ast.SelectorExpr) {
	f, ok := pass.Info.Uses[sel.Sel].(*types.Func)
	if !ok || f.Pkg() == nil || f.Pkg() == pass.Pkg || pass.InScope(f.Pkg()) {
		return
	}
	// No module-locality gate needed: facts are only ever exported on
	// module-local declarations, so stdlib references never match here
	// (checkForbiddenRef covers the direct stdlib sources).
	var fact NondetFact
	if !pass.ImportObjectFact(f, &fact) {
		return
	}
	pass.Reportf(sel.Pos(),
		"reference to %s reaches %s (%s): storing it as a callback pulls nondeterminism inside the simulator perimeter — inject a deterministic implementation or waive with a reason",
		qualName(f), fact.Source, chainTo(f, reach{fact.Source, fact.Path}))
}

// checkForbiddenRef flags any reference (call or value use, so the
// injectable `o.now = time.Now` pattern is caught too) to wall-clock
// time or the global math/rand RNG.
func checkForbiddenRef(pass *Pass, sel *ast.SelectorExpr) {
	f, ok := pass.Info.Uses[sel.Sel].(*types.Func)
	if !ok || f.Pkg() == nil {
		return
	}
	switch f.Pkg().Path() {
	case "time":
		if f.Name() == "Now" || f.Name() == "Since" {
			pass.Reportf(sel.Pos(),
				"time.%s in simulator code: simulated time must come from sim.Kernel cycles, not the wall clock",
				f.Name())
		}
	case "math/rand", "math/rand/v2":
		if isPkgFunc(f, f.Pkg().Path()) && !globalRandAllowed[f.Name()] {
			pass.Reportf(sel.Pos(),
				"%s.%s uses the seedless global RNG: use rand.New(rand.NewSource(seed)) with a recorded seed",
				f.Pkg().Name(), f.Name())
		}
	}
}

// checkMapRange flags `range` over a map unless the loop body is
// provably order-insensitive: every statement either appends to a slice
// that is sorted later in the same block, assigns through a map index
// (commutative build), or accumulates with ++/--/+= (commutative fold).
func checkMapRange(pass *Pass, file *ast.File, rs *ast.RangeStmt) {
	t := pass.Info.TypeOf(rs.X)
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	if mapRangeIsBenign(pass, file, rs) {
		return
	}
	pass.Reportf(rs.Pos(),
		"iteration over a map has nondeterministic order: collect and sort the keys first (or waive with //peilint:allow simdeterm <reason> if order provably cannot reach scheduling, stats, or output)")
}

func mapRangeIsBenign(pass *Pass, file *ast.File, rs *ast.RangeStmt) bool {
	// Objects of slices appended to inside the body; each must be
	// sorted after the loop for the pattern to count as benign.
	var appendTargets []types.Object
	for _, stmt := range rs.Body.List {
		switch s := stmt.(type) {
		case *ast.IncDecStmt:
			// Commutative counter.
		case *ast.AssignStmt:
			if !benignAssign(pass, s, &appendTargets) {
				return false
			}
		default:
			return false
		}
	}
	if len(appendTargets) == 0 {
		return true
	}
	rest := stmtsAfter(file, rs)
	if rest == nil {
		return false
	}
	for _, target := range appendTargets {
		if !sortedLater(pass, rest, target) {
			return false
		}
	}
	return true
}

// benignAssign accepts `s = append(s, ...)` (recording s), assignments
// whose targets are all map index expressions, and `x += v` / `x -= v`
// on numeric or slice-free commutative accumulators.
func benignAssign(pass *Pass, s *ast.AssignStmt, appendTargets *[]types.Object) bool {
	switch s.Tok.String() {
	case "+=", "-=", "|=", "&=", "^=":
		// Commutative-fold accumulation (strings are caught separately
		// by hotalloc where it matters; += on a string is still
		// order-sensitive, so only numeric types pass).
		t := pass.Info.TypeOf(s.Lhs[0])
		if t == nil {
			return false
		}
		basic, ok := t.Underlying().(*types.Basic)
		return ok && basic.Info()&types.IsNumeric != 0
	case "=", ":=":
	default:
		return false
	}
	// append-to-slice form: single `s = append(s, ...)`.
	if len(s.Lhs) == 1 && len(s.Rhs) == 1 {
		if call, ok := s.Rhs[0].(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "append" {
				if _, isBuiltin := pass.Info.Uses[id].(*types.Builtin); isBuiltin {
					if lhs, ok := s.Lhs[0].(*ast.Ident); ok {
						if obj := pass.Info.ObjectOf(lhs); obj != nil {
							*appendTargets = append(*appendTargets, obj)
							return true
						}
					}
				}
			}
		}
	}
	// Map-build form: every target is an index into a map.
	for _, lhs := range s.Lhs {
		idx, ok := ast.Unparen(lhs).(*ast.IndexExpr)
		if !ok {
			return false
		}
		t := pass.Info.TypeOf(idx.X)
		if t == nil {
			return false
		}
		if _, isMap := t.Underlying().(*types.Map); !isMap {
			return false
		}
	}
	return true
}

// stmtsAfter returns the statements following stmt in its directly
// enclosing block, or nil if the block cannot be found.
func stmtsAfter(file *ast.File, stmt ast.Stmt) []ast.Stmt {
	var rest []ast.Stmt
	ast.Inspect(file, func(n ast.Node) bool {
		block, ok := n.(*ast.BlockStmt)
		if !ok {
			return true
		}
		for i, s := range block.List {
			if s == stmt {
				rest = block.List[i+1:]
				return false
			}
		}
		return true
	})
	return rest
}

// sortedLater reports whether a sort.* or slices.Sort* call taking
// target as its first argument appears in stmts.
func sortedLater(pass *Pass, stmts []ast.Stmt, target types.Object) bool {
	found := false
	for _, stmt := range stmts {
		ast.Inspect(stmt, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || found || len(call.Args) == 0 {
				return true
			}
			f := funcFor(pass.Info, call.Fun)
			if f == nil || f.Pkg() == nil {
				return true
			}
			pkg := f.Pkg().Path()
			if pkg != "sort" && pkg != "slices" {
				return true
			}
			if id, ok := ast.Unparen(call.Args[0]).(*ast.Ident); ok {
				if pass.Info.ObjectOf(id) == target {
					found = true
					return false
				}
			}
			return true
		})
	}
	return found
}
