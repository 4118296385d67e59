// Shared transitive-reachability machinery for the fact-based
// analyzers. simdeterm, hotalloc, and statshandle all answer
// the same question — "does this function, through any chain of calls,
// reach a forbidden operation?" — so they share one representation (a
// reach: the operation plus a witness call chain) and one propagation
// algorithm: seed functions with direct uses and with facts imported
// from already-analyzed dependency packages, then run the seeds to a
// fixpoint over the package-local static call graph.

package lint

import (
	"go/ast"
	"go/types"
	"sort"
)

// A reach records that a function transitively performs some operation:
// Source names the operation ("time.Now", "fmt.Sprintf", ...), Path is
// the witness call chain from the function's first callee down to the
// source ("graph.jitter → time.Now"; just "time.Now" for a direct use).
type reach struct {
	Source string
	Path   string
}

// localFuncs maps every function and method declared in the package to
// its declaration.
func localFuncs(pass *Pass) map[*types.Func]*ast.FuncDecl {
	decls := make(map[*types.Func]*ast.FuncDecl)
	for _, file := range pass.Files {
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if f, ok := pass.Info.Defs[fd.Name].(*types.Func); ok {
				decls[f] = fd
			}
		}
	}
	return decls
}

// localEdges returns the static package-local call graph over decls:
// for each declared function, the declared functions it calls directly.
func localEdges(pass *Pass, decls map[*types.Func]*ast.FuncDecl) map[*types.Func][]*types.Func {
	edges := make(map[*types.Func][]*types.Func)
	for f, fd := range decls {
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if callee := funcFor(pass.Info, call.Fun); callee != nil {
				if _, local := decls[callee]; local {
					edges[f] = append(edges[f], callee)
				}
			}
			return true
		})
	}
	return edges
}

// propagateReach runs seeds to a fixpoint over the local call graph: a
// function with no reach of its own inherits its first reaching
// callee's, with the callee prepended to the witness path. Iteration is
// position-ordered so the resulting witness chains (and therefore
// diagnostics) are deterministic.
func propagateReach(decls map[*types.Func]*ast.FuncDecl, edges map[*types.Func][]*types.Func, seeds map[*types.Func]reach) map[*types.Func]reach {
	funcs := make([]*types.Func, 0, len(decls))
	for f := range decls {
		funcs = append(funcs, f)
	}
	sort.Slice(funcs, func(i, j int) bool { return funcs[i].Pos() < funcs[j].Pos() })

	out := make(map[*types.Func]reach, len(seeds))
	for f, r := range seeds {
		out[f] = r
	}
	for changed := true; changed; {
		changed = false
		for _, f := range funcs {
			if _, done := out[f]; done {
				continue
			}
			for _, callee := range edges[f] {
				if r, ok := out[callee]; ok {
					out[f] = reach{Source: r.Source, Path: qualName(callee) + " → " + r.Path}
					changed = true
					break
				}
			}
		}
	}
	return out
}

// qualName renders a function for witness chains: pkg.Func, or
// pkg.Type.Method for methods.
func qualName(f *types.Func) string {
	name := f.Name()
	if recv := methodRecvNamed(f); recv != nil && recv.Obj() != nil {
		name = recv.Obj().Name() + "." + name
	}
	if f.Pkg() != nil {
		name = f.Pkg().Name() + "." + name
	}
	return name
}

// chainTo renders the full witness for a diagnostic about a call to
// callee: the callee followed by its stored path.
func chainTo(callee *types.Func, r reach) string {
	return qualName(callee) + " → " + r.Path
}
