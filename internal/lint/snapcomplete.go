// The snapcomplete analyzer: checkpoint/warm-start correctness
// (DESIGN.md §13) rests on hand-written Snap methods, and the failure
// mode is silent — a field added to a component struct but missed in
// its Snap method corrupts warm starts and any rollback built on them
// (the LazyPIM plan in ROADMAP.md) without failing a single test,
// because the format's section tags only catch *misaligned* layouts,
// not *incomplete* ones.
//
// The analyzer closes that gap structurally: for every type with a
// Snap method, every mutable field — one assigned anywhere in the
// package outside construction (New*/init) and outside Snap itself —
// must be referenced by Snap. One Snap method codes both directions,
// so a reference there both saves and restores the field. Fields that
// are deliberately not serialized — pools (recycling capacity, not
// state), derived caches rebuilt on first use, queues that quiescence
// guarantees empty — carry `//peilint:allow snapcomplete <reason>` on
// their declaration line, so every exemption is written down next to
// the field it exempts.
//
// Known imprecision, chosen deliberately: mutations through aliases
// (p := &v.f; p.x = 1) and through methods on the field's type are not
// seen, so such fields are only checked if also assigned directly.
// Fields can be over-matched too — a reference to the field on *any*
// instance counts — but Snap methods code their own receiver in
// practice, so this has not produced false negatives in the tree.

package lint

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// SnapComplete enforces snapshot coverage for every type with a Snap
// method.
var SnapComplete = &Analyzer{
	Name: "snapcomplete",
	Doc: "every mutable field (assigned outside New*/init) of a type " +
		"with a Snap method must be referenced by Snap; deliberately " +
		"unserialized fields (pools, derived caches, quiescence-empty " +
		"queues) carry //peilint:allow snapcomplete on their declaration",
	Packages: nil, // any package that snapshots is covered
	Run:      runSnapComplete,
}

func runSnapComplete(pass *Pass) error {
	snaps := collectSnapMethods(pass)
	if len(snaps) == 0 {
		return nil
	}
	mutations := collectFieldMutations(pass)
	decls := localFuncs(pass)
	edges := localEdges(pass, decls)

	// Deterministic order: by type position.
	named := make([]*types.Named, 0, len(snaps))
	for n := range snaps {
		named = append(named, n)
	}
	sort.Slice(named, func(i, j int) bool { return named[i].Obj().Pos() < named[j].Obj().Pos() })

	for _, n := range named {
		st, ok := n.Underlying().(*types.Struct)
		if !ok {
			continue
		}
		inSnap := fieldsReferenced(pass, snaps[n], st, decls, edges)
		for i := 0; i < st.NumFields(); i++ {
			field := st.Field(i)
			mutator, mutable := mutations[field]
			if mutable && !inSnap[field] {
				pass.Reportf(field.Pos(),
					"mutable field %s.%s (assigned in %s) is not referenced by Snap: a warm start would silently lose it — code it or waive with //peilint:allow snapcomplete <reason>",
					n.Obj().Name(), field.Name(), mutator)
			}
		}
	}
	return nil
}

// collectSnapMethods finds every named type in the package with a Snap
// method (single-parameter, so unrelated same-named methods don't
// trigger).
func collectSnapMethods(pass *Pass) map[*types.Named]*ast.FuncDecl {
	snaps := make(map[*types.Named]*ast.FuncDecl)
	for _, file := range pass.Files {
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Body == nil || fd.Name.Name != "Snap" {
				continue
			}
			if fd.Type.Params == nil || len(fd.Type.Params.List) != 1 {
				continue
			}
			f, ok := pass.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			if named := methodRecvNamed(f); named != nil && named.Obj().Pkg() == pass.Pkg {
				snaps[named] = fd
			}
		}
	}
	return snaps
}

// collectFieldMutations maps every struct field assigned anywhere in
// the package — outside construction (New*, init) and outside Snap,
// which assigns fields when it decodes — to the name of one function that assigns it. Assigning
// through an index or a nested selector marks the outer field too:
// v.lines[i].lru = x mutates the contents of lines.
func collectFieldMutations(pass *Pass) map[*types.Var]string {
	mutations := make(map[*types.Var]string)
	for _, file := range pass.Files {
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			name := fd.Name.Name
			if strings.HasPrefix(strings.ToLower(name), "new") || name == "init" || name == "Snap" {
				continue
			}
			label := name
			if fd.Recv != nil {
				if f, ok := pass.Info.Defs[fd.Name].(*types.Func); ok {
					label = qualName(f)
				}
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						markFieldChain(pass, lhs, label, mutations)
					}
				case *ast.IncDecStmt:
					markFieldChain(pass, n.X, label, mutations)
				}
				return true
			})
		}
	}
	return mutations
}

// markFieldChain records every struct field along an lvalue's selector
// chain as mutated by label.
func markFieldChain(pass *Pass, expr ast.Expr, label string, mutations map[*types.Var]string) {
	for {
		switch e := ast.Unparen(expr).(type) {
		case *ast.SelectorExpr:
			if v, ok := pass.Info.Uses[e.Sel].(*types.Var); ok && v.IsField() {
				if _, seen := mutations[v]; !seen {
					mutations[v] = label
				}
			}
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.StarExpr:
			expr = e.X
		default:
			return
		}
	}
}

// fieldsReferenced returns the fields of st that the Snap method
// references, read or written; quiescence checks legitimately read a
// field without serializing it (those fields are waived, not
// invisible). References propagate through package-local callees: a
// Snap that rebuilds counters via Set → intern, or asserts quiescence
// via Pending(), has genuinely consulted the fields those helpers
// touch.
func fieldsReferenced(pass *Pass, fd *ast.FuncDecl, st *types.Struct, decls map[*types.Func]*ast.FuncDecl, edges map[*types.Func][]*types.Func) map[*types.Var]bool {
	own := make(map[*types.Var]bool, st.NumFields())
	for i := 0; i < st.NumFields(); i++ {
		own[st.Field(i)] = true
	}
	// BFS over the local call graph from the snapshot method itself.
	bodies := []*ast.FuncDecl{fd}
	if root, ok := pass.Info.Defs[fd.Name].(*types.Func); ok {
		seen := map[*types.Func]bool{root: true}
		queue := []*types.Func{root}
		for len(queue) > 0 {
			f := queue[0]
			queue = queue[1:]
			for _, callee := range edges[f] {
				if !seen[callee] {
					seen[callee] = true
					queue = append(queue, callee)
					if cd, ok := decls[callee]; ok {
						bodies = append(bodies, cd)
					}
				}
			}
		}
	}
	refs := make(map[*types.Var]bool)
	for _, body := range bodies {
		ast.Inspect(body.Body, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			if v, ok := pass.Info.Uses[id].(*types.Var); ok && v.IsField() && own[v] {
				refs[v] = true
			}
			return true
		})
	}
	return refs
}
