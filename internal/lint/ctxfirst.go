// The ctxfirst analyzer: PR 1 made cancellation first-class — every
// long-running public entry point threads a context.Context from the
// API surface down into the event loop. This analyzer keeps new Run*
// entry points from regressing to uncancellable signatures.

package lint

import (
	"go/ast"
	"strings"
)

// CtxFirst requires exported Run* entry points in the public API and
// long-running subsystems to take a context.Context as their first
// parameter. Documented compatibility wrappers that delegate to a
// Context-taking variant carry //peilint:allow ctxfirst waivers.
var CtxFirst = &Analyzer{
	Name: "ctxfirst",
	Doc: "exported Run* entry points must take a context.Context first " +
		"parameter so callers can cancel long simulations; compat wrappers " +
		"that delegate to a Context variant are waived explicitly",
	Packages: []string{
		"pei",
		"internal/harness",
		"internal/machine",
	},
	Run: runCtxFirst,
}

func runCtxFirst(pass *Pass) error {
	for _, file := range pass.Files {
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || !fd.Name.IsExported() || !strings.HasPrefix(fd.Name.Name, "Run") {
				continue
			}
			// Methods on unexported types are not public entry points.
			if fd.Recv != nil && !receiverExported(fd) {
				continue
			}
			params := fd.Type.Params
			if params != nil && len(params.List) > 0 {
				first := params.List[0]
				if t := pass.Info.TypeOf(first.Type); t != nil && isContextContext(t) {
					// A grouped first field like (ctx, other context.Context)
					// still puts a Context first; fine either way.
					continue
				}
			}
			pass.Reportf(fd.Name.Pos(),
				"exported %s does not take a context.Context first parameter: long-running entry points must be cancellable (add ctx, or waive as a compat wrapper delegating to a Context variant)",
				fd.Name.Name)
		}
	}
	return nil
}

// receiverExported reports whether the method's receiver base type name
// is exported.
func receiverExported(fd *ast.FuncDecl) bool {
	if len(fd.Recv.List) == 0 {
		return false
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	// Strip type parameters on generic receivers.
	switch e := t.(type) {
	case *ast.IndexExpr:
		t = e.X
	case *ast.IndexListExpr:
		t = e.X
	}
	id, ok := t.(*ast.Ident)
	return ok && id.IsExported()
}
