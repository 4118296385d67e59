// The leaksafe analyzer: the serving layer owns the process's
// long-lived goroutines (the worker pool, the drain watcher), and a
// goroutine with no stop signal outlives Drain and trips the race
// detector only when unlucky — a leak mode no test reliably catches.
// This analyzer makes the discipline machine-checked in internal/serve:
// every goroutine is launched with a lifecycle. Its body (or named
// callee) observes a context.Context, participates in a
// sync.WaitGroup, or blocks on a channel (select / receive / range),
// so something can end it and something can wait for it.

package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// LeakSafe enforces goroutine-lifecycle discipline in the serving layer.
var LeakSafe = &Analyzer{
	Name: "leaksafe",
	Doc: "in internal/serve: launch goroutines only with a " +
		"ctx/WaitGroup/channel lifecycle, so Drain/Close can end them and tests can wait for them",
	Packages: []string{"internal/serve"},
	Run:      runLeakSafe,
}

func runLeakSafe(pass *Pass) error {
	decls := localFuncs(pass)
	funcs := make([]*types.Func, 0, len(decls))
	for f := range decls {
		funcs = append(funcs, f)
	}
	sort.Slice(funcs, func(i, j int) bool { return funcs[i].Pos() < funcs[j].Pos() })
	for _, f := range funcs {
		checkGoStmts(pass, decls[f], decls)
	}
	return nil
}

// checkGoStmts flags `go` statements whose goroutine has no lifecycle:
// nothing can stop it and nothing can wait for it.
func checkGoStmts(pass *Pass, fd *ast.FuncDecl, decls map[*types.Func]*ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		gs, ok := n.(*ast.GoStmt)
		if !ok {
			return true
		}
		if goroutineHasLifecycle(pass, gs.Call, decls) {
			return true
		}
		pass.Reportf(gs.Pos(),
			"goroutine launched without a lifecycle: give it a ctx, a WaitGroup, or a stop channel so Drain/Close can end it and tests can wait for it")
		return true
	})
}

func goroutineHasLifecycle(pass *Pass, call *ast.CallExpr, decls map[*types.Func]*ast.FuncDecl) bool {
	// ctx passed as an argument counts regardless of the callee.
	for _, arg := range call.Args {
		if t := pass.Info.TypeOf(arg); t != nil && isContextContext(t) {
			return true
		}
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.FuncLit:
		return scopeHasLifecycle(pass, fun.Body)
	default:
		f := funcFor(pass.Info, fun)
		if f == nil {
			return true // unresolvable (func-typed field etc.): give the benefit of the doubt
		}
		if sig, ok := f.Type().(*types.Signature); ok {
			for i := 0; i < sig.Params().Len(); i++ {
				if isContextContext(sig.Params().At(i).Type()) {
					return true
				}
			}
		}
		if fd, ok := decls[f]; ok {
			return scopeHasLifecycle(pass, fd.Body)
		}
		return false
	}
}

// scopeHasLifecycle reports whether a goroutine body observes a
// context, a WaitGroup, or a channel.
func scopeHasLifecycle(pass *Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.SelectStmt:
			found = true
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				found = true
			}
		case *ast.RangeStmt:
			if t := pass.Info.TypeOf(n.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					found = true
				}
			}
		case *ast.CallExpr:
			if f := funcFor(pass.Info, n.Fun); f != nil {
				if named := methodRecvNamed(f); named != nil {
					obj := named.Obj()
					if obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == "WaitGroup" &&
						(f.Name() == "Done" || f.Name() == "Wait") {
						found = true
					}
				}
			}
		case *ast.Ident:
			if v, ok := pass.Info.Uses[n].(*types.Var); ok && isContextContext(v.Type()) {
				found = true
			}
		}
		return !found
	})
	return found
}
