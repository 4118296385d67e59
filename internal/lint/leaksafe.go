// The leaksafe analyzer: the serving layer holds the process's
// long-lived resources — HTTP response bodies, goroutines, mutexes
// guarding job state — and each has a leak mode that no test reliably
// catches. An unclosed response body pins a connection until the
// transport times out; a goroutine with no stop signal outlives Drain
// and trips the race detector only when unlucky; a mutex held across a
// network round trip turns one slow remote into a server-wide stall.
// This analyzer makes the three disciplines machine-checked in
// internal/serve:
//
//  1. every *http.Response obtained in a function is either closed
//     there (resp.Body.Close(), deferred or not) or handed off — passed
//     to a call, returned, stored — for someone else to close;
//  2. every goroutine is launched with a lifecycle: its body (or named
//     callee) observes a context.Context, participates in a
//     sync.WaitGroup, or blocks on a channel (select / receive /
//     range), so something can end it and something can wait for it;
//  3. no mutex is held across an HTTP round trip — directly or through
//     any helper that carries an HTTPFact (a function that transitively
//     performs one).
//
// The HTTPFact is gathered module-wide, so a wrapper two packages away
// that hides an http.Client.Do is still visible at the locked call
// site.

package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LeakSafe enforces resource-lifecycle discipline in the serving layer.
var LeakSafe = &Analyzer{
	Name: "leaksafe",
	Doc: "in internal/serve: close every " +
		"http.Response body or hand it off, launch goroutines only with a " +
		"ctx/WaitGroup/channel lifecycle, and never hold a mutex across an " +
		"HTTP round trip (including through helpers, via HTTPFacts)",
	Packages:  []string{"internal/serve"},
	FactTypes: []Fact{(*HTTPFact)(nil)},
	Run:       runLeakSafe,
}

// HTTPFact marks a function that transitively performs an HTTP round
// trip — blocking network I/O wherever it is called from.
type HTTPFact struct {
	Source string // the blocking operation, e.g. "http.Client.Do"
	Path   string // witness call chain down to Source
}

// AFact marks HTTPFact as a fact type.
func (*HTTPFact) AFact() {}

// httpDirect classifies a callee as a direct HTTP round trip.
func httpDirect(f *types.Func) (string, bool) {
	if f == nil || f.Pkg() == nil {
		return "", false
	}
	switch named := methodRecvNamed(f); {
	case named != nil:
		obj := named.Obj()
		if obj == nil || obj.Pkg() == nil {
			return "", false
		}
		if obj.Pkg().Path() == "net/http" && obj.Name() == "Client" {
			switch f.Name() {
			case "Do", "Get", "Post", "PostForm", "Head":
				return "http.Client." + f.Name(), true
			}
		}
		if obj.Pkg().Path() == "net/http/httputil" && obj.Name() == "ReverseProxy" && f.Name() == "ServeHTTP" {
			return "httputil.ReverseProxy.ServeHTTP", true
		}
	case isPkgFunc(f, "net/http"):
		switch f.Name() {
		case "Get", "Post", "PostForm", "Head":
			return "http." + f.Name(), true
		}
	}
	return "", false
}

// gatherHTTPFacts exports an HTTPFact for every declared function that
// transitively performs an HTTP round trip.
func gatherHTTPFacts(pass *Pass, decls map[*types.Func]*ast.FuncDecl, edges map[*types.Func][]*types.Func) {
	seeds := make(map[*types.Func]reach)
	for f, fd := range decls {
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
			if src, ok := httpDirect(callee); ok {
				seeds[f] = reach{Source: src, Path: src}
				return true
			}
			if callee.Pkg() != pass.Pkg {
				var fact HTTPFact
				if pass.ImportObjectFact(callee, &fact) {
					seeds[f] = reach{Source: fact.Source, Path: chainTo(callee, reach{fact.Source, fact.Path})}
				}
			}
			return true
		})
	}
	for f, r := range propagateReach(decls, edges, seeds) {
		pass.ExportObjectFact(f, &HTTPFact{Source: r.Source, Path: r.Path})
	}
}

func runLeakSafe(pass *Pass) error {
	decls := localFuncs(pass)
	edges := localEdges(pass, decls)
	gatherHTTPFacts(pass, decls, edges)
	if !pass.report {
		return nil // fact-gathering pass outside serve
	}
	funcs := make([]*types.Func, 0, len(decls))
	for f := range decls {
		funcs = append(funcs, f)
	}
	sort.Slice(funcs, func(i, j int) bool { return funcs[i].Pos() < funcs[j].Pos() })
	for _, f := range funcs {
		fd := decls[f]
		checkRespBodies(pass, fd)
		checkGoStmts(pass, fd, decls)
		checkLockedScope(pass, fd.Body, fd.End())
	}
	return nil
}

// --- check 1: response bodies ---

// isHTTPResponsePtr reports whether t is *net/http.Response.
func isHTTPResponsePtr(t types.Type) bool {
	p, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := p.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "net/http" && obj.Name() == "Response"
}

// checkRespBodies flags *http.Response variables that are neither
// closed in the function nor handed off (returned, passed to a call,
// reassigned, stored) for someone else to close.
func checkRespBodies(pass *Pass, fd *ast.FuncDecl) {
	type respUse struct {
		pos             token.Pos
		closed, escaped bool
	}
	vars := make(map[*types.Var]*respUse)
	order := []*types.Var{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for _, lhs := range as.Lhs {
			id, ok := ast.Unparen(lhs).(*ast.Ident)
			if !ok {
				continue
			}
			v, ok := pass.Info.ObjectOf(id).(*types.Var)
			if !ok || !isHTTPResponsePtr(v.Type()) {
				continue
			}
			if _, seen := vars[v]; !seen {
				vars[v] = &respUse{pos: as.Pos()}
				order = append(order, v)
			}
		}
		return true
	})
	if len(vars) == 0 {
		return
	}
	safeMark := func(e ast.Expr) {
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok {
			return
		}
		if v, ok := pass.Info.ObjectOf(id).(*types.Var); ok {
			if u, tracked := vars[v]; tracked {
				u.escaped = true
			}
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			// resp.Body.Close()
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Close" {
				if body, ok := sel.X.(*ast.SelectorExpr); ok && body.Sel.Name == "Body" {
					if id, ok := ast.Unparen(body.X).(*ast.Ident); ok {
						if v, ok := pass.Info.ObjectOf(id).(*types.Var); ok {
							if u, tracked := vars[v]; tracked {
								u.closed = true
							}
						}
					}
				}
			}
			for _, arg := range n.Args {
				safeMark(arg)
			}
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				safeMark(res)
			}
		case *ast.AssignStmt:
			for _, rhs := range n.Rhs {
				safeMark(rhs)
			}
		case *ast.SendStmt:
			safeMark(n.Value)
		case *ast.CompositeLit:
			for _, el := range n.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					safeMark(kv.Value)
				} else {
					safeMark(el)
				}
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				safeMark(n.X)
			}
		}
		return true
	})
	for _, v := range order {
		u := vars[v]
		if !u.closed && !u.escaped {
			pass.Reportf(u.pos,
				"http.Response body is never closed in %s: defer %s.Body.Close() after the error check (or hand the response off to a closer) so the connection returns to the pool",
				fd.Name.Name, v.Name())
		}
	}
}

// --- check 2: goroutine lifecycles ---

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

// --- check 3: mutex held across HTTP ---

// mutexEvent is one Lock/Unlock call at function scope.
type mutexEvent struct {
	pos      token.Pos
	key      string // identity of the locked expression ("s.mu")
	text     string
	lock     bool
	deferred bool
}

// lockSpan is a source range during which a mutex is held.
type lockSpan struct {
	lo, hi token.Pos
	text   string
}

// checkLockedScope analyzes one function-level scope: computes the
// spans during which a mutex is held and flags any HTTP round trip
// (direct or via HTTPFact) inside one. Function literals are separate
// scopes — they execute under their own locks — and goroutine bodies
// do not inherit the launcher's lock, so both are walked independently.
func checkLockedScope(pass *Pass, body *ast.BlockStmt, end token.Pos) {
	spans := mutexSpans(pass, body, end)
	if len(spans) > 0 {
		walkSameScope(body, func(n ast.Node) {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return
			}
			callee := funcFor(pass.Info, call.Fun)
			desc := ""
			if src, ok := httpDirect(callee); ok {
				desc = src
			} else if callee != nil && callee.Pkg() != nil {
				var fact HTTPFact
				if pass.ImportObjectFact(callee, &fact) {
					desc = fmt.Sprintf("%s via %s", fact.Source, chainTo(callee, reach{fact.Source, fact.Path}))
				}
			}
			if desc == "" {
				return
			}
			for _, s := range spans {
				if call.Pos() > s.lo && call.Pos() < s.hi {
					pass.Reportf(call.Pos(),
						"HTTP round trip (%s) while holding %s: a slow peer stalls every caller of this lock — release it before blocking on the network",
						desc, s.text)
					break
				}
			}
		})
	}
	// Recurse into nested function literals as their own scopes.
	ast.Inspect(body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok && lit.Body != body {
			checkLockedScope(pass, lit.Body, lit.End())
			return false
		}
		return true
	})
}

// walkSameScope visits nodes of one function scope, skipping function
// literals and goroutine statements (their bodies run under different
// locking contexts).
func walkSameScope(body *ast.BlockStmt, fn func(ast.Node)) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.FuncLit, *ast.GoStmt:
			return false
		}
		fn(n)
		return true
	})
}

// mutexSpans pairs Lock/Unlock events on the same expression, in source
// order, into held spans. A deferred Unlock — or a Lock with no Unlock
// in this scope — holds to the end of the function.
func mutexSpans(pass *Pass, body *ast.BlockStmt, end token.Pos) []lockSpan {
	var events []mutexEvent
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit, *ast.GoStmt:
			return false
		case *ast.DeferStmt:
			if ev, ok := mutexEventFor(pass, n.Call); ok {
				ev.deferred = true
				events = append(events, ev)
				return false
			}
			return true
		case *ast.CallExpr:
			if ev, ok := mutexEventFor(pass, n); ok {
				events = append(events, ev)
			}
		}
		return true
	})
	sort.Slice(events, func(i, j int) bool { return events[i].pos < events[j].pos })

	open := make(map[string][]mutexEvent) // key -> open Lock stack
	var spans []lockSpan
	for _, ev := range events {
		if ev.lock {
			open[ev.key] = append(open[ev.key], ev)
			continue
		}
		stack := open[ev.key]
		if len(stack) == 0 {
			continue // unlock of a lock taken elsewhere (helper-locked); nothing to span here
		}
		lock := stack[len(stack)-1]
		open[ev.key] = stack[:len(stack)-1]
		hi := ev.pos
		if ev.deferred {
			hi = end
		}
		spans = append(spans, lockSpan{lo: lock.pos, hi: hi, text: lock.text})
	}
	for _, stack := range open {
		for _, lock := range stack {
			spans = append(spans, lockSpan{lo: lock.pos, hi: end, text: lock.text})
		}
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].lo < spans[j].lo })
	return spans
}

// mutexEventFor classifies a call as Lock/Unlock/RLock/RUnlock on a
// sync.Mutex or sync.RWMutex and computes the locked expression's
// identity key.
func mutexEventFor(pass *Pass, call *ast.CallExpr) (mutexEvent, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return mutexEvent{}, false
	}
	var lock bool
	switch sel.Sel.Name {
	case "Lock", "RLock":
		lock = true
	case "Unlock", "RUnlock":
		lock = false
	default:
		return mutexEvent{}, false
	}
	f, ok := pass.Info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return mutexEvent{}, false
	}
	named := methodRecvNamed(f)
	if named == nil {
		return mutexEvent{}, false
	}
	obj := named.Obj()
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "sync" || (obj.Name() != "Mutex" && obj.Name() != "RWMutex") {
		return mutexEvent{}, false
	}
	key, text := exprIdentity(pass, sel.X)
	return mutexEvent{pos: call.Pos(), key: key, text: text, lock: lock}, true
}

// exprIdentity renders a selector chain ("s.mu") as both a
// semantic identity key (resolved object chain, so aliasing through
// renamed receivers still matches within a function) and a display
// string. Unresolvable links get position-unique keys so they never
// falsely match.
func exprIdentity(pass *Pass, expr ast.Expr) (key, text string) {
	var keys, names []string
	for {
		switch e := ast.Unparen(expr).(type) {
		case *ast.SelectorExpr:
			keys = append(keys, objKey(pass, e.Sel))
			names = append(names, e.Sel.Name)
			expr = e.X
		case *ast.Ident:
			keys = append(keys, objKey(pass, e))
			names = append(names, e.Name)
			reverse(keys)
			reverse(names)
			return strings.Join(keys, "."), strings.Join(names, ".")
		default:
			keys = append(keys, fmt.Sprintf("pos%d", expr.Pos()))
			names = append(names, "…")
			reverse(keys)
			reverse(names)
			return strings.Join(keys, "."), strings.Join(names, ".")
		}
	}
}

func objKey(pass *Pass, id *ast.Ident) string {
	if obj := pass.Info.ObjectOf(id); obj != nil {
		return fmt.Sprintf("%p", obj)
	}
	return fmt.Sprintf("pos%d", id.Pos())
}

func reverse(s []string) {
	for i, j := 0, len(s)-1; i < j; i, j = i+1, j-1 {
		s[i], s[j] = s[j], s[i]
	}
}
