package lint

import (
	"go/ast"
	"go/types"
	"sort"
)

// CtxPollAnalyzer generalizes the exact-eval cancellation fix (PR 8): a
// request that hits a pathological query must stop burning its serving slot
// the moment its context is canceled, which requires every long walk on a
// request path to poll ctx within a bounded work budget (the tickCtx
// pattern: charge per element visited, check every N charges). The
// analyzer keeps the next evaluator from reintroducing slot-pinning.
//
// It builds the intra-module call graph (function values and interface
// dispatch are not followed; edges into package obs are cut as the
// telemetry boundary) and computes the closure reachable from the serving
// entry points: eval.ExactContext, eval.ApproxContext, eval.CountContext,
// and the serve handler methods (handle*). Within that closure, restricted to the
// serving packages (serve, eval, tier), it reports every for/range loop
// whose per-iteration work is unbounded — the body calls a module function
// that (transitively) loops — unless the iteration polls:
//
//   - the loop body calls tickCtx / checkCtx / pollCtx, or
//   - the loop body checks ctx directly (ctx.Err(), <-ctx.Done()), or
//   - the loop body calls a module function that transitively polls, or
//   - the enclosing function polls anywhere in its own body — the
//     post-charge idiom, where an enclosing loop ticks a work-proportional
//     budget after each inner scan (the exact evaluator's
//     `ev.tickCtx(len(next))` after its per-step child scans).
//
// Loops whose bodies only do straight-line work per iteration are exempt:
// the enclosing walk charges them through its own budget; calls into
// package obs are likewise ignored (the telemetry boundary — histogram
// bucket walks are constant-bounded). Loops that are bounded by
// construction (a capped replay, input capped by a request-body limit)
// carry a "//lint:ctxpoll <reason>" justification naming the bound.
var CtxPollAnalyzer = &Analyzer{
	Name:      "ctxpoll",
	Doc:       "unbounded per-iteration loop on a serving path without a ctx poll",
	Directive: "ctxpoll",
	Run:       runCtxPoll,
}

// ctxpollRoots are the package-level serving entry points, as (package
// name, function name) pairs; serve handler methods (handle*) are added by
// pattern.
var ctxpollRoots = [][2]string{
	{"eval", "ExactContext"},
	{"eval", "ApproxContext"},
	{"eval", "CountContext"},
}

// ctxpollPackages is the report scope: packages whose loops serve
// requests. Helper packages (query parsing, sketch lookups) are bounded by
// input size and are charged through their callers' budgets.
var ctxpollPackages = []string{"serve", "eval", "tier"}

// pollNames are the method/function names recognized as work-budget ctx
// polls.
var pollNames = map[string]bool{"tickCtx": true, "checkCtx": true, "pollCtx": true}

func runCtxPoll(p *Program) []Finding {
	decls := moduleFuncs(p)

	// Call edges, telemetry boundary cut. Closures are attributed to their
	// enclosing declaration, so a handler's inline goroutine or callback
	// inherits its reachability.
	for _, node := range decls {
		node.calls = nil
		ast.Inspect(node.decl, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := calleeOf(node.pkg, call)
			if callee == nil {
				return true
			}
			target, ok := decls[callee]
			if !ok || target.pkg.Name == "obs" {
				return true
			}
			node.calls = append(node.calls, callee)
			return true
		})
	}

	reachable := closureFrom(decls, func(obj *types.Func, node *funcNode) bool {
		for _, root := range ctxpollRoots {
			if node.pkg.Name == root[0] && obj.Name() == root[1] && isPackageLevel(obj) {
				return true
			}
		}
		if node.pkg.Name == "serve" && !isPackageLevel(obj) &&
			len(obj.Name()) > 6 && obj.Name()[:6] == "handle" {
			return true
		}
		return false
	})

	loopy := transitively(decls, func(node *funcNode) bool {
		found := false
		ast.Inspect(node.decl.Body, func(n ast.Node) bool {
			switch n.(type) {
			case *ast.ForStmt, *ast.RangeStmt:
				found = true
			}
			return !found
		})
		return found
	})
	polls := transitively(decls, func(node *funcNode) bool {
		return hasPollSite(node.pkg, node.decl.Body)
	})

	// Deterministic function order.
	var fns []*types.Func
	for obj := range reachable {
		fns = append(fns, obj)
	}
	sort.Slice(fns, func(i, j int) bool { return fns[i].Pos() < fns[j].Pos() })

	var out []Finding
	for _, obj := range fns {
		node := decls[obj]
		if !contains(ctxpollPackages, node.pkg.Name) {
			continue
		}
		if hasPollSite(node.pkg, node.decl.Body) {
			// The function participates in the tickCtx discipline itself;
			// trust its charge placement (post-charge siblings included).
			continue
		}
		qualified := node.pkg.Name + "." + obj.Name()
		ast.Inspect(node.decl.Body, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch n := n.(type) {
			case *ast.ForStmt:
				body = n.Body
			case *ast.RangeStmt:
				body = n.Body
			default:
				return true
			}
			unbounded, polled := classifyLoop(node.pkg, decls, body, loopy, polls)
			if unbounded && !polled {
				out = append(out, finding(p, n.Pos(),
					"loop in %s is reachable from a serving entry point and does unbounded per-iteration work without polling ctx; poll via the tickCtx pattern or justify the bound with //lint:ctxpoll", qualified))
			}
			return true
		})
	}
	return out
}

// classifyLoop inspects one loop body: unbounded when some direct call
// lands on a module function that transitively loops; polled when the body
// polls ctx directly or calls a function that transitively polls.
func classifyLoop(pkg *Package, decls map[*types.Func]*funcNode, body *ast.BlockStmt,
	loopy, polls map[*types.Func]bool) (unbounded, polled bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if isPollSite(pkg, call) {
			polled = true
			return true
		}
		callee := calleeOf(pkg, call)
		if callee == nil {
			return true
		}
		target, inModule := decls[callee]
		if !inModule || target.pkg.Name == "obs" {
			return true // telemetry boundary: bucket walks are constant-bounded
		}
		if loopy[callee] {
			unbounded = true
		}
		if polls[callee] {
			polled = true
		}
		return true
	})
	// A receive from ctx.Done() inside a select counts as a poll even
	// without a call: <-ctx.Done() is itself a CallExpr (Done), handled
	// above, so nothing extra is needed here.
	return unbounded, polled
}

// hasPollSite reports whether a body contains a direct ctx poll.
func hasPollSite(pkg *Package, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && isPollSite(pkg, call) {
			found = true
		}
		return !found
	})
	return found
}

// isPollSite reports whether a call checks for cancellation: a tickCtx-
// pattern budget poll, or Err/Done on a context.Context value.
func isPollSite(pkg *Package, call *ast.CallExpr) bool {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return pollNames[fun.Name]
	case *ast.SelectorExpr:
		if pollNames[fun.Sel.Name] {
			return true
		}
		if fun.Sel.Name != "Err" && fun.Sel.Name != "Done" {
			return false
		}
		tv, ok := pkg.Info.Types[fun.X]
		if !ok {
			return false
		}
		named, ok := tv.Type.(*types.Named)
		if !ok {
			return false
		}
		obj := named.Obj()
		return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
	}
	return false
}

// closureFrom BFS-computes the call closure of the decls whose isRoot
// predicate holds.
func closureFrom(decls map[*types.Func]*funcNode, isRoot func(*types.Func, *funcNode) bool) map[*types.Func]bool {
	reachable := make(map[*types.Func]bool)
	var work []*types.Func
	for obj, node := range decls {
		if isRoot(obj, node) {
			reachable[obj] = true
			work = append(work, obj)
		}
	}
	for len(work) > 0 {
		obj := work[len(work)-1]
		work = work[:len(work)-1]
		for _, callee := range decls[obj].calls {
			if !reachable[callee] {
				reachable[callee] = true
				work = append(work, callee)
			}
		}
	}
	return reachable
}

// transitively marks every function for which the local predicate holds,
// then propagates the mark backwards over call edges: a caller of a marked
// function is marked. Used for "transitively loops" and "transitively
// polls".
func transitively(decls map[*types.Func]*funcNode, local func(*funcNode) bool) map[*types.Func]bool {
	marked := make(map[*types.Func]bool)
	for obj, node := range decls {
		if local(node) {
			marked[obj] = true
		}
	}
	// Fixpoint: with |E| edges this converges in at most depth passes;
	// module graphs are shallow.
	for changed := true; changed; {
		changed = false
		for obj, node := range decls {
			if marked[obj] {
				continue
			}
			for _, callee := range node.calls {
				if marked[callee] {
					marked[obj] = true
					changed = true
					break
				}
			}
		}
	}
	return marked
}
