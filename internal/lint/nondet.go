package lint

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// NonDetAnalyzer forbids nondeterminism sources in functions reachable from
// the fingerprint-critical entry points in nondetRoots, among them
// tsbuild.Build and sketch.Fingerprint. The build must produce
// bit-identical synopses for a given input and budget regardless of
// wall-clock time, scheduling, or the global random source, so on those
// paths the analyzer reports:
//
//   - time.Now, time.Since, and time.Until calls (wall-clock reads);
//   - package-level math/rand functions (the shared, unseeded global
//     source) — explicitly constructed sources via rand.New/NewSource are
//     allowed, since builders seed them deterministically;
//   - `go` statements, whose completion order is scheduler-dependent and
//     must be justified by a "//lint:nondet <reason>" comment explaining
//     how result ordering is normalized.
//
// The call graph is intra-module: call edges through function values or
// interfaces are not followed, and edges into package obs are cut — the
// telemetry layer reads clocks by design and never feeds the synopsis.
var NonDetAnalyzer = &Analyzer{
	Name:      "nondet",
	Doc:       "wall-clock, global randomness, or unordered concurrency on a fingerprint-critical path",
	Directive: "nondet",
	Run:       runNonDet,
}

// nondetRoots lists the entry points whose call closures must be
// deterministic, as (package name, function name) pairs.
var nondetRoots = [][2]string{
	{"tsbuild", "Build"},
	{"sketch", "Fingerprint"},
	// The tier stack's compaction product must be bit-identical to a
	// from-scratch rebuild (the update determinism and differential tests
	// diff its fingerprints across GOMAXPROCS), so its build path carries
	// the same discipline.
	{"tier", "CompactSketch"},
	// Every fingerprint starts from the count-stable summary's class
	// numbering: the one Build assigns and the one a live Maintainer
	// reproduces for each compaction. Method roots are named Type.Method.
	{"stable", "Build"},
	{"stable", "NewMaintainer"},
	{"stable", "Maintainer.CanonicalSynopsis"},
}

func runNonDet(p *Program) []Finding {
	// Index every module FuncDecl by its types.Func object.
	decls := make(map[*types.Func]*funcNode)
	for _, pkg := range p.Packages {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				decls[obj] = &funcNode{pkg: pkg, decl: fd}
			}
		}
	}

	// Build call edges. Function literals are attributed to their enclosing
	// declaration, so a goroutine body inherits its parent's reachability.
	for _, node := range decls {
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
			if !ok {
				return true
			}
			if target.pkg.Name == "obs" {
				return true // telemetry boundary
			}
			node.calls = append(node.calls, callee)
			return true
		})
	}

	// BFS from the roots.
	var work []*types.Func
	reachable := make(map[*types.Func]bool)
	for obj, node := range decls {
		for _, root := range nondetRoots {
			if node.pkg.Name == root[0] && rootName(obj) == root[1] {
				reachable[obj] = true
				work = append(work, obj)
			}
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

	// Deterministic iteration over the reachable set.
	reached := make([]*types.Func, 0, len(reachable))
	for obj := range reachable {
		reached = append(reached, obj)
	}
	sort.Slice(reached, func(i, j int) bool { return reached[i].Pos() < reached[j].Pos() })

	var out []Finding
	for _, obj := range reached {
		node := decls[obj]
		qualified := node.pkg.Name + "." + obj.Name()
		ast.Inspect(node.decl.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				out = append(out, finding(p, n.Pos(),
					"go statement in %s is reachable from a fingerprint-critical entry point; justify how result ordering stays deterministic with //lint:nondet", qualified))
			case *ast.CallExpr:
				if name := forbiddenCall(node.pkg, n); name != "" {
					out = append(out, finding(p, n.Pos(),
						"%s in %s is reachable from a fingerprint-critical entry point", name, qualified))
				}
			}
			return true
		})
	}
	return out
}

type funcNode struct {
	pkg   *Package
	decl  *ast.FuncDecl
	calls []*types.Func
}

// calleeOf resolves a call expression to a statically known *types.Func
// (plain function or method call; not function values or interfaces).
func calleeOf(pkg *Package, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := pkg.Info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if fn, ok := pkg.Info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// rootName names fn the way nondetRoots does: Func for a package-level
// function, Type.Method for a method.
func rootName(fn *types.Func) string {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return fn.Name()
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name() + "." + fn.Name()
	}
	return ""
}

func isPackageLevel(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() == nil
}

// forbiddenCall returns a display name when the call hits a forbidden
// stdlib nondeterminism source, and "" otherwise.
func forbiddenCall(pkg *Package, call *ast.CallExpr) string {
	fn := calleeOf(pkg, call)
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	switch fn.Pkg().Path() {
	case "time":
		switch fn.Name() {
		case "Now", "Since", "Until":
			return "time." + fn.Name()
		}
	case "math/rand", "math/rand/v2":
		if !isPackageLevel(fn) {
			return "" // methods on an explicitly seeded *rand.Rand are fine
		}
		if strings.HasPrefix(fn.Name(), "New") {
			return "" // constructing a seeded source is the sanctioned path
		}
		return "global " + fn.Pkg().Name() + "." + fn.Name()
	}
	return ""
}
