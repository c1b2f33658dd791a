package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// MapIterAnalyzer flags `range` statements over maps in the
// determinism-critical packages (stable, tsbuild, sketch, eval, tier). Go
// randomizes map iteration order, so any map range that feeds floats,
// slices, heaps, or fingerprints in those packages is a latent
// nondeterminism bug.
//
// Two escape hatches exist for the legitimate pattern of draining a map into
// a slice that is subsequently sorted:
//
//   - the enclosing function is an allowlisted sorted-drain helper (its name
//     starts with "sorted" or ends with "Sorted"), or
//   - the enclosing function sorts after the range (a sort.* or
//     slices.Sort* call lexically follows the range statement), or
//   - the statement carries a "//lint:sorted <reason>" justification.
var MapIterAnalyzer = &Analyzer{
	Name:      "mapiter",
	Doc:       "range over map in determinism-critical packages without a sorted drain",
	Directive: "sorted",
	Run:       runMapIter,
}

func runMapIter(p *Program) []Finding {
	var out []Finding
	for _, pkg := range packagesNamed(p, "stable", "tsbuild", "sketch", "eval", "tier") {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				out = append(out, mapRangesIn(p, pkg, fd)...)
			}
		}
	}
	return out
}

// sortedDrainName reports whether a function name marks a helper whose whole
// purpose is draining a map in sorted order.
func sortedDrainName(name string) bool {
	return strings.HasPrefix(name, "sorted") || strings.HasSuffix(name, "Sorted")
}

func mapRangesIn(p *Program, pkg *Package, fd *ast.FuncDecl) []Finding {
	if sortedDrainName(fd.Name.Name) {
		return nil
	}
	// Collect the positions of sort calls in the function first, then flag
	// map ranges that no sort call follows.
	var sortPos []ast.Node
	var ranges []*ast.RangeStmt
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if isSortCall(pkg, n) {
				sortPos = append(sortPos, n)
			}
		case *ast.RangeStmt:
			if t := pkg.Info.Types[n.X].Type; t != nil {
				if _, isMap := t.Underlying().(*types.Map); isMap {
					ranges = append(ranges, n)
				}
			}
		}
		return true
	})
	var out []Finding
	for _, rs := range ranges {
		sortedAfter := false
		for _, sc := range sortPos {
			if sc.Pos() > rs.Pos() {
				sortedAfter = true
				break
			}
		}
		if sortedAfter {
			continue
		}
		out = append(out, finding(p, rs.Pos(),
			"map iteration order is random: range over map in package %s must drain into a sorted slice or carry //lint:sorted", pkg.Name))
	}
	return out
}

// isSortCall recognizes sort.* and slices.Sort* calls.
func isSortCall(pkg *Package, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	obj := pkg.Info.Uses[sel.Sel]
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	switch fn.Pkg().Path() {
	case "sort":
		return true
	case "slices":
		return strings.HasPrefix(fn.Name(), "Sort")
	}
	return false
}
