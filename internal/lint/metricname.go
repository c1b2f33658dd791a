package lint

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"treesketch/internal/metricname"
)

// MetricNameAnalyzer checks every obs metric registration site — Counter,
// Gauge, Histogram, StartSpan, Windowed — against the canonical
// metric-name grammar shared with the runtime validator in
// internal/metricname, and reports one name registered under two different
// metric kinds anywhere in the module.
//
// Constant names (including constant-folded concatenations) are validated
// exactly. Composed names are validated structurally: constant fragments
// are kept, numeric components become a digit placeholder, and string
// components are only accepted when routed through metricname.Clean — a raw
// dynamic string (a dataset label, user input) can smuggle uppercase or
// punctuation past the grammar, which Clean exists to prevent.
var MetricNameAnalyzer = &Analyzer{
	Name:      "metricname",
	Doc:       "obs metric registration with a non-canonical or kind-colliding name",
	Directive: "metricname",
	Run:       runMetricName,
}

// metricKinds maps obs registration entry points to the metric kind they
// create.
var metricKinds = map[string]string{
	"Counter":   "counter",
	"Gauge":     "gauge",
	"Histogram": "histogram",
	"StartSpan": "timer",
	"Windowed":  "windowed",
}

type registration struct {
	kind string
	pos  token.Pos
	pkg  *Package
}

func runMetricName(p *Program) []Finding {
	var out []Finding
	byName := make(map[string][]registration)
	for _, pkg := range p.Packages {
		if pkg.Name == "obs" || pkg.Name == "metricname" {
			// The registry's own plumbing and the grammar package pass names
			// through variables by design.
			continue
		}
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || len(call.Args) == 0 {
					return true
				}
				kind, ok := metricRegistrationKind(pkg, call)
				if !ok {
					return true
				}
				arg := call.Args[0]
				if name, isConst := constString(pkg, arg); isConst {
					if err := metricname.Valid(name); err != nil {
						out = append(out, finding(p, arg.Pos(), "metric name: %v", err))
					} else {
						byName[name] = append(byName[name], registration{kind: kind, pos: arg.Pos(), pkg: pkg})
					}
					return true
				}
				template, fs := composedTemplate(p, pkg, arg)
				out = append(out, fs...)
				if template != "" && len(fs) == 0 {
					if err := metricname.Valid(template); err != nil {
						out = append(out, finding(p, arg.Pos(), "composed metric name: %v", err))
					}
				}
				return true
			})
		}
	}
	out = append(out, duplicateKindFindings(p, byName)...)
	return out
}

// metricRegistrationKind resolves a call to an obs registration entry point
// (method on Registry or package-level helper) and returns its metric kind.
func metricRegistrationKind(pkg *Package, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	kind, ok := metricKinds[sel.Sel.Name]
	if !ok {
		return "", false
	}
	fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Name() != "obs" {
		return "", false
	}
	// Registration entry points take the metric name as their first
	// parameter; measurement methods sharing a name (Histogram.Observe)
	// take numbers and are not registrations.
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Params().Len() == 0 {
		return "", false
	}
	first, ok := sig.Params().At(0).Type().Underlying().(*types.Basic)
	if !ok || first.Kind() != types.String {
		return "", false
	}
	return kind, true
}

// constString returns the constant-folded string value of e, if any.
func constString(pkg *Package, e ast.Expr) (string, bool) {
	tv, ok := pkg.Info.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}

// composedTemplate reduces a dynamically composed name expression to a
// grammar-checkable template. Constant fragments survive verbatim, numeric
// components become "0", and Clean() calls become a safe placeholder. Any
// other string-typed component is reported: it must be sanitized with
// metricname.Clean before entering a metric name. An empty template means
// the expression shape is not recognized (also reported).
func composedTemplate(p *Program, pkg *Package, e ast.Expr) (string, []Finding) {
	e = ast.Unparen(e)
	switch e := e.(type) {
	case *ast.BinaryExpr:
		if e.Op != token.ADD {
			break
		}
		lt, lf := composedTemplate(p, pkg, e.X)
		rt, rf := composedTemplate(p, pkg, e.Y)
		return lt + rt, append(lf, rf...)
	case *ast.CallExpr:
		if isSprintfCall(pkg, e) {
			return sprintfTemplate(p, pkg, e)
		}
		if isCleanCall(pkg, e) {
			return "c0", nil
		}
	}
	if name, ok := constString(pkg, e); ok {
		return name, nil
	}
	if tv, ok := pkg.Info.Types[e]; ok && tv.Type != nil {
		if b, ok := tv.Type.Underlying().(*types.Basic); ok && b.Info()&types.IsNumeric != 0 {
			return "0", nil
		}
	}
	return "", []Finding{finding(p, e.Pos(),
		"dynamic metric name component is not sanitized: route it through metricname.Clean")}
}

// sprintfTemplate expands a fmt.Sprintf metric name: the constant format
// string keeps its literal text, and each verb is replaced by the template
// of its corresponding argument.
func sprintfTemplate(p *Program, pkg *Package, call *ast.CallExpr) (string, []Finding) {
	if len(call.Args) == 0 {
		return "", nil
	}
	format, ok := constString(pkg, call.Args[0])
	if !ok {
		return "", []Finding{finding(p, call.Pos(), "metric name Sprintf format is not a constant")}
	}
	args := call.Args[1:]
	var b strings.Builder
	var fs []Finding
	argIdx := 0
	for i := 0; i < len(format); i++ {
		if format[i] != '%' {
			b.WriteByte(format[i])
			continue
		}
		// Consume flags, width, and precision up to the verb.
		j := i + 1
		for j < len(format) && strings.ContainsRune("+-# 0123456789.", rune(format[j])) {
			j++
		}
		if j >= len(format) {
			break
		}
		verb := format[j]
		i = j
		if verb == '%' {
			b.WriteByte('%')
			continue
		}
		if argIdx >= len(args) {
			break
		}
		t, f := composedTemplate(p, pkg, args[argIdx])
		argIdx++
		b.WriteString(t)
		fs = append(fs, f...)
	}
	return b.String(), fs
}

// isSprintfCall recognizes fmt.Sprintf.
func isSprintfCall(pkg *Package, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Sprintf" {
		return false
	}
	fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func)
	return ok && fn.Pkg() != nil && fn.Pkg().Path() == "fmt"
}

// isCleanCall recognizes metricname.Clean.
func isCleanCall(pkg *Package, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Clean" {
		return false
	}
	fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func)
	return ok && fn.Pkg() != nil && fn.Pkg().Name() == "metricname"
}

// duplicateKindFindings reports every constant name registered under more
// than one metric kind, across all packages, at each site beyond the first
// kind encountered (in deterministic name order).
func duplicateKindFindings(p *Program, byName map[string][]registration) []Finding {
	names := make([]string, 0, len(byName))
	for name := range byName {
		names = append(names, name)
	}
	sort.Strings(names)
	var out []Finding
	for _, name := range names {
		regs := byName[name]
		kinds := make(map[string]bool)
		for _, r := range regs {
			kinds[r.kind] = true
		}
		if len(kinds) < 2 {
			continue
		}
		sort.Slice(regs, func(i, j int) bool { return regs[i].pos < regs[j].pos })
		first := regs[0]
		for _, r := range regs[1:] {
			if r.kind == first.kind {
				continue
			}
			out = append(out, finding(p, r.pos,
				"metric %q registered as %s here but as %s at %s", name, r.kind, first.kind,
				relPos(p, first.pos)))
		}
	}
	return out
}

func relPos(p *Program, pos token.Pos) string {
	position := p.Fset.Position(pos)
	return fmt.Sprintf("%s:%d", p.RelFile(position.Filename), position.Line)
}
