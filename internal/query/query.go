// Package query models XML twig queries (Section 2 of the paper).
//
// A twig query is a node-labeled query tree: each node carries a variable
// name (q0 is always bound to the document root) and each edge is annotated
// with an XPath expression restricted to the child ("/") and descendant
// ("//") axes, with optional existential branching predicates "[path]".
// Following the generalized-tree-pattern notation, edges may be "dashed"
// (optional): they come from the query's return clause and may have empty
// results without nullifying the whole query.
package query

import (
	"fmt"
	"strconv"
	"strings"
)

// Axis is an XPath navigation axis.
type Axis int

const (
	// Child is the "/" axis: immediate sub-elements.
	Child Axis = iota
	// Descendant is the "//" axis: proper descendants at any depth.
	Descendant
)

// String renders the axis in XPath syntax ("/" or "//").
func (a Axis) String() string {
	if a == Descendant {
		return "//"
	}
	return "/"
}

// Step is one location step of a path expression: an axis, a target label,
// and zero or more existential branching predicates evaluated at the
// element the step binds.
type Step struct {
	Axis  Axis
	Label string
	Preds []*Path
}

// Path is a label path l1[p1]/l2[p2]/.../ln[pn] with per-step axes.
type Path struct {
	Steps []Step
}

// MainSteps returns the steps of the path without predicates (the "main
// path" of EvalQuery, Figure 7 line 4).
func (p *Path) MainSteps() []Step { return p.Steps }

// String renders the path in XPath syntax.
func (p *Path) String() string {
	var b strings.Builder
	p.write(&b)
	return b.String()
}

// write renders the path into b. Nested predicates render into the same
// builder, so a predicate nested d deep costs O(d) bytes, not O(d²).
func (p *Path) write(b *strings.Builder) {
	for _, s := range p.Steps {
		b.WriteString(s.Axis.String())
		b.WriteString(s.Label)
		for _, pred := range s.Preds {
			b.WriteByte('[')
			pred.write(b)
			b.WriteByte(']')
		}
	}
}

// Edge connects a query variable to a child variable via a path expression.
type Edge struct {
	Path     *Path
	Optional bool // dashed edge: empty results do not nullify the query
	Child    *Node
}

// Node is a query-tree node: one query variable.
type Node struct {
	Var   string
	Edges []*Edge
}

// Query is a twig query: a query tree whose root variable q0 is bound to
// the document root.
type Query struct {
	Root *Node

	numVars int
}

// NumVars reports the number of variables including q0.
func (q *Query) NumVars() int { return q.numVars }

// Vars returns all query nodes in pre-order (q0 first).
func (q *Query) Vars() []*Node {
	var out []*Node
	var rec func(n *Node)
	rec = func(n *Node) {
		out = append(out, n)
		for _, e := range n.Edges {
			rec(e.Child)
		}
	}
	if q.Root != nil {
		rec(q.Root)
	}
	return out
}

// String renders the query in the package's textual syntax: each edge is
// its path expression, '?' marks optional edges, and braces nest child
// edges, e.g. "//a[//b]{//p{//k?},//n?}".
func (q *Query) String() string {
	var b strings.Builder
	writeEdges(&b, q.Root)
	return b.String()
}

func writeEdges(b *strings.Builder, n *Node) {
	for i, e := range n.Edges {
		if i > 0 {
			b.WriteByte(',')
		}
		e.Path.write(b)
		if e.Optional {
			b.WriteByte('?')
		}
		if len(e.Child.Edges) > 0 {
			b.WriteByte('{')
			writeEdges(b, e.Child)
			b.WriteByte('}')
		}
	}
}

// Renumber reassigns variable names q0..qn in pre-order. Called by the
// parser and the generator; useful after programmatic query surgery.
func (q *Query) Renumber() {
	i := 0
	var rec func(n *Node)
	rec = func(n *Node) {
		n.Var = "q" + strconv.Itoa(i)
		i++
		for _, e := range n.Edges {
			rec(e.Child)
		}
	}
	if q.Root != nil {
		rec(q.Root)
	}
	q.numVars = i
}

// Validate checks structural sanity: non-nil paths with at least one step,
// no empty labels, and at least one edge from the root.
func (q *Query) Validate() error {
	if q.Root == nil {
		return fmt.Errorf("query: nil root")
	}
	if len(q.Root.Edges) == 0 {
		return fmt.Errorf("query: root has no edges")
	}
	var check func(n *Node) error
	var checkPath func(p *Path) error
	checkPath = func(p *Path) error {
		if p == nil || len(p.Steps) == 0 {
			return fmt.Errorf("query: empty path expression")
		}
		for _, s := range p.Steps {
			if s.Label == "" {
				return fmt.Errorf("query: step with empty label")
			}
			for _, pred := range s.Preds {
				if err := checkPath(pred); err != nil {
					return err
				}
			}
		}
		return nil
	}
	check = func(n *Node) error {
		for _, e := range n.Edges {
			if err := checkPath(e.Path); err != nil {
				return err
			}
			if e.Child == nil {
				return fmt.Errorf("query: edge with nil child under %s", n.Var)
			}
			if err := check(e.Child); err != nil {
				return err
			}
		}
		return nil
	}
	return check(q.Root)
}
