package query

import (
	"fmt"
)

// Parse reads a twig query from the package's textual syntax:
//
//	query := edges
//	edges := edge (',' edge)*
//	edge  := path ['?'] [ '{' edges '}' ]
//	path  := step+
//	step  := ('//' | '/') label pred*
//	pred  := '[' path ']'
//	label := [A-Za-z0-9_-]+
//
// Example (the paper's Figure 2 query): "//a[//b]{//p{//k?},//n?}".
// '?' marks a dashed (optional, return-clause) edge. Variables are named
// q0 (implicit root) then q1..qn in pre-order.
func Parse(src string) (*Query, error) {
	p := &parser{src: src}
	edges, err := p.edges()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.pos != len(p.src) {
		return nil, fmt.Errorf("query: parse: trailing input at offset %d", p.pos)
	}
	q := &Query{Root: &Node{Edges: edges}}
	q.Renumber()
	if err := q.Validate(); err != nil {
		return nil, err
	}
	return q, nil
}

// MustParse is Parse that panics on error; for tests and examples with
// literal queries.
func MustParse(src string) *Query {
	q, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return q
}

// Canonical returns the canonical text of q, which Parse returned for src:
// src itself when it holds no whitespace, since the grammar has no other
// spelling of a query, and q.String() otherwise.
func Canonical(q *Query, src string) string {
	for i := 0; i < len(src); i++ {
		if isSpace(src[i]) {
			return q.String()
		}
	}
	return src
}

type parser struct {
	src string
	pos int
}

func (p *parser) skipSpace() {
	for p.pos < len(p.src) && isSpace(p.src[p.pos]) {
		p.pos++
	}
}

// isSpace reports whether the parser skips b as whitespace.
func isSpace(b byte) bool {
	return b == ' ' || b == '\t' || b == '\n' || b == '\r'
}

func (p *parser) edges() ([]*Edge, error) {
	var out []*Edge
	for {
		e, err := p.edge()
		if err != nil {
			return nil, err
		}
		out = append(out, e)
		p.skipSpace()
		if p.pos < len(p.src) && p.src[p.pos] == ',' {
			p.pos++
			continue
		}
		return out, nil
	}
}

func (p *parser) edge() (*Edge, error) {
	path, err := p.path()
	if err != nil {
		return nil, err
	}
	e := &Edge{Path: path, Child: &Node{}}
	p.skipSpace()
	if p.pos < len(p.src) && p.src[p.pos] == '?' {
		e.Optional = true
		p.pos++
		p.skipSpace()
	}
	if p.pos < len(p.src) && p.src[p.pos] == '{' {
		p.pos++
		kids, err := p.edges()
		if err != nil {
			return nil, err
		}
		p.skipSpace()
		if p.pos >= len(p.src) || p.src[p.pos] != '}' {
			return nil, fmt.Errorf("query: parse: expected '}' at offset %d", p.pos)
		}
		p.pos++
		e.Child.Edges = kids
	}
	return e, nil
}

func (p *parser) path() (*Path, error) {
	var steps []Step
	for {
		p.skipSpace()
		if p.pos >= len(p.src) || p.src[p.pos] != '/' {
			break
		}
		axis := Child
		p.pos++
		if p.pos < len(p.src) && p.src[p.pos] == '/' {
			axis = Descendant
			p.pos++
		}
		label, err := p.label()
		if err != nil {
			return nil, err
		}
		step := Step{Axis: axis, Label: label}
		for {
			p.skipSpace()
			if p.pos >= len(p.src) || p.src[p.pos] != '[' {
				break
			}
			p.pos++
			pred, err := p.path()
			if err != nil {
				return nil, err
			}
			p.skipSpace()
			if p.pos >= len(p.src) || p.src[p.pos] != ']' {
				return nil, fmt.Errorf("query: parse: expected ']' at offset %d", p.pos)
			}
			p.pos++
			step.Preds = append(step.Preds, pred)
		}
		steps = append(steps, step)
	}
	if len(steps) == 0 {
		return nil, fmt.Errorf("query: parse: expected path at offset %d", p.pos)
	}
	return &Path{Steps: steps}, nil
}

func (p *parser) label() (string, error) {
	p.skipSpace()
	start := p.pos
	for p.pos < len(p.src) && isLabelByte(p.src[p.pos]) {
		p.pos++
	}
	if p.pos == start {
		return "", fmt.Errorf("query: parse: expected label at offset %d", p.pos)
	}
	return p.src[start:p.pos], nil
}

func isLabelByte(b byte) bool {
	return b == '_' || b == '-' ||
		('a' <= b && b <= 'z') || ('A' <= b && b <= 'Z') || ('0' <= b && b <= '9')
}
