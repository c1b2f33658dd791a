package xmltree

import (
	"fmt"
	"strconv"
	"strings"
)

// maxCompactNodes bounds BuildCompact output, guarding against replication
// bombs like "r(a*99999999(b*99999999))".
const maxCompactNodes = 1 << 20

// BuildCompact constructs a tree from a compact textual notation used
// pervasively in tests and examples:
//
//	tree    := node
//	node    := label [ '*' count ] [ '(' node (',' node)* ')' ]
//	label   := [A-Za-z0-9_-]+
//
// "r(a(b,c*3),a(b))" is a root r with two a children; the first a has one b
// and three c leaves. '*count' replicates the node (with its subtree)
// count times under its parent; it is not allowed on the root. Whitespace is
// ignored.
func BuildCompact(s string) (*Tree, error) {
	p := &compactParser{src: s}
	t := NewTree()
	nodes, err := p.node(t, true)
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.pos != len(p.src) {
		return nil, fmt.Errorf("xmltree: compact: trailing input at offset %d", p.pos)
	}
	t.Root = nodes[0]
	return t, nil
}

// MustCompact is BuildCompact that panics on error; for tests with literal
// inputs.
func MustCompact(s string) *Tree {
	t, err := BuildCompact(s)
	if err != nil {
		panic(err)
	}
	return t
}

type compactParser struct {
	src string
	pos int
}

func (p *compactParser) skipSpace() {
	for p.pos < len(p.src) && (p.src[p.pos] == ' ' || p.src[p.pos] == '\t' || p.src[p.pos] == '\n') {
		p.pos++
	}
}

func isLabelByte(b byte) bool {
	return b == '_' || b == '-' ||
		('a' <= b && b <= 'z') || ('A' <= b && b <= 'Z') || ('0' <= b && b <= '9')
}

// node parses one node spec and returns the replicated instances. A
// replication count is checked as soon as it is read, before anything is
// built: the root may not be replicated, and no count may exceed the node
// budget left, so a short input cannot make the parser allocate for a
// huge count.
func (p *compactParser) node(t *Tree, root bool) ([]*Node, error) {
	p.skipSpace()
	start := p.pos
	for p.pos < len(p.src) && isLabelByte(p.src[p.pos]) {
		p.pos++
	}
	if p.pos == start {
		return nil, fmt.Errorf("xmltree: compact: expected label at offset %d", p.pos)
	}
	label := p.src[start:p.pos]
	count := 1
	p.skipSpace()
	if p.pos < len(p.src) && p.src[p.pos] == '*' {
		p.pos++
		numStart := p.pos
		for p.pos < len(p.src) && p.src[p.pos] >= '0' && p.src[p.pos] <= '9' {
			p.pos++
		}
		n, err := strconv.Atoi(p.src[numStart:p.pos])
		switch {
		case err != nil || n < 1:
			return nil, fmt.Errorf("xmltree: compact: bad replication count at offset %d", numStart)
		case root && n != 1:
			return nil, fmt.Errorf("xmltree: compact: root cannot be replicated")
		case n > maxCompactNodes-t.Size():
			return nil, fmt.Errorf("xmltree: compact: tree exceeds %d nodes", maxCompactNodes)
		}
		count = n
	}
	var childSpecs [][]*Node
	p.skipSpace()
	if p.pos < len(p.src) && p.src[p.pos] == '(' {
		p.pos++
		for {
			kids, err := p.node(t, false)
			if err != nil {
				return nil, err
			}
			childSpecs = append(childSpecs, kids)
			p.skipSpace()
			if p.pos >= len(p.src) {
				return nil, fmt.Errorf("xmltree: compact: unterminated '('")
			}
			if p.src[p.pos] == ',' {
				p.pos++
				continue
			}
			if p.src[p.pos] == ')' {
				p.pos++
				break
			}
			return nil, fmt.Errorf("xmltree: compact: expected ',' or ')' at offset %d", p.pos)
		}
	}
	out := make([]*Node, count)
	for i := range out {
		if t.Size() > maxCompactNodes {
			return nil, fmt.Errorf("xmltree: compact: tree exceeds %d nodes", maxCompactNodes)
		}
		n := t.NewNode(label)
		for _, group := range childSpecs {
			if i == 0 {
				n.Children = append(n.Children, group...)
			} else {
				for _, proto := range group {
					c, err := cloneInto(t, proto)
					if err != nil {
						return nil, err
					}
					n.Children = append(n.Children, c)
				}
			}
		}
		out[i] = n
	}
	return out, nil
}

func cloneInto(t *Tree, proto *Node) (*Node, error) {
	if t.Size() > maxCompactNodes {
		return nil, fmt.Errorf("xmltree: compact: tree exceeds %d nodes", maxCompactNodes)
	}
	n := t.NewNode(proto.Label)
	for _, c := range proto.Children {
		cc, err := cloneInto(t, c)
		if err != nil {
			return nil, err
		}
		n.Children = append(n.Children, cc)
	}
	return n, nil
}

// Compact renders the tree in (a canonicalized form of) the compact
// notation, with children in original order and without replication
// shorthand. Useful for golden comparisons in tests.
func (t *Tree) Compact() string {
	if t.Root == nil {
		return ""
	}
	var b strings.Builder
	writeCompact(&b, t.Root)
	return b.String()
}

func writeCompact(b *strings.Builder, n *Node) {
	b.WriteString(n.Label)
	if len(n.Children) == 0 {
		return
	}
	b.WriteByte('(')
	for i, c := range n.Children {
		if i > 0 {
			b.WriteByte(',')
		}
		writeCompact(b, c)
	}
	b.WriteByte(')')
}
