package xmltree

import (
	"bytes"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"treesketch/internal/obs"
)

func TestParseBasicDocument(t *testing.T) {
	tr, err := ParseString(`<author><name/><paper><title/><year/></paper></author>`)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Root.Label != "author" {
		t.Fatalf("root = %q, want author", tr.Root.Label)
	}
	if got := tr.Compact(); got != "author(name,paper(title,year))" {
		t.Fatalf("Compact = %q", got)
	}
	if tr.Size() != 5 {
		t.Fatalf("Size = %d, want 5", tr.Size())
	}
}

func TestParseDiscardsTextAttributesComments(t *testing.T) {
	doc := `<?xml version="1.0"?>
<!-- a comment -->
<a id="1">hello <b x="y">world</b><!-- inner --> tail</a>`
	tr, err := ParseString(doc)
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.Compact(); got != "a(b)" {
		t.Fatalf("Compact = %q, want a(b)", got)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name string
		doc  string
	}{
		{"empty", ""},
		{"text only", "just text"},
		{"unclosed", "<a><b></b>"},
		{"mismatched", "<a></b>"},
		{"two roots", "<a/><b/>"},
	}
	for _, c := range cases {
		if _, err := ParseString(c.doc); err == nil {
			t.Errorf("%s: Parse accepted %q", c.name, c.doc)
		}
	}
}

func TestWriteParseRoundTrip(t *testing.T) {
	orig := MustCompact("bib(author*3(name,paper*2(title,year,keyword*2),book(title)))")
	var buf bytes.Buffer
	if err := orig.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Compact() != orig.Compact() {
		t.Fatalf("round trip changed structure:\n  orig: %s\n  back: %s", orig.Compact(), back.Compact())
	}
}

func TestWriteFileParseFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "doc.xml")
	orig := MustCompact("r(a(b),a(b,c))")
	if err := orig.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := ParseFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Compact() != orig.Compact() {
		t.Fatalf("file round trip changed structure: %s vs %s", orig.Compact(), back.Compact())
	}
}

func TestParseFileMissing(t *testing.T) {
	if _, err := ParseFile(filepath.Join(t.TempDir(), "nope.xml")); err == nil {
		t.Fatal("ParseFile accepted missing file")
	}
}

func TestXMLSizeMatchesWrite(t *testing.T) {
	tr := MustCompact("r(a*5(b,c),d)")
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if got := tr.XMLSize(); got != int64(buf.Len()) {
		t.Fatalf("XMLSize = %d, want %d", got, buf.Len())
	}
}

func TestWriteIndentsNesting(t *testing.T) {
	tr := MustCompact("r(a(b))")
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	want := "<r>\n <a>\n  <b/>\n </a>\n</r>\n"
	if buf.String() != want {
		t.Fatalf("Write output:\n%q\nwant:\n%q", buf.String(), want)
	}
}

func TestCompactErrors(t *testing.T) {
	cases := []string{
		"",
		"r(",
		"r(a",
		"r(a,,b)",
		"r)",
		"r*2",
		"r(a*0)",
		"r(a*x)",
		"r(a)b",
		"(a)",
	}
	for _, c := range cases {
		if _, err := BuildCompact(c); err == nil {
			t.Errorf("BuildCompact accepted %q", c)
		}
	}
}

// TestCompactRejectsReplicationBombsBeforeAllocating feeds counts far
// beyond the node budget, at the root and below it. Each must fail with an
// error, and the parser must not allocate for the count first: a count of
// 2e10 would ask for 160 GB of node pointers.
func TestCompactRejectsReplicationBombsBeforeAllocating(t *testing.T) {
	for _, src := range []string{
		"a*20000000000",
		"0*00000000000000020000000000",
		"r(a*20000000000)",
		"r(a(b*1000),c*1048577)",
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := BuildCompact(src); err == nil {
			t.Errorf("BuildCompact accepted %q", src)
		}
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("BuildCompact(%q) allocated %d bytes before failing", src, grew)
		}
	}
}

func TestCompactReplication(t *testing.T) {
	tr := MustCompact("r(a*3(b*2))")
	if tr.Size() != 1+3+6 {
		t.Fatalf("Size = %d, want 10", tr.Size())
	}
	if len(tr.Root.Children) != 3 {
		t.Fatalf("root has %d children, want 3", len(tr.Root.Children))
	}
	for _, a := range tr.Root.Children {
		if a.Label != "a" || len(a.Children) != 2 {
			t.Fatalf("bad replica: %s with %d children", a.Label, len(a.Children))
		}
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestCompactWhitespaceTolerated(t *testing.T) {
	a := MustCompact(" r ( a ( b , c ) , d ) ")
	b := MustCompact("r(a(b,c),d)")
	if a.Compact() != b.Compact() {
		t.Fatalf("whitespace changed parse: %s vs %s", a.Compact(), b.Compact())
	}
}

func TestMustCompactPanicsOnError(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustCompact did not panic")
		}
	}()
	MustCompact("r(")
}

func TestParseDeeplyNested(t *testing.T) {
	var b strings.Builder
	const depth = 2000
	for i := 0; i < depth; i++ {
		b.WriteString("<a>")
	}
	for i := 0; i < depth; i++ {
		b.WriteString("</a>")
	}
	tr, err := ParseString(b.String())
	if err != nil {
		t.Fatal(err)
	}
	if tr.Size() != depth {
		t.Fatalf("Size = %d, want %d", tr.Size(), depth)
	}
	if tr.Height() != depth-1 {
		t.Fatalf("Height = %d, want %d", tr.Height(), depth-1)
	}
}

// TestParseErrorPathFinishesSpan pins the spanfinish fix: Parse's phase
// span must be closed on every malformed-document return, not just on
// success, so the xmltree.parse timer's invocation count tracks attempts —
// a leaked span would silently drop error-path durations and make the
// phase timer disagree with the parse error rate.
func TestParseErrorPathFinishesSpan(t *testing.T) {
	count := func() int64 {
		return obs.Default().Snapshot().Timers["xmltree.parse"].Count
	}
	for _, malformed := range []string{"", "<a><b></a>", "<a></a><b></b>", "</a>", "<a>"} {
		before := count()
		if _, err := ParseString(malformed); err == nil {
			t.Fatalf("ParseString(%q) did not fail", malformed)
		}
		if got := count(); got != before+1 {
			t.Fatalf("ParseString(%q): parse timer count %d -> %d, want +1 (span leaked on the error path)",
				malformed, before, got)
		}
	}
}
