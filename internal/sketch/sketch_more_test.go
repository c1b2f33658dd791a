package sketch

import (
	"sync"
	"testing"

	"treesketch/internal/stable"
	"treesketch/internal/xmltree"
)

func TestParents(t *testing.T) {
	_, _, sk := fromDoc("r(a(c),b(c))")
	parents := sk.Parents()
	ids := map[string]int{}
	for _, u := range sk.Nodes {
		ids[u.Label] = u.ID
	}
	if len(parents[ids["c"]]) != 2 {
		t.Fatalf("c has %d parents, want 2", len(parents[ids["c"]]))
	}
	if len(parents[sk.Root]) != 0 {
		t.Fatalf("root has parents: %v", parents[sk.Root])
	}
	// Tombstones are skipped.
	sk.Nodes[ids["b"]] = nil
	parents = sk.Parents()
	if len(parents[ids["c"]]) != 1 {
		t.Fatalf("c has %d parents after tombstoning b, want 1", len(parents[ids["c"]]))
	}
}

// TestHasLabel checks the label lookup against the live nodes, skipping
// tombstones, under concurrent first use (run with -race).
func TestHasLabel(t *testing.T) {
	_, _, sk := fromDoc("r(a(c),b(c))")
	for _, u := range sk.Nodes {
		if u.Label == "b" {
			sk.Nodes[u.ID] = nil
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, l := range []string{"r", "a", "c"} {
				if !sk.HasLabel(l) {
					t.Errorf("HasLabel(%q) = false", l)
				}
			}
			for _, l := range []string{"b", "z", ""} {
				if sk.HasLabel(l) {
					t.Errorf("HasLabel(%q) = true", l)
				}
			}
		}()
	}
	wg.Wait()
}

func TestSqErrZeroCountNode(t *testing.T) {
	n := &Node{Count: 0, Edges: []Edge{{Child: 1, Avg: 2, Sum: 4, SumSq: 8}}}
	if got := n.SqErr(); got != 0 {
		t.Fatalf("SqErr of empty extent = %g, want 0", got)
	}
}

func TestSqErrClampsNumericNoise(t *testing.T) {
	// SumSq slightly below Sum^2/Count due to rounding: clamped to 0.
	n := &Node{Count: 3, Edges: []Edge{{Child: 1, Avg: 1, Sum: 3, SumSq: 3 - 1e-9}}}
	if got := n.SqErr(); got != 0 {
		t.Fatalf("SqErr = %g, want 0 (noise clamp)", got)
	}
}

func TestEncodeToFailingWriter(t *testing.T) {
	_, _, sk := fromDoc("r(a)")
	if err := sk.Encode(failWriter{}); err == nil {
		t.Fatal("Encode to failing writer succeeded")
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) {
	return 0, errWrite
}

var errWrite = &writeErr{}

type writeErr struct{}

func (*writeErr) Error() string { return "synthetic write failure" }

func TestSaveFileBadPath(t *testing.T) {
	tr := xmltree.MustCompact("r(a)")
	sk := FromStable(stable.Build(tr))
	if err := sk.SaveFile("/nonexistent-dir-xyz/out.syn"); err == nil {
		t.Fatal("SaveFile to bad path succeeded")
	}
}

func TestDecodeRejectsCorruptedBody(t *testing.T) {
	// A valid header followed by a truncated body.
	_, _, sk := fromDoc("r(a(b),a(b,b))")
	buf := &truncatingBuffer{cap: 40}
	sk.Encode(buf) // stops writing at cap; ignore error
	if _, err := Decode(&readerOf{buf.data}); err == nil {
		t.Fatal("Decode accepted truncated stream")
	}
}

type truncatingBuffer struct {
	data []byte
	cap  int
}

func (b *truncatingBuffer) Write(p []byte) (int, error) {
	room := b.cap - len(b.data)
	if room <= 0 {
		return 0, errWrite
	}
	if len(p) > room {
		p = p[:room]
	}
	b.data = append(b.data, p...)
	return len(p), nil
}

type readerOf struct{ data []byte }

func (r *readerOf) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, errEOF
	}
	n := copy(p, r.data)
	r.data = r.data[n:]
	return n, nil
}

var errEOF = &eofErr{}

type eofErr struct{}

func (*eofErr) Error() string { return "EOF" }
