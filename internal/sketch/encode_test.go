package sketch

import (
	"bytes"
	"encoding/gob"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"treesketch/internal/stable"
	"treesketch/internal/xmltree"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	_, _, sk := fromDoc("bib(author*3(name,paper*2(title,year)),author(name))")
	var buf bytes.Buffer
	if err := sk.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumNodes() != sk.NumNodes() || back.NumEdges() != sk.NumEdges() {
		t.Fatalf("round trip changed shape: %d/%d vs %d/%d",
			back.NumNodes(), back.NumEdges(), sk.NumNodes(), sk.NumEdges())
	}
	if math.Abs(back.SqErr()-sk.SqErr()) > 1e-12 {
		t.Fatalf("SqErr changed: %g vs %g", back.SqErr(), sk.SqErr())
	}
	if back.Nodes[back.Root].Label != sk.Nodes[sk.Root].Label {
		t.Fatal("root changed")
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := Decode(strings.NewReader("not a gob stream")); err == nil {
		t.Fatal("accepted garbage")
	}
	var buf bytes.Buffer
	buf.WriteString("\x00\x01\x02")
	if _, err := Decode(&buf); err == nil {
		t.Fatal("accepted binary garbage")
	}
}

// TestDecodeBoundsClaimedLength pins that a hostile length prefix costs
// only the bytes present: five bytes claiming a message of about 1 GiB,
// alone or after a valid header message, are refused while allocating far
// less than the 10 MB chunk gob fills before it notices the input ended.
func TestDecodeBoundsClaimedLength(t *testing.T) {
	claim := []byte{0xFC, 0x3F, 0xFF, 0xFF, 0xFF}
	var header bytes.Buffer
	if err := gob.NewEncoder(&header).Encode(fileHeader); err != nil {
		t.Fatal(err)
	}
	const bound = 1 << 20
	for name, in := range map[string][]byte{
		"alone":        claim,
		"after header": append(header.Bytes(), claim...),
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Decode(bytes.NewReader(in))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%s: accepted a %d-byte input claiming a 1 GiB message", name, len(in))
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > bound {
			t.Errorf("%s: refusing %d bytes allocated %d bytes, want at most %d", name, len(in), got, bound)
		}
	}
}

func TestSaveLoadFile(t *testing.T) {
	tr := xmltree.MustCompact("r(a(b),a(b,b))")
	sk := FromStable(stable.Build(tr))
	path := filepath.Join(t.TempDir(), "syn.bin")
	if err := sk.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.TotalElements() != sk.TotalElements() {
		t.Fatalf("elements %d, want %d", back.TotalElements(), sk.TotalElements())
	}
	if _, err := LoadFile(filepath.Join(t.TempDir(), "missing.bin")); err == nil {
		t.Fatal("loaded missing file")
	}
}

func TestEncodeCompactsTombstones(t *testing.T) {
	_, _, sk := fromDoc("r(a,b)")
	// Tombstone b by hand.
	var bID int
	for _, u := range sk.Nodes {
		if u != nil && u.Label == "b" {
			bID = u.ID
		}
	}
	rn := sk.Nodes[sk.Root]
	kept := rn.Edges[:0]
	for _, e := range rn.Edges {
		if e.Child != bID {
			kept = append(kept, e)
		}
	}
	rn.Edges = kept
	sk.Nodes[bID] = nil

	var buf bytes.Buffer
	if err := sk.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Nodes) != back.NumNodes() {
		t.Fatal("decoded sketch has holes")
	}
}

// TestSaveFileFailureKeepsOldFile pins the atomic save: a save whose
// encoding fails leaves the synopsis already at the path byte-identical
// and no temp file behind.
func TestSaveFileFailureKeepsOldFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "syn.bin")
	_, _, good := fromDoc("r(a(b),a(b,b))")
	if err := good.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Two nodes claiming one ID compact to a node list with a hole, which
	// gob refuses to encode.
	_, _, bad := fromDoc("r(a(b),a(b,b))")
	for _, u := range bad.Nodes {
		u.ID = 0
	}
	if err := bad.SaveFile(path); err == nil {
		t.Fatal("SaveFile of an unencodable sketch succeeded")
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatalf("failed save changed the old synopsis: %d bytes, was %d", len(after), len(before))
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Fatalf("directory holds %v, want only syn.bin", names)
	}
	if _, err := LoadFile(path); err != nil {
		t.Fatalf("old synopsis no longer loads: %v", err)
	}
}
