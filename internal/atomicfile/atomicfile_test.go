package atomicfile

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestWriteReplacesWhole pins both outcomes: a successful write replaces
// the file with mode 0644, and a failing one leaves the old content
// byte-identical with no temp file behind.
func TestWriteReplacesWhole(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out")
	if err := os.WriteFile(path, []byte("old"), 0o600); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	err := Write(path, func(w io.Writer) error {
		io.WriteString(w, "partial")
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("failing write returned %v, want %v", err, boom)
	}
	assertDir(t, dir, path, "old")

	if err := Write(path, func(w io.Writer) error {
		_, err := io.WriteString(w, "new")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	assertDir(t, dir, path, "new")
	if fi, err := os.Stat(path); err != nil || fi.Mode().Perm() != 0o644 {
		t.Fatalf("written file: %v, mode %v, want 0644", err, fi.Mode().Perm())
	}
}

// assertDir checks that path holds want and is the only file in dir.
func assertDir(t *testing.T, dir, path, want string) {
	t.Helper()
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != want {
		t.Fatalf("file holds %q, want %q", got, want)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("%d entries in the directory, want only the file", len(entries))
	}
}

// TestWriteBadDir pins that a directory that cannot take the temp file
// fails the write.
func TestWriteBadDir(t *testing.T) {
	path := filepath.Join(t.TempDir(), "missing", "out")
	if err := Write(path, func(io.Writer) error { return nil }); err == nil {
		t.Fatal("write into a missing directory succeeded")
	}
}
