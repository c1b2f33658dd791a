// Package atomicfile replaces a file's contents all at once, so a reader,
// or a restart after a crash, never sees a half-written file.
package atomicfile

import (
	"io"
	"os"
	"path/filepath"
)

// Write writes the file at path through write. The content goes to a temp
// file in the same directory, is synced to disk, and is renamed over path
// only once complete. A failed write, or a crash of the process or the
// machine, therefore leaves path holding either its old or its new content,
// never a partial one. The temp file is removed on failure; the file gets
// the usual create mode 0644.
func Write(path string, write func(io.Writer) error) error {
	f, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	err = write(f)
	if err == nil {
		// CreateTemp files are 0600.
		err = f.Chmod(0o644)
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
	}
	return err
}
