package sketch

import (
	"bufio"
	"encoding/gob"
	"fmt"
	"io"
	"os"

	"treesketch/internal/atomicfile"
)

// fileHeader guards against decoding unrelated gob streams.
const fileHeader = "treesketch-synopsis-v1"

// Encode serializes the sketch (compacted: tombstones dropped) to w.
func (sk *Sketch) Encode(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := gob.NewEncoder(bw)
	if err := enc.Encode(fileHeader); err != nil {
		return fmt.Errorf("sketch: encode header: %w", err)
	}
	out := sk.Compact()
	if err := enc.Encode(out.Root); err != nil {
		return fmt.Errorf("sketch: encode root: %w", err)
	}
	if err := enc.Encode(out.Nodes); err != nil {
		return fmt.Errorf("sketch: encode nodes: %w", err)
	}
	return bw.Flush()
}

// Decode deserializes a sketch written by Encode and validates it.
func Decode(r io.Reader) (*Sketch, error) {
	dec := gob.NewDecoder(bufio.NewReader(r))
	var header string
	if err := dec.Decode(&header); err != nil {
		return nil, fmt.Errorf("sketch: decode header: %w", err)
	}
	if header != fileHeader {
		return nil, fmt.Errorf("sketch: bad file header %q", header)
	}
	sk := &Sketch{}
	if err := dec.Decode(&sk.Root); err != nil {
		return nil, fmt.Errorf("sketch: decode root: %w", err)
	}
	if err := dec.Decode(&sk.Nodes); err != nil {
		return nil, fmt.Errorf("sketch: decode nodes: %w", err)
	}
	if err := sk.Check(); err != nil {
		return nil, fmt.Errorf("sketch: decoded synopsis invalid: %w", err)
	}
	return sk, nil
}

// SaveFile writes the sketch to the file at path. The save is atomic (see
// atomicfile.Write): a failed or interrupted save leaves any previous
// synopsis at path intact.
func (sk *Sketch) SaveFile(path string) error {
	if err := atomicfile.Write(path, sk.Encode); err != nil {
		return fmt.Errorf("sketch: save %s: %w", path, err)
	}
	return nil
}

// LoadFile reads a sketch from a file written by SaveFile.
func LoadFile(path string) (*Sketch, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("sketch: %w", err)
	}
	defer f.Close()
	return Decode(f)
}
