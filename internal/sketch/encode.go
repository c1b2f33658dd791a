package sketch

import (
	"bufio"
	"bytes"
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

// Decode deserializes a sketch written by Encode and validates it. The
// input is read whole, and its gob framing is checked (checkFrames) before
// gob reads a message: gob trusts a message's length prefix up to
// gigabytes and reads the claimed bytes in 10 MB chunks, so a five-byte
// input claiming a huge message would otherwise cost 10 MB to refuse.
func Decode(r io.Reader) (*Sketch, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("sketch: read: %w", err)
	}
	if err := checkFrames(data); err != nil {
		return nil, fmt.Errorf("sketch: %w", err)
	}
	dec := gob.NewDecoder(bytes.NewReader(data))
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

// checkFrames walks the gob stream data as a sequence of messages, each a
// byte count followed by that many bytes, and refuses a count that is
// malformed or claims more bytes than data still holds.
func checkFrames(data []byte) error {
	for off := 0; off < len(data); {
		n, w, err := gobUint(data[off:])
		if err != nil {
			return fmt.Errorf("message at byte %d: %w", off, err)
		}
		if rest := len(data) - off - w; n > uint64(rest) {
			return fmt.Errorf("message at byte %d claims %d bytes, %d present", off, n, rest)
		}
		off += w + int(n)
	}
	return nil
}

// gobUint decodes the gob unsigned integer at the front of b and returns
// it with its width: a byte below 0x80 is the value itself, and any other
// byte is the negated count, at most eight, of the big-endian value bytes
// that follow it.
func gobUint(b []byte) (v uint64, width int, err error) {
	if len(b) == 0 {
		return 0, 0, io.ErrUnexpectedEOF
	}
	if b[0] < 0x80 {
		return uint64(b[0]), 1, nil
	}
	n := 256 - int(b[0])
	if n > 8 {
		return 0, 0, fmt.Errorf("bad length prefix byte %#x", b[0])
	}
	if len(b) < 1+n {
		return 0, 0, io.ErrUnexpectedEOF
	}
	for _, c := range b[1 : 1+n] {
		v = v<<8 | uint64(c)
	}
	return v, 1 + n, nil
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
