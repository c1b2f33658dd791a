package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
)

// WriteJSON serializes the result as indented JSON.
func (r *Result) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteFile writes the result to path (the committed baseline lives at
// BENCH_treesketch.json in the repo root).
func (r *Result) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("bench: %w", err)
	}
	if err := r.WriteJSON(f); err != nil {
		f.Close()
		return fmt.Errorf("bench: write %s: %w", path, err)
	}
	return f.Close()
}

// ReadFile loads a previously written result and validates its schema
// version.
func ReadFile(path string) (*Result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	var r Result
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("bench: parse %s: %w", path, err)
	}
	if r.SchemaVersion != SchemaVersion {
		return nil, fmt.Errorf("bench: %s has schema version %d, this binary speaks %d — regenerate the file", path, r.SchemaVersion, SchemaVersion)
	}
	return &r, nil
}

// Diff is one difference between two records.
type Diff struct {
	// Key names the value: "config", "<cell> <metric>" or
	// "fingerprint <cell>".
	Key string
	// Old and New are the value in each record, "" when absent.
	Old, New string
}

// Compare diffs cur against base exactly: every metric value, every
// fingerprint and the config must be equal, and present in both or in
// neither. It returns one Diff per key that differs, sorted by key; nil
// means the records are identical.
func Compare(base, cur *Result) []Diff {
	old, now := base.values(), cur.values()
	keys := make([]string, 0, len(old)+len(now))
	for k := range old {
		keys = append(keys, k)
	}
	for k := range now {
		if _, ok := old[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var diffs []Diff
	for _, k := range keys {
		if old[k] != now[k] {
			diffs = append(diffs, Diff{Key: k, Old: old[k], New: now[k]})
		}
	}
	return diffs
}

// values flattens the record into key -> exact textual value. A float
// prints in the shortest form that parses back to the same bits, so equal
// text means equal values.
func (r *Result) values() map[string]string {
	cfg, _ := json.Marshal(r.Config) // strings, numbers and bools only: cannot fail
	out := map[string]string{"config": string(cfg)}
	for cell, m := range r.Benchmarks {
		for metric, v := range m {
			out[cell+" "+metric] = strconv.FormatFloat(v, 'g', -1, 64)
		}
	}
	for cell, fp := range r.Fingerprints {
		out["fingerprint "+cell] = fp
	}
	return out
}

// WriteTable prints one line per difference and a summary line.
func WriteTable(w io.Writer, diffs []Diff) error {
	for _, d := range diffs {
		if _, err := fmt.Fprintf(w, "%-40s %24s -> %s\n", d.Key, orDash(d.Old), orDash(d.New)); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "compare: %d difference(s)\n", len(diffs))
	return err
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}
