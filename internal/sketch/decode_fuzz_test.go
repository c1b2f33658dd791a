package sketch_test

import (
	"bytes"
	"math"
	"testing"

	"treesketch/internal/eval"
	"treesketch/internal/query"
	"treesketch/internal/sketch"
	"treesketch/internal/stable"
	"treesketch/internal/tsbuild"
	"treesketch/internal/xmltree"
)

// decodeQueries are answered on every synopsis FuzzDecode accepts.
var decodeQueries = []string{"//a", "//a//b", "/a/b", "//a[//b]{//c?}", "//b[/c]"}

// FuzzDecode feeds arbitrary bytes to Decode, the loader behind
// tsserve -synopsis. Decode must either fail, or return a synopsis that
// passes Check, encodes again, and answers a few fixed queries with
// finite, non-negative selectivity and no panic.
func FuzzDecode(f *testing.F) {
	doc := xmltree.MustCompact("r(a(b(c),b(b(c),d)),a(b),a(c,d),e(a(b)))")
	st := stable.Build(doc)
	merged, _ := tsbuild.Build(st, tsbuild.Options{BudgetBytes: st.SizeBytes() / 2})
	for _, sk := range []*sketch.Sketch{sketch.FromStable(st), merged} {
		var buf bytes.Buffer
		if err := sk.Encode(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	var qs []*query.Query
	for _, src := range decodeQueries {
		qs = append(qs, query.MustParse(src))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sk, err := sketch.Decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := sk.Check(); err != nil {
			t.Fatalf("Decode returned a sketch that fails Check: %v", err)
		}
		if err := sk.Encode(&bytes.Buffer{}); err != nil {
			t.Fatalf("decoded sketch does not encode: %v", err)
		}
		for _, q := range qs {
			for _, opts := range []eval.Options{{MaxEmbeddings: 200}, {MaxEmbeddings: 200, PaperMode: true}} {
				sel := eval.Approx(sk, q, opts).Selectivity()
				if math.IsNaN(sel) || math.IsInf(sel, 0) || sel < 0 {
					t.Fatalf("query %s (paper mode %v): selectivity %v not finite and non-negative", q, opts.PaperMode, sel)
				}
			}
		}
	})
}
