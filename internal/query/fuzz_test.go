package query

import "testing"

// FuzzQueryParse checks the parser never panics, that accepted queries
// round-trip through String/Parse to a fixed point, and that Canonical
// agrees with String: an accepted source without whitespace prints back
// byte for byte.
func FuzzQueryParse(f *testing.F) {
	seeds := []string{
		"//a",
		"/a/b/c",
		"//a[//b]{//p{//k?},//n?}",
		"/a[/g]//f",
		"//x{/y,/z?,/w}",
		"//a[/b[/c]]",
		"//a{",
		"//a[",
		"//a??",
		"a//b",
		"//a{//b}}",
		"// a [ / b ]",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		q, err := Parse(src)
		if err != nil {
			return
		}
		printed := q.String()
		if got := Canonical(q, src); got != printed {
			t.Fatalf("Canonical(%q) = %q, String() = %q", src, got, printed)
		}
		q2, err := Parse(printed)
		if err != nil {
			t.Fatalf("re-parse of %q (from %q) failed: %v", printed, src, err)
		}
		if q2.String() != printed {
			t.Fatalf("not a fixed point: %q -> %q", printed, q2.String())
		}
		if err := q.Validate(); err != nil {
			t.Fatalf("accepted query fails Validate: %v", err)
		}
	})
}
