package main

import (
	"reflect"
	"strings"
	"testing"
)

// TestParseNamedListRefusesDuplicates pins that a dataset name given twice,
// within one list or across -synopsis and -doc, is refused with an error
// naming both paths instead of one dataset silently replacing the other.
func TestParseNamedListRefusesDuplicates(t *testing.T) {
	cases := []struct {
		name           string
		synopses, docs string
		paths          [2]string
	}{
		{"two synopses, one stem", "a/x.syn,b/x.syn", "", [2]string{"a/x.syn", "b/x.syn"}},
		{"explicit name reused", "x=a.syn, x=b.syn", "", [2]string{"a.syn", "b.syn"}},
		{"doc named like a synopsis", "x.syn", "x=doc.xml", [2]string{"x.syn", "doc.xml"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			names := make(map[string]string)
			_, err := parseNamedList(c.synopses, names)
			if err == nil {
				_, err = parseNamedList(c.docs, names)
			}
			if err == nil || !strings.Contains(err.Error(), c.paths[0]) || !strings.Contains(err.Error(), c.paths[1]) {
				t.Fatalf("error %v, want one naming %s and %s", err, c.paths[0], c.paths[1])
			}
		})
	}

	names := make(map[string]string)
	syn, err := parseNamedList("data/x.syn, y=y.syn", names)
	if err != nil {
		t.Fatal(err)
	}
	docs, err := parseNamedList("z.xml", names)
	if err != nil {
		t.Fatal(err)
	}
	want := []namedPath{{"x", "data/x.syn"}, {"y", "y.syn"}}
	if !reflect.DeepEqual(syn, want) || !reflect.DeepEqual(docs, []namedPath{{"z", "z.xml"}}) {
		t.Fatalf("entries %v and %v, want %v and [{z z.xml}]", syn, docs, want)
	}
}
