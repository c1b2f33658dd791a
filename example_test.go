package treesketch_test

import (
	"fmt"

	"treesketch"
)

// The full pipeline: parse, summarize, query approximately, compare with
// the exact answer.
func Example() {
	doc, _ := treesketch.ParseXMLString(
		`<bib><author><name/><paper><title/></paper><paper><title/></paper></author>` +
			`<author><name/><paper><title/></paper></author></bib>`)
	syn, _ := treesketch.Build(doc, treesketch.BuildOptions{BudgetBytes: 4096})
	q, _ := treesketch.ParseQuery("//author{//paper}")

	approx := treesketch.EvaluateApprox(syn, q, treesketch.EvalOptions{})
	exact := treesketch.EvaluateExact(treesketch.NewIndex(doc), q)
	fmt.Printf("estimated %.0f, true %.0f, ESD %.0f\n",
		approx.Selectivity(), exact.Tuples, treesketch.AnswerDistance(exact, approx))
	// Output: estimated 3, true 3, ESD 0
}

func ExampleParseQuery() {
	// The paper's Figure 2 query: authors with a book; return their
	// papers' keywords and their name.
	q, _ := treesketch.ParseQuery("//a[//b]{//p{//k?},//n?}")
	fmt.Println(q.NumVars(), "variables:", q)
	// Output: 5 variables: //a[//b]{//p{//k?},//n?}
}

func ExampleBuildStable() {
	doc, _ := treesketch.ParseXMLString(
		`<r><a><b/></a><a><b/></a><a><b/></a></r>`)
	st := treesketch.BuildStable(doc)
	// Three identical a(b) subtrees collapse into one class each for r, a, b.
	fmt.Println(st.NumNodes(), "classes for", doc.Size(), "elements")
	// Output: 3 classes for 7 elements
}

func ExampleApproxResult_Expand() {
	doc, _ := treesketch.ParseXMLString(`<r><a><b/><b/></a><a><b/><b/></a></r>`)
	syn, _ := treesketch.Build(doc, treesketch.BuildOptions{BudgetBytes: 4096})
	q, _ := treesketch.ParseQuery("//a{/b}")
	preview, _ := treesketch.EvaluateApprox(syn, q, treesketch.EvalOptions{}).Expand(0)
	fmt.Println(preview.Compact())
	// Output: r(a(b,b),a(b,b))
}

func ExampleNewMaintainer() {
	doc, _ := treesketch.ParseXMLString(`<r><a><b/></a></r>`)
	m := treesketch.NewMaintainer(doc)

	// A new record arrives; the summary follows incrementally.
	rec, _ := treesketch.ParseXMLString(`<a><b/><b/></a>`)
	m.InsertSubtree(doc.Root, rec)
	fmt.Println("classes after insert:", m.CanonicalSynopsis().NumNodes())

	// And the old record is retired.
	m.DeleteSubtree(doc.Root.Children[0])
	fmt.Println("classes after delete:", m.CanonicalSynopsis().NumNodes())
	// Output:
	// classes after insert: 4
	// classes after delete: 3
}

func ExampleGenerateDataset() {
	doc, _ := treesketch.GenerateDataset("dblp", 1000, 42)
	fmt.Println(doc.Root.Label, doc.Size() >= 1000)
	// Output: dblp true
}
