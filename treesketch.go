// Package treesketch implements TreeSketch synopses for approximate XML
// query answering, reproducing "Approximate XML Query Answers" (Polyzotis,
// Garofalakis, Ioannidis; SIGMOD 2004).
//
// A TreeSketch is a concise graph synopsis of an XML document: a clustering
// of elements in which each cluster stores an element count and each edge
// the average number of children per element. Twig queries evaluated over
// the synopsis yield approximate tree-structured answers and selectivity
// estimates orders of magnitude faster than exact evaluation.
//
// Typical pipeline:
//
//	doc, _ := treesketch.ParseXMLFile("catalog.xml")
//	syn, stats := treesketch.Build(doc, treesketch.BuildOptions{BudgetBytes: 50 << 10})
//	q, _ := treesketch.ParseQuery("//item[//keyword]{//name?}")
//	approx := treesketch.EvaluateApprox(syn, q, treesketch.EvalOptions{})
//	fmt.Println(approx.Selectivity())
//	preview, _ := approx.Expand(0) // approximate nesting tree
//
// The package re-exports the building blocks (documents, count-stable
// summaries, synopses, queries, evaluation results, and the ESD error
// metric) as type aliases; see the internal packages for algorithmic
// detail and DESIGN.md for the system map.
package treesketch

import (
	"io"

	"treesketch/internal/datagen"
	"treesketch/internal/esd"
	"treesketch/internal/eval"
	"treesketch/internal/query"
	"treesketch/internal/sketch"
	"treesketch/internal/stable"
	"treesketch/internal/tsbuild"
	"treesketch/internal/xmltree"
)

// Core data types, re-exported from the implementation packages.
type (
	// Document is a parsed XML document: a rooted node-labeled tree.
	Document = xmltree.Tree
	// Element is one element node of a Document.
	Element = xmltree.Node
	// StableSummary is the lossless count-stable summary (Section 3.2 of
	// the paper) from which TreeSketches are compressed.
	StableSummary = stable.Synopsis
	// Synopsis is a TreeSketch: the compressed graph synopsis.
	Synopsis = sketch.Sketch
	// BuildOptions configures TreeSketch construction (budget, heap
	// bounds).
	BuildOptions = tsbuild.Options
	// BuildStats reports construction telemetry.
	BuildStats = tsbuild.Stats
	// Query is a twig query over the document structure.
	Query = query.Query
	// WorkloadOptions configures random workload generation.
	WorkloadOptions = query.GenOptions
	// Index accelerates exact query evaluation over a document.
	Index = eval.Index
	// ExactResult is the ground-truth answer of a twig query.
	ExactResult = eval.ExactResult
	// ApproxResult is the approximate answer synopsis computed over a
	// TreeSketch.
	ApproxResult = eval.Result
	// EvalOptions configures approximate evaluation.
	EvalOptions = eval.Options
	// ESDNode is a node of the summary DAG compared by the ESD metric.
	ESDNode = esd.Node
	// Maintainer keeps a count-stable summary synchronized with its
	// document under subtree insertions and deletions (an extension beyond
	// the paper's static setting).
	Maintainer = stable.Maintainer
)

// ParseXML reads an XML document from r, keeping only element structure.
func ParseXML(r io.Reader) (*Document, error) { return xmltree.Parse(r) }

// ParseXMLFile reads an XML document from a file.
func ParseXMLFile(path string) (*Document, error) { return xmltree.ParseFile(path) }

// ParseXMLString reads an XML document from a string.
func ParseXMLString(s string) (*Document, error) { return xmltree.ParseString(s) }

// GenerateDataset synthesizes one of the benchmark document families
// ("imdb", "xmark", "swissprot", "dblp") with roughly the given number of
// elements; deterministic in seed.
func GenerateDataset(name string, elements int, seed int64) (*Document, error) {
	d, err := datagen.ParseName(name)
	if err != nil {
		return nil, err
	}
	return datagen.Generate(d, elements, seed), nil
}

// BuildStable computes the unique minimal count-stable summary of doc
// (BuildStable, Figure 4 of the paper). It is lossless: Expand reconstructs
// the document up to sibling order.
func BuildStable(doc *Document) *StableSummary { return stable.Build(doc) }

// Build constructs a TreeSketch of doc within opts.BudgetBytes: it builds
// the count-stable summary and compresses it bottom-up (TSBuild, Figure 5).
func Build(doc *Document, opts BuildOptions) (*Synopsis, BuildStats) {
	return tsbuild.Build(stable.Build(doc), opts)
}

// BuildFromStable compresses an existing count-stable summary, letting
// callers amortize the summary across multiple budgets.
func BuildFromStable(st *StableSummary, opts BuildOptions) (*Synopsis, BuildStats) {
	return tsbuild.Build(st, opts)
}

// NewMaintainer prepares doc for incremental summary maintenance: after
// InsertSubtree / DeleteSubtree updates, Maintainer.CanonicalSynopsis()
// returns the up-to-date count-stable summary, numbered as BuildStable would
// number it, without re-summarizing the document, and BuildFromStable
// compresses it to any budget.
func NewMaintainer(doc *Document) *Maintainer { return stable.NewMaintainer(doc) }

// ParseQuery parses a twig query, e.g. "//a[//b]{//p{//k?},//n?}" (the
// paper's Figure 2 query): '/' and '//' axes, '[path]' existential
// predicates, '{...}' nested child variables, '?' for optional (dashed)
// edges.
func ParseQuery(src string) (*Query, error) { return query.Parse(src) }

// GenerateWorkload samples n positive twig queries against the document
// summarized by st, following the paper's workload methodology.
func GenerateWorkload(st *StableSummary, n int, opts WorkloadOptions) []*Query {
	return query.Generate(st, n, opts)
}

// NewIndex prepares a document for exact evaluation.
func NewIndex(doc *Document) *Index { return eval.NewIndex(doc) }

// EvaluateExact computes the true nesting tree and binding-tuple count.
func EvaluateExact(ix *Index, q *Query) *ExactResult { return eval.Exact(ix, q) }

// EvaluateApprox computes the approximate answer synopsis over a
// TreeSketch (EvalQuery, Figure 7). The result expands to an approximate
// nesting tree and yields a selectivity estimate.
func EvaluateApprox(s *Synopsis, q *Query, opts EvalOptions) *ApproxResult {
	return eval.Approx(s, q, opts)
}

// EstimateSelectivity is a convenience wrapper: the estimated number of
// binding tuples of q over the synopsis (Section 4.4), counted without
// building the result synopsis.
func EstimateSelectivity(s *Synopsis, q *Query) float64 {
	return eval.Count(s, q, eval.Options{}).Selectivity
}

// ESD computes the Element Simulation Distance (Section 5) between two
// answer graphs; use AnswerDistance for the common exact-vs-approximate
// comparison. Nil denotes an empty answer.
func ESD(a, b *ESDNode) float64 { return esd.Distance(a, b) }

// AnswerDistance quantifies the quality of an approximate answer: the ESD
// between the true and the approximate nesting tree (lower is better, 0 is
// a perfect structural match).
func AnswerDistance(exact *ExactResult, approx *ApproxResult) float64 {
	return esd.Distance(exact.ESDGraph(), approx.ESDGraph())
}

// RelativeError is the paper's selectivity error measure:
// |truth-est| / max(truth, sanity).
func RelativeError(truth, est, sanity float64) float64 {
	return eval.RelativeError(truth, est, sanity)
}
