package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"net/url"
	"sort"

	"treesketch/internal/datagen"
	"treesketch/internal/eval"
	"treesketch/internal/exp"
	"treesketch/internal/query"
	"treesketch/internal/stable"
	"treesketch/internal/xmltree"
)

// The workloads, in BENCHMARK.json order:
//
//   - build: the paper's offline path. One operation parses a 100k-element
//     XMark document from its XML bytes, builds the count-stable summary,
//     compresses it to a 10 KB TreeSketch and encodes it, all on one
//     goroutine. Every build must fingerprint and encode identically, the
//     first must pass tsbuild.VerifyAgainstStable, and the encoding must
//     decode to the same synopsis, which then answers the accuracy probe
//     over HTTP.
//   - estimate-hot: XMark-TX (100k elements) at 10 KB behind the HTTP
//     server; closed-loop clients draw from a pool of 64 default-generator
//     twigs by Zipf(s=1.1). Evaluation is a small share of each request, and
//     nearly every request repeats an earlier query text, so the fixed
//     request path dominates and anything cached by query text hits. Every
//     answer is checked bit-equal against in-process eval.Approx.
//   - estimate-cold: IMDB-TX, XMark-TX and SProt-TX (100k elements each) at
//     50 KB in one server; the queries are the distinct heavy twigs of
//     160,000 generator draws per dataset (about 150k in all), in seeded
//     order. A run sends each at most once: the timed phase ends when they
//     run out, which at about 2.5k requests a second takes more than twice
//     the 25-s phase. Evaluation dominates and no query repeats. The first
//     200 queries per dataset are checked wherever they are answered.
//   - live-mixed: a live XMark-TX (30k elements) at 20 KB; one seeded
//     sequence of one update per four estimates, where each update waits for
//     the previous one and each estimate for the updates before it. Inserts
//     copy a subtree of at most 64 elements under an element of the right
//     parent label; deletes remove a subtree the script inserted. After the
//     timed phase the script deletes what it still holds and the stack is
//     compacted: its base must fingerprint like a rebuild of the final
//     document.
//
// The request mixes are synthetic: no public trace of an optimizer's calls
// to a selectivity service, or of XML update traffic, fixes them. Each is
// chosen for the property it isolates. The Zipf skew makes almost every
// request a repeat (the opposite of estimate-cold). The update share makes
// a 25-s run span five or six background compactions while estimates see
// 15-20 delta tiers on average, and the 64-element cap keeps every absorb a
// small, bounded unit.
//
// The documents and query pools come from the repository's generators at
// fixed seeds, so every seed measures the same data and the accuracy
// metric is exact; --seed draws the request order, the Zipf stream and the
// update script. The build workload has no request stream, and its input
// is the same for every seed.
var workloadNames = []string{"build", "estimate-hot", "estimate-cold", "live-mixed"}

func newWorkload(name string) (workload, bool) {
	switch name {
	case "build":
		return &buildWorkload{}, true
	case "estimate-hot":
		return &estimateWorkload{cold: false}, true
	case "estimate-cold":
		return &estimateWorkload{cold: true}, true
	case "live-mixed":
		return &liveWorkload{}, true
	}
	return nil, false
}

// sizes are the input sizes of the workloads. defaultSizes is the
// benchmark; tests shrink it.
type sizes struct {
	buildElems  int // build: XMark elements
	buildKB     int // build: synopsis budget
	buildProbe  int // build: accuracy probe queries
	hotElems    int // estimate-hot: XMark-TX elements
	hotKB       int // estimate-hot: synopsis budget
	hotPool     int // estimate-hot: distinct queries of the Zipf pool
	coldElems   int // estimate-cold: elements of each document
	coldKB      int // estimate-cold: synopsis budget of each document
	coldDraws   int // estimate-cold: generator draws per dataset
	coldProbe   int // estimate-cold: checked queries per dataset
	liveElems   int // live-mixed: XMark-TX elements
	liveKB      int // live-mixed: synopsis budget of the compacted base
	livePool    int // live-mixed: distinct estimate queries
	maxProto    int // live-mixed: largest inserted subtree
	updateEvery int // live-mixed: operation i is an update when i%updateEvery == 0
}

var defaultSizes = sizes{
	buildElems:  100000,
	buildKB:     10,
	buildProbe:  100,
	hotElems:    100000,
	hotKB:       10,
	hotPool:     64,
	coldElems:   100000,
	coldKB:      50,
	coldDraws:   160000,
	coldProbe:   200,
	liveElems:   30000,
	liveKB:      20,
	livePool:    64,
	maxProto:    64,
	updateEvery: 5,
}

// projected_heap_mb is reported at refRequests requests on the serving
// workloads and at refBuilds builds on build.
const (
	refRequests = 100000
	refBuilds   = 100
)

// Fixed generator seeds: the datasets and query pools are the same on every
// run, so --seed varies only the order and mix of operations.
const (
	docSeed  = 1
	poolSeed = 2
)

// doc generates a dataset and returns it as XML bytes together with the
// tree the server will see: the parse of those bytes, whose OIDs are the
// server's.
func doc(d datagen.Dataset, elems int) ([]byte, *xmltree.Tree, error) {
	var buf bytes.Buffer
	if err := datagen.Generate(d, elems, docSeed).Write(&buf); err != nil {
		return nil, nil, fmt.Errorf("write %v: %w", d, err)
	}
	t, err := xmltree.Parse(bytes.NewReader(buf.Bytes()))
	if err != nil {
		return nil, nil, fmt.Errorf("parse %v: %w", d, err)
	}
	return buf.Bytes(), t, nil
}

// probeItem is one query of an accuracy probe with its ground truth.
type probeItem struct {
	ds     string
	text   string
	q      *query.Query // the parse of text
	truth  float64      // exact selectivity on the document
	sanity float64      // the dataset's sanity bound (exp.SanityBound)
	want   float64      // the answer expected from the server, set in start
	url    string       // set in start
}

// probe returns the generated queries whose exact count does not overflow,
// at most n of them, with their truths on t and the paper's sanity bound.
func probe(ds string, t *xmltree.Tree, qs []*query.Query, n int) ([]probeItem, error) {
	ix := eval.NewIndex(t)
	var out []probeItem
	var truths []exp.WorkloadItem
	for _, g := range qs {
		if len(out) == n {
			break
		}
		text := g.String()
		q, err := query.Parse(text)
		if err != nil {
			return nil, fmt.Errorf("generated query %q does not parse: %w", text, err)
		}
		ex := eval.Exact(ix, q)
		if ex.Overflow || math.IsInf(ex.Tuples, 0) {
			continue
		}
		out = append(out, probeItem{ds: ds, text: text, q: q, truth: ex.Tuples})
		truths = append(truths, exp.WorkloadItem{Truth: ex.Tuples})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: empty probe", ds)
	}
	s := exp.SanityBound(truths)
	for i := range out {
		out[i].sanity = s
	}
	return out, nil
}

// estimateURL is the GET /estimate URL of query text on dataset ds.
func estimateURL(base, ds, text string) string {
	return base + "/estimate?dataset=" + url.QueryEscape(ds) + "&q=" + url.QueryEscape(text)
}

// pool generates n default-generator twigs over t's count-stable summary
// and returns them with the summary's class count.
func pool(t *xmltree.Tree, n int) ([]*query.Query, int) {
	st := stable.Build(t)
	return query.Generate(st, n, query.GenOptions{Seed: poolSeed}), len(st.Nodes)
}

// mix is a splitmix64 step: a deterministic per-(seed, i) draw that does
// not depend on which worker takes operation i.
func mix(seed int64, i int) uint64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i)*0xbf58476d1ce4e5b9 + 0x94d049bb133111eb
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// unit maps a draw to [0, 1).
func unit(z uint64) float64 { return float64(z>>11) / (1 << 53) }

// zipf is the cumulative distribution of Zipf(s) over ranks 0..n-1.
type zipf []float64

func newZipf(n int, s float64) zipf {
	c := make(zipf, n)
	var sum float64
	for r := range c {
		sum += math.Pow(float64(r+1), -s)
		c[r] = sum
	}
	for r := range c {
		c[r] /= sum
	}
	return c
}

// rank returns the rank a uniform u in [0, 1) falls on.
func (z zipf) rank(u float64) int {
	return min(sort.SearchFloat64s(z, u), len(z)-1)
}

// shuffled returns a seeded permutation of 0..n-1.
func shuffled(seed int64, n int) []int {
	return rand.New(rand.NewSource(seed)).Perm(n)
}
