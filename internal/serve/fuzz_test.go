package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"treesketch/internal/eval"
	"treesketch/internal/obs"
	"treesketch/internal/stable"
	"treesketch/internal/tier"
	"treesketch/internal/tsbuild"
	"treesketch/internal/xmltree"
)

// knownCodes is every error code the handlers may answer with: the
// registry in codes.go plus the admission shed reasons.
var knownCodes = map[string]bool{
	codeMissingQuery: true, codeParseError: true, codeQueryTooLong: true, codeBadK: true, codeBadMode: true,
	codeBadOp: true, codeUnknownDataset: true, codeNoExactIndex: true,
	codeMethodNotAllowed: true, codeUpdateRejected: true, codeTupleOverflow: true,
	codeResultTooLarge: true, codeDraining: true, codeDeadlineExceeded: true,
	shedQueueFull: true, shedDeadline: true,
}

// FuzzServe drives the two untrusted HTTP inputs, the raw query string of
// GET /estimate and the body of POST /update, against a server with one
// static dataset (synopsis plus index) and one live stack. Whatever the
// input, the server must not panic or answer 500, every refusal must be a
// JSON body with a registered code, every answered estimate must carry a
// finite, non-negative selectivity, and a fixed probe must still answer
// afterwards.
func FuzzServe(f *testing.F) {
	seeds := []struct{ raw, body string }{
		{"q=//a", `{"op":"insert","parent_oid":0,"subtree":"a(b)"}`},
		{"q=//a[//b]&dataset=static&k=2", `{"op":"delete","oid":2}`},
		{"q=//a{/b?,//d?}&dataset=static&mode=exact&k=3", `{"dataset":"live","op":"insert","parent_oid":1,"subtree":"<a><b/></a>"}`},
		{"q=//e[/d]&dataset=live&k=-1", `{"op":"delete","oid":0}`},
		{"q=%2F%2Fa&dataset=nope", `{"dataset":"static","op":"insert","subtree":"a"}`},
		{"q=//a&mode=bogus", `{"op":"bogus"}`},
		{"q=//[&k=x", `not json`},
		{"", `{"op":"insert","parent_oid":1,"subtree":"a(b*999999999)"}`},
		{"q=//a&dataset=live&mode=exact", `{"op":"insert","extra":1}`},
	}
	for _, s := range seeds {
		f.Add(s.raw, []byte(s.body))
	}
	doc := xmltree.MustCompact("r(a(b(c),b,d),a(b),a,e(d,d))")
	sk, _ := tsbuild.Build(stable.Build(doc), tsbuild.Options{BudgetBytes: 1 << 10})
	ix := eval.NewIndex(doc)

	f.Fuzz(func(t *testing.T, raw string, body []byte) {
		reg := obs.NewRegistry()
		stk, err := tier.New(xmltree.MustCompact("r(a(b,b),a(b),c(d),e(d,d))"), tier.Options{
			BudgetBytes:     1 << 10,
			Synchronous:     true,
			MinCompactElems: math.MaxInt, // FuzzTierUpdates covers compaction
			Metrics:         reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		s := New(Options{Deadline: time.Second, Metrics: reg})
		s.AddSketch("static", sk)
		s.AddIndex("static", ix)
		s.AddStack("live", stk)
		h := s.Handler()

		est := httptest.NewRequest(http.MethodGet, "/estimate", nil)
		est.URL.RawQuery = raw
		checkFuzzResponse(t, h, est, true)
		upd := httptest.NewRequest(http.MethodPost, "/update", bytes.NewReader(body))
		checkFuzzResponse(t, h, upd, false)

		for _, ds := range []string{"static", "live"} {
			probe := httptest.NewRequest(http.MethodGet, "/estimate?q=//a&dataset="+ds, nil)
			if code := checkFuzzResponse(t, h, probe, true); code != http.StatusOK {
				t.Fatalf("probe on %s after raw %q, body %q: status %d", ds, raw, body, code)
			}
		}
	})
}

// checkFuzzResponse serves req and checks FuzzServe's invariants on the
// answer, returning its status.
func checkFuzzResponse(t *testing.T, h http.Handler, req *http.Request, estimate bool) int {
	t.Helper()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code == http.StatusOK {
		if !estimate {
			var ur UpdateResponse
			if err := json.Unmarshal(w.Body.Bytes(), &ur); err != nil {
				t.Fatalf("%s %s: 200 body not JSON: %v", req.Method, req.URL, err)
			}
			return w.Code
		}
		var er EstimateResponse
		if err := json.Unmarshal(w.Body.Bytes(), &er); err != nil {
			t.Fatalf("%s %s: 200 body not JSON: %v", req.Method, req.URL, err)
		}
		if math.IsNaN(er.Selectivity) || math.IsInf(er.Selectivity, 0) || er.Selectivity < 0 {
			t.Fatalf("%s %s: selectivity %v", req.Method, req.URL, er.Selectivity)
		}
		return w.Code
	}
	if w.Code >= 500 && w.Code != http.StatusServiceUnavailable {
		t.Fatalf("%s %s: status %d: %s", req.Method, req.URL, w.Code, w.Body)
	}
	var e errorResponse
	if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil || !knownCodes[e.Code] {
		t.Fatalf("%s %s: status %d body %q: want JSON with a registered code (err %v)", req.Method, req.URL, w.Code, w.Body, err)
	}
	return w.Code
}
