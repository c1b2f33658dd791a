package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"treesketch/internal/eval"
	"treesketch/internal/obs"
	"treesketch/internal/query"
	"treesketch/internal/tier"
	"treesketch/internal/xmltree"
)

// newLiveServer builds a Server publishing one live dataset backed by a tier
// stack over a small compact-syntax document.
func newLiveServer(t *testing.T, doc string, topts tier.Options) (*Server, *tier.Stack) {
	t.Helper()
	reg := obs.NewRegistry()
	if topts.BudgetBytes == 0 {
		topts.BudgetBytes = 4096
	}
	topts.Metrics = reg
	stk, err := tier.New(xmltree.MustCompact(doc), topts)
	if err != nil {
		t.Fatal(err)
	}
	s := New(Options{Metrics: reg})
	s.AddStack("live", stk)
	return s, stk
}

// postUpdate sends req to ts and decodes the response body into out (a
// *UpdateResponse or *errorResponse), returning the status code.
func postUpdate(t *testing.T, ts *httptest.Server, req UpdateRequest, out any) int {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+"/update", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

func estimate(t *testing.T, ts *httptest.Server, q string) EstimateResponse {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/estimate?q=" + urlQueryEscape(q))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("estimate %s: status %d", q, resp.StatusCode)
	}
	var er EstimateResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatal(err)
	}
	return er
}

func TestUpdateEndToEnd(t *testing.T) {
	s, stk := newLiveServer(t, "r(a(b),a(b))", tier.Options{Synchronous: true})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if got := estimate(t, ts, "//a/b"); got.Selectivity != 2 {
		t.Fatalf("baseline //a/b selectivity %v, want 2", got.Selectivity)
	}

	// Insert a(b) under the root: //a/b goes 2 -> 3, served from base+delta.
	var ur UpdateResponse
	if code := postUpdate(t, ts, UpdateRequest{Op: "insert", ParentOID: stk.Doc().Root.OID, Subtree: "a(b)"}, &ur); code != 200 {
		t.Fatalf("insert status %d (%+v)", code, ur)
	}
	if ur.Dataset != "live" || ur.Op != "insert" || ur.OID == 0 {
		t.Errorf("insert response %+v", ur)
	}
	if ur.Elems != 7 || ur.DeltaElems != 2 || ur.Tiers == 0 {
		t.Errorf("insert response shape %+v, want elems 7, delta 2, tiers > 0", ur)
	}
	if ur.TraceID == "" || ur.Seconds <= 0 {
		t.Errorf("insert trace/seconds %+v", ur)
	}

	er := estimate(t, ts, "//a/b")
	if er.Selectivity != 3 {
		t.Errorf("post-insert //a/b selectivity %v, want 3", er.Selectivity)
	}
	if er.Tier == nil {
		t.Fatal("live estimate has no tier block")
	}
	if er.Tier.BaseSelectivity != 2 || er.Tier.Delta != 1 || er.Tier.DeltaElems != 2 {
		t.Errorf("tier block %+v, want base 2 delta 1 delta_elems 2", er.Tier)
	}

	// Delete the inserted subtree: back to the baseline answer.
	if code := postUpdate(t, ts, UpdateRequest{Op: "delete", OID: ur.OID}, &ur); code != 200 {
		t.Fatalf("delete status %d", code)
	}
	if ur.Op != "delete" || ur.Elems != 5 || ur.DeltaElems != 0 {
		t.Errorf("delete response %+v, want elems 5, delta 0", ur)
	}
	if got := estimate(t, ts, "//a/b").Selectivity; got != 2 {
		t.Errorf("post-delete //a/b selectivity %v, want 2", got)
	}

	snap := s.Registry().Snapshot()
	if snap.Counters["serve.http.updates"] != 2 {
		t.Errorf("updates counter = %d, want 2", snap.Counters["serve.http.updates"])
	}
	if snap.Counters["tier.absorbs"] != 2 {
		t.Errorf("tier.absorbs = %d, want 2", snap.Counters["tier.absorbs"])
	}
}

func TestUpdateXMLSubtree(t *testing.T) {
	s, stk := newLiveServer(t, "r(a(b))", tier.Options{Synchronous: true})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var ur UpdateResponse
	req := UpdateRequest{Op: "insert", ParentOID: stk.Doc().Root.OID, Subtree: "<a><b/><b/></a>"}
	if code := postUpdate(t, ts, req, &ur); code != 200 {
		t.Fatalf("XML insert status %d", code)
	}
	if got := estimate(t, ts, "//a/b").Selectivity; got != 3 {
		t.Errorf("//a/b selectivity %v after XML insert, want 3", got)
	}
}

func TestUpdateErrors(t *testing.T) {
	s, stk := newLiveServer(t, "r(a(b))", tier.Options{Synchronous: true})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Non-POST methods are refused outright.
	resp, err := ts.Client().Get(ts.URL + "/update")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /update: status %d, want 405", resp.StatusCode)
	}

	check := func(req UpdateRequest, wantStatus int, wantCode string) {
		t.Helper()
		var er errorResponse
		if code := postUpdate(t, ts, req, &er); code != wantStatus || er.Code != wantCode {
			t.Errorf("%+v: status %d code %q, want %d %q", req, code, er.Code, wantStatus, wantCode)
		}
	}
	check(UpdateRequest{Op: "rename"}, 400, "bad_op")
	check(UpdateRequest{Op: "insert", Dataset: "nope", ParentOID: 0, Subtree: "a"}, 404, "unknown_dataset")
	check(UpdateRequest{Op: "insert", ParentOID: 1 << 30, Subtree: "a"}, 422, "update_rejected")
	check(UpdateRequest{Op: "insert", ParentOID: stk.Doc().Root.OID, Subtree: "a(("}, 400, "parse_error")
	check(UpdateRequest{Op: "delete", OID: stk.Doc().Root.OID}, 422, "update_rejected")
	check(UpdateRequest{Op: "delete", OID: 1 << 30}, 422, "update_rejected")

	// Malformed JSON body.
	resp, err = ts.Client().Post(ts.URL+"/update", "application/json", bytes.NewReader([]byte("{nope")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Errorf("malformed body: status %d, want 400", resp.StatusCode)
	}

	// None of the rejected updates touched the document.
	if stk.Doc().Size() != 3 {
		t.Errorf("document size %d after rejected updates, want 3", stk.Doc().Size())
	}
}

// TestUpdateReplicationBombRejected sends a body of about 60 bytes whose
// compact subtree asks for 2e10 replicas of one element. The parser must
// refuse the count before allocating for it: the update gets a 400
// parse_error, and the server keeps answering.
func TestUpdateReplicationBombRejected(t *testing.T) {
	s, stk := newLiveServer(t, "r(a(b))", tier.Options{Synchronous: true})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := `{"op":"insert","parent_oid":1,"subtree":"a*20000000000"}`
	resp, err := ts.Client().Post(ts.URL+"/update", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	var er errorResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || er.Code != "parse_error" {
		t.Fatalf("replication bomb: status %d code %q, want 400 parse_error", resp.StatusCode, er.Code)
	}
	if got := estimate(t, ts, "//a/b").Selectivity; got != 1 {
		t.Fatalf("//a/b selectivity %v after the rejected update, want 1", got)
	}
	if stk.Doc().Size() != 3 {
		t.Fatalf("document size %d after the rejected update, want 3", stk.Doc().Size())
	}
}

func TestUpdateDuringCompactionDoesNotBlockEstimates(t *testing.T) {
	// Thresholds low enough that the insert below trips a background
	// compaction, with the build phase stretched so the follow-up estimate
	// provably overlaps it.
	const delay = 250 * time.Millisecond
	s, stk := newLiveServer(t, "r(a(b),a(b),c(d))", tier.Options{
		MinCompactElems: 1,
		CompactFraction: 0.01,
		CompactDelay:    delay,
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var ur UpdateResponse
	req := UpdateRequest{Op: "insert", ParentOID: stk.Doc().Root.OID, Subtree: "a(b)"}
	if code := postUpdate(t, ts, req, &ur); code != 200 {
		t.Fatalf("insert status %d", code)
	}
	if !ur.Compacting {
		t.Fatal("insert did not report the in-flight compaction it triggered")
	}

	begin := time.Now()
	er := estimate(t, ts, "//a/b")
	took := time.Since(begin)
	if er.Tier == nil || !er.Tier.Compacting {
		t.Fatalf("estimate during compaction: tier block %+v, want compacting", er.Tier)
	}
	if er.Selectivity != 3 {
		t.Errorf("estimate during compaction: selectivity %v, want 3", er.Selectivity)
	}
	if took > delay/2 {
		t.Errorf("estimate took %v during a %v compaction; the query path blocked", took, delay)
	}
	stk.Compact()
	if got := estimate(t, ts, "//a/b"); got.Selectivity != 3 || got.Tier.Tiers != 0 {
		t.Errorf("post-compaction estimate %+v, want selectivity 3 over 0 tiers", got)
	}
}

// TestExactModeOnLiveDataset: a live dataset answers ?mode=exact from its
// stack's summary, which follows every update. After a run of inserts and
// deletes the answer equals eval.Exact on the maintained document, and an
// update between two exact requests changes the answer, so a summary
// served past its sequence number fails here.
func TestExactModeOnLiveDataset(t *testing.T) {
	s, stk := newLiveServer(t, "r(a(b),a(b,c),c(a(b)))", tier.Options{Synchronous: true})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	q := query.MustParse("//a{//b,/c?}")
	path := "/estimate?mode=exact&q=" + urlQueryEscape(q.String())
	exact := func() float64 {
		t.Helper()
		ex := eval.Exact(eval.NewIndex(stk.Doc()), q)
		er := getEstimate(t, ts, path)
		if er.Selectivity != ex.Tuples || er.Empty != ex.Empty || er.Tier != nil {
			t.Fatalf("live exact answer %v (empty %v, tier %+v), eval.Exact %v (empty %v)",
				er.Selectivity, er.Empty, er.Tier, ex.Tuples, ex.Empty)
		}
		return er.Selectivity
	}

	before := exact()
	var oids []int
	for _, sub := range []string{"a(b,b)", "a(a(b),c)", "c(a(b,b,b))"} {
		var ur UpdateResponse
		req := UpdateRequest{Op: "insert", ParentOID: stk.Doc().Root.OID, Subtree: sub}
		if code := postUpdate(t, ts, req, &ur); code != 200 {
			t.Fatalf("insert %s: status %d", sub, code)
		}
		oids = append(oids, ur.OID)
		exact()
	}
	if code := postUpdate(t, ts, UpdateRequest{Op: "delete", OID: oids[1]}, &UpdateResponse{}); code != 200 {
		t.Fatalf("delete: status %d", code)
	}
	after := exact()
	if after == before {
		t.Fatalf("exact answer %v did not move across the updates", after)
	}
	if code := postUpdate(t, ts, UpdateRequest{Op: "delete", OID: oids[2]}, &UpdateResponse{}); code != 200 {
		t.Fatalf("delete: status %d", code)
	}
	if got := exact(); got == after {
		t.Fatalf("exact answer %v unchanged by a delete between two requests", got)
	}
}

func TestUpdateShedWhileDraining(t *testing.T) {
	s, stk := newLiveServer(t, "r(a(b))", tier.Options{Synchronous: true})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	s.StartDrain()
	var er errorResponse
	req := UpdateRequest{Op: "insert", ParentOID: stk.Doc().Root.OID, Subtree: "a"}
	if code := postUpdate(t, ts, req, &er); code != 503 || er.Code != "draining" {
		t.Errorf("draining update: status %d code %q, want 503 draining", code, er.Code)
	}
	if stk.Doc().Size() != 3 {
		t.Errorf("draining update mutated the document (size %d)", stk.Doc().Size())
	}
}
