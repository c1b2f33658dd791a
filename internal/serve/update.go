package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"

	"treesketch/internal/obs"
	"treesketch/internal/xmltree"
)

// maxUpdateBody bounds a POST /update request body. An update carries one
// subtree in compact or XML syntax; a megabyte is orders of magnitude above
// any sane increment and merely keeps a misbehaving client from streaming
// the server's memory full before json.Decode notices.
const maxUpdateBody = 1 << 20

// UpdateRequest is the JSON body of POST /update.
type UpdateRequest struct {
	// Dataset names the live dataset to mutate; may be omitted when exactly
	// one live dataset is published.
	Dataset string `json:"dataset,omitempty"`
	// Op is "insert" or "delete".
	Op string `json:"op"`
	// ParentOID addresses the element adopting the inserted subtree
	// (insert only).
	ParentOID int `json:"parent_oid,omitempty"`
	// OID addresses the subtree root to remove (delete only).
	OID int `json:"oid,omitempty"`
	// Subtree is the inserted subtree, in compact syntax ("a(b,b)") or XML
	// if it starts with '<' (insert only).
	Subtree string `json:"subtree,omitempty"`
}

// UpdateResponse is the JSON body of a successful POST /update.
type UpdateResponse struct {
	TraceID string `json:"trace_id"`
	Dataset string `json:"dataset"`
	Op      string `json:"op"`
	// OID is the adopted subtree root for an insert, the removed root for a
	// delete.
	OID int `json:"oid"`
	// Elems is the live document's element count after the update.
	Elems int `json:"elems"`
	// DeltaElems and Tiers describe the stack's uncompacted delta right
	// after the absorb; Epoch counts compactions folded into the base so
	// far; Compacting reports an in-flight background compaction (possibly
	// the one this update triggered — the response never waits on it).
	DeltaElems int     `json:"delta_elems"`
	Tiers      int     `json:"tiers"`
	Epoch      uint64  `json:"epoch"`
	Compacting bool    `json:"compacting,omitempty"`
	Seconds    float64 `json:"seconds"`
}

// handleUpdate serves POST /update: it admits the request through the same
// gate /estimate uses (updates compete with queries for serving capacity),
// decodes an insert or delete against a live dataset's tier stack, and
// reports the stack's post-absorb shape. The absorb itself is the only
// synchronous work — if it tips the stack over its compaction threshold the
// rebuild runs on a background goroutine and the response returns
// immediately with compacting=true.
func (s *Server) handleUpdate(w http.ResponseWriter, r *http.Request) {
	s.mRequests.Inc()
	s.mUpdates.Inc()
	s.gInflight.Add(1)
	defer s.gInflight.Add(-1)

	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		s.fail(w, http.StatusMethodNotAllowed, codeMethodNotAllowed, "", "POST only")
		return
	}

	ctx := r.Context()
	if s.deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.deadline)
		defer cancel()
	}
	tr := s.reg.NewTrace("update")
	defer tr.Release()
	ctx = obs.ContextWithTrace(ctx, tr)

	if s.draining.Load() {
		s.mDrainShed.Inc()
		s.shed(w, tr, codeDraining, "server is draining")
		return
	}
	if s.gate != nil {
		if reason := s.gate.acquire(ctx, tr); reason != "" {
			s.shed(w, tr, reason, "server overloaded: "+reason)
			return
		}
		defer s.gate.release()
	}

	var req UpdateRequest
	ds := tr.StartSpan("serve.decode")
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxUpdateBody))
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	ds.End()
	if err != nil {
		s.fail(w, http.StatusBadRequest, codeParseError, tr.IDString(), fmt.Sprintf("decode body: %v", err))
		return
	}
	if req.Op != "insert" && req.Op != "delete" {
		s.fail(w, http.StatusBadRequest, codeBadOp, tr.IDString(),
			fmt.Sprintf("op must be insert or delete, got %q", req.Op))
		return
	}

	d, dsName, ok := s.resolve(req.Dataset, true)
	if !ok {
		s.mNotFound.Inc()
		s.fail(w, http.StatusNotFound, codeUnknownDataset, tr.IDString(),
			fmt.Sprintf("no live dataset %q (static datasets cannot be updated; restart tsserve with -live)", req.Dataset))
		return
	}
	tr.SetLabel("dataset", dsName)
	tr.SetLabel("op", req.Op)

	st := d.stack
	var oid int
	as := tr.StartSpan("serve.absorb")
	switch req.Op {
	case "insert":
		var proto *xmltree.Tree
		if strings.HasPrefix(strings.TrimSpace(req.Subtree), "<") {
			proto, err = xmltree.ParseString(req.Subtree)
		} else {
			proto, err = xmltree.BuildCompact(req.Subtree)
		}
		if err != nil {
			as.End()
			s.fail(w, http.StatusBadRequest, codeParseError, tr.IDString(), fmt.Sprintf("subtree: %v", err))
			return
		}
		oid, err = st.Insert(req.ParentOID, proto)
	case "delete":
		oid, err = req.OID, st.Delete(req.OID)
	}
	as.End()
	if err != nil {
		// The stack refused the mutation (unknown OID, root delete): the
		// request was well-formed but not applicable to the live document.
		s.fail(w, http.StatusUnprocessableEntity, codeUpdateRejected, tr.IDString(), err.Error())
		return
	}

	v := st.View()
	resp := UpdateResponse{
		TraceID:    tr.IDString(),
		Dataset:    dsName,
		Op:         req.Op,
		OID:        oid,
		Elems:      v.Elems,
		DeltaElems: v.DeltaElems(),
		Tiers:      v.Tiers(),
		Epoch:      v.Epoch,
		Compacting: st.Compacting(),
	}
	total := tr.Finish()
	resp.Seconds = total.Seconds()
	if s.rec.Record(tr) {
		s.mRetained.Inc()
	}
	s.wLatency.Observe(total.Seconds())
	if s.draining.Load() {
		s.mDrainDone.Inc()
	}
	enc := s.reg.StartSpan("serve.encode")
	s.writeJSON(w, http.StatusOK, resp)
	enc.End()
}
