package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestHTTPRoundTrip drives the full JSON API over a real listener:
// create → edits → assignment → metrics → delete, plus the typed-error
// status mapping for the interesting failure shapes.
func TestHTTPRoundTrip(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	post := func(path string, body any) (*http.Response, []byte) {
		t.Helper()
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp, buf.Bytes()
	}
	get := func(path string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp, buf.Bytes()
	}

	// Create a session.
	resp, body := post("/graphs", GraphSpec{MeshN: 200, Seed: 3, P: 4})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: status %d, body %s", resp.StatusCode, body)
	}
	var info GraphInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatalf("create reply: %v", err)
	}
	if info.ID == "" || info.P != 4 || info.Version != 1 {
		t.Fatalf("create reply: %+v", info)
	}

	// Submit edits; an omitted "v" must decode as -1 (unused), not
	// vertex 0 — attach_vertex with only "u" adds exactly one edge.
	resp, body = post("/graphs/"+info.ID+"/edits", map[string]any{
		"edits": []map[string]any{
			{"op": "attach_vertex", "u": 5},
			{"op": "set_vertex_weight", "u": 7, "weight": 2.5},
		},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("edits: status %d, body %s", resp.StatusCode, body)
	}
	var er Response
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatalf("edits reply: %v", err)
	}
	if er.Version < 2 || er.Metrics.BatchEdits < 2 {
		t.Fatalf("edits reply: %+v", er)
	}

	// Assignment reflects the grown graph (one vertex added).
	resp, body = get("/graphs/" + info.ID + "/assignment")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("assignment: status %d", resp.StatusCode)
	}
	var ar assignmentReply
	if err := json.Unmarshal(body, &ar); err != nil {
		t.Fatalf("assignment reply: %v", err)
	}
	if ar.Version != er.Version || ar.P != 4 || len(ar.Parts) != info.Vertices+1 {
		t.Fatalf("assignment reply: version=%d p=%d len=%d (want version=%d p=4 len=%d)",
			ar.Version, ar.P, len(ar.Parts), er.Version, info.Vertices+1)
	}

	// Metrics report the serve ledger.
	resp, body = get("/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: status %d", resp.StatusCode)
	}
	var ms MetricsSnapshot
	if err := json.Unmarshal(body, &ms); err != nil {
		t.Fatalf("metrics reply: %v", err)
	}
	if ms.RequestsServed < 1 || ms.GraphsCreated != 1 || ms.SessionsActive != 1 {
		t.Fatalf("metrics reply: %+v", ms)
	}

	// Typed-error status mapping.
	if resp, _ := post("/graphs/nope/edits", map[string]any{"edits": []map[string]any{{"op": "add_vertex"}}}); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown graph: status %d, want 404", resp.StatusCode)
	}
	if resp, _ := post("/graphs/"+info.ID+"/edits", map[string]any{"edits": []map[string]any{}}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty edits: status %d, want 400", resp.StatusCode)
	}
	if resp, _ := post("/graphs", GraphSpec{MeshN: 100, P: 1}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad p: status %d, want 400", resp.StatusCode)
	}

	// A timeout_ms that has no chance sheds with 504 and leaves the
	// session healthy for the next request.
	resp, _ = post("/graphs/"+info.ID+"/edits", map[string]any{
		"edits":      []map[string]any{{"op": "add_vertex"}},
		"timeout_ms": 0, // 0 = no deadline; exercise the knob parse path
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("no-deadline edits: status %d", resp.StatusCode)
	}

	// Delete, then every path 404s/410s.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/graphs/"+info.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("DELETE: %v", err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: status %d, want 204", dresp.StatusCode)
	}
	if resp, _ := get("/graphs/" + info.ID + "/assignment"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("assignment after delete: status %d, want 404", resp.StatusCode)
	}
}

// TestHTTPEditDecodeDefaults locks the wire contract of Edit.V: an
// omitted "v" decodes as -1, an explicit 0 stays 0.
func TestHTTPEditDecodeDefaults(t *testing.T) {
	var e Edit
	if err := json.Unmarshal([]byte(`{"op":"attach_vertex","u":3}`), &e); err != nil {
		t.Fatal(err)
	}
	if e.V != -1 {
		t.Fatalf("omitted v = %d, want -1", e.V)
	}
	if err := json.Unmarshal([]byte(`{"op":"add_edge","u":3,"v":0}`), &e); err != nil {
		t.Fatal(err)
	}
	if e.V != 0 {
		t.Fatalf("explicit v=0 decoded as %d", e.V)
	}
	var fromOp Edit
	if err := json.Unmarshal([]byte(fmt.Sprintf(`{"op":%q,"u":1}`, OpRemoveVertex)), &fromOp); err != nil {
		t.Fatal(err)
	}
	if fromOp.Op != OpRemoveVertex {
		t.Fatalf("op round-trip: %q", fromOp.Op)
	}
}

// TestHTTPBodyCap: a create or edits body past maxBodyBytes is refused
// with 413 before it is buffered whole, while a malformed body under the
// cap still gets 400.
func TestHTTPBodyCap(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	h := srv.Handler()
	huge := `{"p": 4, "pad": "` + strings.Repeat("x", maxBodyBytes) + `"}`
	for _, c := range []struct {
		name, path, body string
		want             int
	}{
		{"create over cap", "/graphs", huge, http.StatusRequestEntityTooLarge},
		{"edits over cap", "/graphs/g1/edits", huge, http.StatusRequestEntityTooLarge},
		{"create malformed", "/graphs", `{"p": `, http.StatusBadRequest},
		{"edits malformed", "/graphs/g1/edits", `{"edits": [`, http.StatusBadRequest},
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, c.path, strings.NewReader(c.body)))
		if rec.Code != c.want {
			t.Errorf("%s: status %d, want %d (body %.200s)", c.name, rec.Code, c.want, rec.Body.String())
		}
	}
}
