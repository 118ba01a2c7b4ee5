package serve

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"time"
)

// Handler returns the server's HTTP/JSON API:
//
//	POST   /graphs                  create a session       (GraphSpec → GraphInfo)
//	POST   /graphs/{id}/edits       submit an edit batch   (editsRequest → Response)
//	GET    /graphs/{id}/assignment  read the assignment    (assignmentReply)
//	DELETE /graphs/{id}             evict the session
//	GET    /metrics                 server-wide counters   (MetricsSnapshot)
//
// Shed responses use distinct status codes so clients can back off
// correctly: 429 for queue/in-flight sheds (retry later), 504 for
// deadline sheds (the edits may already be applied; poll the
// assignment version), 410 for a session that closed mid-request.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /graphs", s.handleCreate)
	mux.HandleFunc("POST /graphs/{id}/edits", s.handleEdits)
	mux.HandleFunc("GET /graphs/{id}/assignment", s.handleAssignment)
	mux.HandleFunc("DELETE /graphs/{id}", s.handleDrop)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

// editsRequest is the POST /graphs/{id}/edits body. TimeoutMS > 0 sets
// the request deadline (merged across the batch into the repartition's
// context); 0 means no deadline.
type editsRequest struct {
	Edits     []Edit `json:"edits"`
	TimeoutMS int    `json:"timeout_ms,omitempty"`
}

// assignmentReply is the GET /graphs/{id}/assignment body. Parts[v] is
// vertex v's partition id (-1 = unassigned or dead slot).
type assignmentReply struct {
	Version uint64  `json:"version"`
	P       int     `json:"p"`
	Parts   []int32 `json:"parts"`
}

type errorReply struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// writeError maps the typed service errors onto HTTP statuses.
func writeError(w http.ResponseWriter, err error) {
	code := http.StatusBadRequest
	switch {
	case errors.Is(err, ErrNoGraph):
		code = http.StatusNotFound
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrOverloaded):
		code = http.StatusTooManyRequests
	case errors.Is(err, ErrDeadline):
		code = http.StatusGatewayTimeout
	case errors.Is(err, ErrSessionClosed), errors.Is(err, ErrServerClosed):
		code = http.StatusGone
	}
	writeJSON(w, code, errorReply{Error: err.Error()})
}

// maxBodyBytes caps a POST body at 8 MiB. The largest body this
// repository's own clients send is a create request carrying an explicit
// 2000-vertex mesh (about 64 KB, the perfbench serve-mixed sessions);
// loadgen and igpserve -smoke send a few hundred bytes. The cap keeps a
// hostile or runaway body from being buffered without bound.
const maxBodyBytes = 8 << 20

// decodeBody decodes r's JSON body into v under the body cap. On failure
// it writes the reply — 413 for a body past the cap, 400 for anything
// else, prefixed by what — and returns false.
func decodeBody(w http.ResponseWriter, r *http.Request, v any, what string) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(v)
	if err == nil {
		return true
	}
	code := http.StatusBadRequest
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		code = http.StatusRequestEntityTooLarge
	}
	writeJSON(w, code, errorReply{Error: what + ": " + err.Error()})
	return false
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	var spec GraphSpec
	if !decodeBody(w, r, &spec, "bad graph spec") {
		return
	}
	info, err := s.CreateGraph(r.Context(), spec)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, info)
}

func (s *Server) handleEdits(w http.ResponseWriter, r *http.Request) {
	var req editsRequest
	if !decodeBody(w, r, &req, "bad edits request") {
		return
	}
	if len(req.Edits) == 0 {
		writeJSON(w, http.StatusBadRequest, errorReply{Error: "no edits"})
		return
	}
	ctx := r.Context()
	if req.TimeoutMS > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.TimeoutMS)*time.Millisecond)
		defer cancel()
	}
	resp, err := s.Submit(ctx, r.PathValue("id"), req.Edits)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleAssignment(w http.ResponseWriter, r *http.Request) {
	sess, err := s.Session(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	version, p, parts := sess.Assignment()
	writeJSON(w, http.StatusOK, assignmentReply{Version: version, P: p, Parts: parts})
}

func (s *Server) handleDrop(w http.ResponseWriter, r *http.Request) {
	if err := s.DropGraph(r.PathValue("id")); err != nil {
		writeError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Metrics())
}
