// The HTTP API.
//
//	POST   /v1/jobs                 submit {check|litmus|compile: {...}}
//	GET    /v1/jobs                 list every job
//	GET    /v1/jobs/{id}            one job with its result once ended
//	DELETE /v1/jobs/{id}            cancel (running jobs keep their
//	                                partial result)
//	GET    /v1/jobs/{id}/events     SSE progress + terminal state
//	GET    /v1/jobs/{id}/artifact   compiled-table download,
//	                                ?kind=hgcf|table|pcc|murphi|dot
//	GET    /healthz                 liveness (503 while draining)
//	GET    /metrics                 text-format counters
//
// Responses are JSON (artifact downloads and /metrics excepted); errors
// are {"error": "..."} with a conventional status code.

package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"heterogen/internal/core"
	"heterogen/internal/engine"
)

// submitBody is the POST /v1/jobs payload: exactly one request kind set.
type submitBody struct {
	Check   *engine.CheckRequest   `json:"check,omitempty"`
	Litmus  *engine.LitmusRequest  `json:"litmus,omitempty"`
	Compile *engine.CompileRequest `json:"compile,omitempty"`
}

func (s *Server) routes(mux *http.ServeMux) {
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleGet)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/jobs/{id}/artifact", s.handleArtifact)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
}

// httpError writes the JSON error envelope.
func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		httpError(w, http.StatusBadRequest, "reading body: %v", err)
		return
	}
	// Unknown fields are errors: a knob the server does not have (a
	// misspelling, or a removed option) must not silently run the default.
	var sb submitBody
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sb); err != nil {
		httpError(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	if dec.Decode(&struct{}{}) != io.EOF {
		httpError(w, http.StatusBadRequest, "decoding request: trailing data after the request object")
		return
	}
	var kind JobKind
	var req any
	var validate func() error
	n := 0
	if sb.Check != nil {
		kind, req, validate = KindCheck, sb.Check, sb.Check.Search.Validate
		n++
	}
	if sb.Litmus != nil {
		kind, req, validate = KindLitmus, sb.Litmus, sb.Litmus.Validate
		n++
	}
	if sb.Compile != nil {
		kind, req, validate = KindCompile, sb.Compile, sb.Compile.Search.Validate
		n++
	}
	if n != 1 {
		httpError(w, http.StatusBadRequest, "submit exactly one of check, litmus or compile (got %d)", n)
		return
	}
	if err := validate(); err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	j, err := s.Submit(kind, req)
	if err != nil {
		httpError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+j.ID)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	w.Write(s.jobs.snapshot(j))
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	list := s.jobs.list()
	w.Header().Set("Content-Type", "application/json")
	w.Write([]byte(`{"jobs":[`))
	for i, j := range list {
		if i > 0 {
			w.Write([]byte(","))
		}
		w.Write(s.jobs.snapshot(j))
	}
	w.Write([]byte("]}\n"))
}

// job resolves the {id} path value, writing the 404 itself on a miss.
func (s *Server) job(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "no job %q", r.PathValue("id"))
	}
	return j, ok
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(s.jobs.snapshot(j))
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	state := s.jobs.requestCancel(j)
	s.log.Info("job cancel requested", "job", j.ID, "state", string(state))
	writeJSON(w, http.StatusOK, map[string]any{"id": j.ID, "state": state})
}

// handleEvents streams SSE: one "progress" event per engine report and a
// final "state" event when the job goes terminal (sent from the job's
// recorded state on channel close, so it is never lost to a slow
// consumer).
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusInternalServerError, "response writer cannot stream")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	ch := s.jobs.subscribe(j)
	defer s.jobs.unsubscribe(j, ch)
	writeEvent := func(e Event) {
		data, _ := json.Marshal(e)
		fmt.Fprintf(w, "event: %s\ndata: %s\n\n", e.Type, data)
		fl.Flush()
	}
	for {
		select {
		case e, open := <-ch:
			if !open {
				// Terminal: report the job's final state whether or not
				// the broadcast copy survived the channel buffer.
				writeEvent(Event{Type: "state", State: s.jobs.state(j)})
				return
			}
			writeEvent(e)
			if e.Type == "state" && e.State.Terminal() {
				return
			}
		case <-r.Context().Done():
			return
		}
	}
}

// handleArtifact serves a finished compile job's table in any emission
// format; the binary .hgcf form is the default. The job keeps only the
// .hgcf bytes: a textual kind loads them (digest, replay and re-marshal
// checked, as any artifact load) and emits from the loaded table.
func (s *Server) handleArtifact(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	kind := r.URL.Query().Get("kind")
	if kind == "" {
		kind = "hgcf"
	}
	data := s.jobs.artifact(j)
	if data == nil {
		httpError(w, http.StatusConflict, "job %s has no compiled table (state %s, kind %s)", j.ID, s.jobs.state(j), j.Kind)
		return
	}
	if kind == "hgcf" {
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Disposition", fmt.Sprintf("attachment; filename=%q", j.ID+".hgcf"))
		w.Write(data)
		return
	}
	cf, err := core.LoadArtifact(data)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "job %s: reloading its table: %v", j.ID, err)
		return
	}
	var out bytes.Buffer
	if err := engine.Emit(cf, kind, &out); err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Write(out.Bytes())
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		httpError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}
