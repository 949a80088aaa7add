package jobs

import (
	"fmt"
	"io"
	"net/http"
	"strings"

	"repro/internal/serve"
)

// API mounts the bulk-job routes on a serve.Server mux:
//
//	POST   /v1/jobs        submit a spec (JSON body); ?dry_run=1
//	                       plans without running and returns the plan
//	GET    /v1/jobs        list known jobs
//	GET    /v1/jobs/{id}   progress snapshot of one job
//	DELETE /v1/jobs/{id}   cancel one job (checkpoints survive; resubmit
//	                       resumes)
//
// Errors use the same envelope as every other /v1 route.
type API struct {
	m *Manager
}

// maxSpecBytes bounds a submitted spec body.
const maxSpecBytes = 1 << 20

// NewAPI returns the HTTP face over a manager.
func NewAPI(m *Manager) *API {
	return &API{m: m}
}

// SubmitResponse is the POST /v1/jobs body: the job snapshot plus whether
// this request started the run (false: attached to an already running
// duplicate).
type SubmitResponse struct {
	Job     Snapshot `json:"job"`
	Started bool     `json:"started"`
}

// Register mounts the routes through the server's instrumented-route seam,
// so job traffic shows up in serve.requests/serve.request_us and the
// request spans like every other route.
func (a *API) Register(srv *serve.Server) {
	srv.HandleFunc("/v1/jobs", "jobs", a.handleCollection)
	srv.HandleFunc("/v1/jobs/", "jobs", a.handleItem)
}

// handleCollection serves POST (submit / dry-run) and GET (list).
func (a *API) handleCollection(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		serve.WriteJSON(w, http.StatusOK, a.m.List())
	case http.MethodPost:
		blob, err := io.ReadAll(io.LimitReader(r.Body, maxSpecBytes+1))
		if err != nil {
			serve.WriteErrorStatus(w, http.StatusBadRequest, fmt.Sprintf("reading spec body: %v", err))
			return
		}
		if len(blob) > maxSpecBytes {
			serve.WriteErrorStatus(w, http.StatusBadRequest, fmt.Sprintf("spec body exceeds %d bytes", maxSpecBytes))
			return
		}
		sp, err := ParseSpec(blob)
		if err != nil {
			serve.WriteErrorStatus(w, http.StatusBadRequest, err.Error())
			return
		}
		if dr := r.URL.Query().Get("dry_run"); dr == "1" || dr == "true" {
			p, err := a.m.eng.Plan(sp)
			if err != nil {
				serve.WriteErrorStatus(w, http.StatusBadRequest, err.Error())
				return
			}
			serve.WriteJSON(w, http.StatusOK, p)
			return
		}
		snap, started, err := a.m.Submit(sp)
		if err != nil {
			serve.WriteError(w, err)
			return
		}
		status := http.StatusOK
		if started {
			status = http.StatusAccepted
		}
		serve.WriteJSON(w, status, SubmitResponse{Job: snap, Started: started})
	default:
		serve.WriteErrorStatus(w, http.StatusMethodNotAllowed, "GET or POST /v1/jobs only")
	}
}

// handleItem serves GET (snapshot) and DELETE (cancel) on /v1/jobs/{id}.
func (a *API) handleItem(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimPrefix(r.URL.Path, "/v1/jobs/")
	if id == "" || strings.Contains(id, "/") {
		serve.WriteErrorStatus(w, http.StatusBadRequest, fmt.Sprintf("bad job id %q", id))
		return
	}
	switch r.Method {
	case http.MethodGet:
		snap, ok := a.m.Get(id)
		if !ok {
			serve.WriteError(w, fmt.Errorf("%w: no job %q", serve.ErrUnknownKey, id))
			return
		}
		serve.WriteJSON(w, http.StatusOK, snap)
	case http.MethodDelete:
		snap, ok := a.m.Cancel(id)
		if !ok {
			serve.WriteError(w, fmt.Errorf("%w: no job %q", serve.ErrUnknownKey, id))
			return
		}
		serve.WriteJSON(w, http.StatusOK, snap)
	default:
		serve.WriteErrorStatus(w, http.StatusMethodNotAllowed, "GET or DELETE /v1/jobs/{id} only")
	}
}
