package jobs

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"

	"repro/internal/serve"
)

// maxSpecBytes bounds a submitted spec body.
const maxSpecBytes = 1 << 20

// itemPath is the subtree of the single-job routes.
const itemPath = "/v1/jobs/"

// SubmitResponse is the POST /v1/jobs body: the job snapshot plus whether
// this request started the run (false: attached to an already running
// duplicate).
type SubmitResponse struct {
	Job     Snapshot `json:"job"`
	Started bool     `json:"started"`
}

// Mount puts the bulk-job routes on a serve.Server:
//
//	POST   /v1/jobs        submit a spec (JSON body); ?dry_run=1
//	                       plans without running and returns the plan
//	GET    /v1/jobs        list known jobs
//	GET    /v1/jobs/{id}   progress snapshot of one job
//	DELETE /v1/jobs/{id}   cancel one job (checkpoints survive; resubmit
//	                       resumes)
//
// They cross the server's one request pipeline, so job traffic is counted,
// logged, traced, capped and enveloped like every other route. A draining
// server takes no new job: it would be killed with the process. A spec that
// arrives here names its input and output relative to the manager's
// CheckpointDir — the one directory the operator designated (-jobs-dir) —
// and cannot reach outside it; `knowtrans job -spec FILE` keeps the
// operator's own paths.
func (m *Manager) Mount(srv *serve.Server) {
	serve.Handle(srv, serve.Route{Method: http.MethodGet, Pattern: "/v1/jobs", Label: "jobs"}, nil,
		func(_ context.Context, w http.ResponseWriter, _ *serve.Request[serve.None]) {
			serve.WriteJSON(w, http.StatusOK, m.List())
		})
	serve.Handle(srv, serve.Route{Method: http.MethodPost, Pattern: "/v1/jobs", Label: "jobs",
		ShedDrain: true, BodyCap: maxSpecBytes}, nil, m.submit)
	serve.Handle(srv, serve.Route{Method: http.MethodGet, Pattern: itemPath, Label: "jobs"}, nil, item(m.Get))
	serve.Handle(srv, serve.Route{Method: http.MethodDelete, Pattern: itemPath, Label: "jobs"}, nil, item(m.Cancel))
}

// submit starts (or, under ?dry_run, only plans) the job of the posted spec.
// The pipeline has checked the body is JSON within the cap; ParseSpec is
// the strict reading every spec gets.
func (m *Manager) submit(_ context.Context, w http.ResponseWriter, rq *serve.Request[json.RawMessage]) {
	sp, err := ParseSpec(rq.Body)
	if err == nil {
		err = sp.confine(m.opts.CheckpointDir)
	}
	if err != nil {
		serve.WriteErrorStatus(w, http.StatusBadRequest, err.Error())
		return
	}
	if dr := rq.URL.Query().Get("dry_run"); dr == "1" || dr == "true" {
		p, err := m.eng.Plan(sp)
		if err != nil {
			serve.WriteErrorStatus(w, http.StatusBadRequest, err.Error())
			return
		}
		serve.WriteJSON(w, http.StatusOK, p)
		return
	}
	snap, started, err := m.Submit(sp)
	if err != nil {
		serve.WriteError(w, err)
		return
	}
	status := http.StatusOK
	if started {
		status = http.StatusAccepted
	}
	serve.WriteJSON(w, status, SubmitResponse{Job: snap, Started: started})
}

// item serves one job by ID: act is Manager.Get (GET, snapshot) or
// Manager.Cancel (DELETE).
func item(act func(id string) (Snapshot, bool)) func(context.Context, http.ResponseWriter, *serve.Request[serve.None]) {
	return func(_ context.Context, w http.ResponseWriter, rq *serve.Request[serve.None]) {
		id := strings.TrimPrefix(rq.URL.Path, itemPath)
		if id == "" || strings.Contains(id, "/") {
			serve.WriteErrorStatus(w, http.StatusBadRequest, fmt.Sprintf("bad job id %q", id))
			return
		}
		snap, ok := act(id)
		if !ok {
			serve.WriteError(w, fmt.Errorf("%w: no job %q", serve.ErrUnknownKey, id))
			return
		}
		serve.WriteJSON(w, http.StatusOK, snap)
	}
}
