package jobs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/serve"
)

func newJobServer(t *testing.T, res serve.Resolver, dir string) (*httptest.Server, *Manager) {
	t.Helper()
	m := NewManager(res, ManagerOptions{CheckpointDir: filepath.Join(dir, "ckpt")})
	srv := serve.NewServer(res, serve.Options{})
	NewAPI(m).Register(srv)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts, m
}

func doReq(t *testing.T, method, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, blob
}

func TestJobsHTTPLifecycle(t *testing.T) {
	dir := t.TempDir()
	input := writeInput(t, dir, 8)
	out := filepath.Join(dir, "out.csv")
	ts, _ := newJobServer(t, newFakeResolver(), dir)

	spec := fmt.Sprintf(`{"adapter":"EM/Walmart-Amazon","input":{"path":%q},"output":{"path":%q},"shards":2}`, input, out)

	// Dry run plans without running: 200, a plan body, no job created.
	resp, blob := doReq(t, http.MethodPost, ts.URL+"/v1/jobs?dry_run=1", []byte(spec))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("dry run: %d %s", resp.StatusCode, blob)
	}
	var plan Plan
	if err := json.Unmarshal(blob, &plan); err != nil {
		t.Fatal(err)
	}
	if plan.Rows != 8 || len(plan.Shards) != 2 {
		t.Fatalf("dry-run plan: %+v", plan)
	}
	if resp, blob = doReq(t, http.MethodGet, ts.URL+"/v1/jobs", nil); string(blob) == "" || resp.StatusCode != http.StatusOK {
		t.Fatalf("list: %d %s", resp.StatusCode, blob)
	}
	var list []Snapshot
	if err := json.Unmarshal(blob, &list); err != nil || len(list) != 0 {
		t.Fatalf("dry run must not create a job: %s (%v)", blob, err)
	}

	// Submit: 202, then poll to done.
	resp, blob = doReq(t, http.MethodPost, ts.URL+"/v1/jobs", []byte(spec))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, blob)
	}
	var sub SubmitResponse
	if err := json.Unmarshal(blob, &sub); err != nil {
		t.Fatal(err)
	}
	if !sub.Started || sub.Job.ID == "" {
		t.Fatalf("submit response: %+v", sub)
	}

	poll := func() Snapshot {
		t.Helper()
		var snap Snapshot
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(10 * time.Millisecond) {
			resp, blob := doReq(t, http.MethodGet, ts.URL+"/v1/jobs/"+sub.Job.ID, nil)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("poll: %d %s", resp.StatusCode, blob)
			}
			if err := json.Unmarshal(blob, &snap); err != nil {
				t.Fatal(err)
			}
			if snap.State != StateRunning {
				return snap
			}
			if time.Now().After(deadline) {
				t.Fatalf("job still running: %+v", snap)
			}
		}
	}
	snap := poll()
	if snap.State != StateDone || snap.RowsDone != 8 || snap.ShardsDone != 2 {
		t.Fatalf("job did not finish cleanly: %+v", snap)
	}
	if _, err := os.Stat(out); err != nil {
		t.Fatalf("output missing: %v", err)
	}

	// Re-submitting the done job reruns it; the checkpoint makes that a
	// pure resume (all shards adopted).
	resp, blob = doReq(t, http.MethodPost, ts.URL+"/v1/jobs", []byte(spec))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("resubmit: %d %s", resp.StatusCode, blob)
	}
	// Wait it out: a job still appending to its checkpoint log races the
	// TempDir cleanup ("directory not empty", seen under -race at the parent).
	if snap := poll(); snap.State != StateDone || snap.ShardsResumed != 2 {
		t.Fatalf("resubmitted job: %+v, want done with both shards adopted", snap)
	}
}

func TestJobsHTTPErrors(t *testing.T) {
	dir := t.TempDir()
	ts, _ := newJobServer(t, newFakeResolver(), dir)

	cases := []struct {
		name   string
		method string
		path   string
		body   []byte
		want   int
	}{
		{"bad spec", http.MethodPost, "/v1/jobs", []byte("{nope"), http.StatusBadRequest},
		{"not JSON", http.MethodPost, "/v1/jobs", []byte("adapter: EM/A\ninput:\n  path: a.json\n"), http.StatusBadRequest},
		{"collection put", http.MethodPut, "/v1/jobs", nil, http.StatusMethodNotAllowed},
		{"unknown get", http.MethodGet, "/v1/jobs/jdeadbeefdeadbeef", nil, http.StatusNotFound},
		{"unknown cancel", http.MethodDelete, "/v1/jobs/jdeadbeefdeadbeef", nil, http.StatusNotFound},
		{"bad id", http.MethodGet, "/v1/jobs/a/b", nil, http.StatusBadRequest},
		{"item post", http.MethodPost, "/v1/jobs/jdeadbeefdeadbeef", nil, http.StatusMethodNotAllowed},
	}
	for _, tc := range cases {
		resp, blob := doReq(t, tc.method, ts.URL+tc.path, tc.body)
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, resp.StatusCode, tc.want, blob)
			continue
		}
		eb, ok := serve.ParseErrorEnvelope(blob)
		if !ok || eb.Code != serve.ErrorCode(tc.want) || eb.Retryable != serve.ErrorRetryable(tc.want) {
			t.Errorf("%s: body is not the canonical envelope: %s", tc.name, blob)
		}
	}
}
