package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/data"
	"repro/internal/obs"
	"repro/internal/serve"
)

// newJobServer mounts the job API over res with dir as the jobs directory:
// checkpoint logs land in it and the paths of posted specs resolve under it.
func newJobServer(t *testing.T, res serve.Resolver, dir string) (*httptest.Server, *Manager) {
	t.Helper()
	m := NewManager(res, ManagerOptions{
		CheckpointDir: dir,
		Rec:           obs.NewRecorder(obs.NewRegistry(), nil),
	})
	srv := serve.NewServer(res, serve.Options{})
	m.Mount(srv)
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
	writeInput(t, dir, 8)
	input, out := "input.json", "out.csv" // as the wire names them: under the jobs dir
	// hold makes the resolver park its next predict until release closes,
	// announcing itself on entered: the window in which a job is cancelled.
	res := newFakeResolver()
	var hold atomic.Bool
	entered, release := make(chan struct{}, 1), make(chan struct{})
	res.answer = func(in *data.Instance) string {
		if hold.Load() {
			select {
			case entered <- struct{}{}:
			default:
			}
			<-release
		}
		return in.Candidates[in.Gold]
	}
	ts, m := newJobServer(t, res, dir)

	specFor := func(input, out string) []byte {
		return []byte(fmt.Sprintf(`{"adapter":"EM/Walmart-Amazon","input":{"path":%q},"output":{"path":%q},"shards":2}`, input, out))
	}
	spec := specFor(input, out)

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
	submit := func(spec []byte) string {
		t.Helper()
		resp, blob := doReq(t, http.MethodPost, ts.URL+"/v1/jobs", spec)
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
		return sub.Job.ID
	}
	poll := func(id string) Snapshot {
		t.Helper()
		var snap Snapshot
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(10 * time.Millisecond) {
			resp, blob := doReq(t, http.MethodGet, ts.URL+"/v1/jobs/"+id, nil)
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
	id := submit(spec)
	snap := poll(id)
	if snap.State != StateDone || snap.RowsDone != 8 || snap.ShardsDone != 2 {
		t.Fatalf("job did not finish cleanly: %+v", snap)
	}
	// The body's keys in order: Progress's, embedded, between state and output.
	_, blob = doReq(t, http.MethodGet, ts.URL+"/v1/jobs/"+id, nil)
	const wantKeys = "id adapter state rows rows_done shards shards_done shards_resumed retries row_failures output wall_s"
	if keys := strings.Join(objectKeys(t, blob), " "); keys != wantKeys {
		t.Fatalf("GET /v1/jobs/{id} keys:\n%s\nwant\n%s", keys, wantKeys)
	}
	if _, err := os.Stat(filepath.Join(dir, out)); err != nil {
		t.Fatalf("output missing: %v", err)
	}

	// Re-submitting the done job reruns it; the checkpoint makes that a
	// pure resume (all shards adopted).
	if again := submit(spec); again != id {
		t.Fatalf("resubmit ran as %s, want the same job %s", again, id)
	}
	// Wait it out: a job still appending to its checkpoint log races the
	// TempDir cleanup ("directory not empty", seen under -race at the parent).
	if snap := poll(id); snap.State != StateDone || snap.ShardsResumed != 2 {
		t.Fatalf("resubmitted job: %+v, want done with both shards adopted", snap)
	}

	// A job whose input is gone fails in Plan; a job cancelled while a row is
	// in flight ends canceled. Each moves its own counter; finished runs are
	// counted once, by the engine.
	failed := poll(submit(specFor("gone.json", "out2.csv")))
	if failed.State != StateFailed || failed.Error == "" {
		t.Fatalf("job over a missing input: %+v, want failed with an error", failed)
	}
	hold.Store(true)
	cid := submit(specFor(input, "out3.csv"))
	<-entered
	if active := m.opts.Rec.Metrics.Snapshot().Gauges["jobs.active"]; active != 1 {
		t.Errorf("jobs.active = %v with one job parked in a predict, want 1", active)
	}
	if resp, blob := doReq(t, http.MethodDelete, ts.URL+"/v1/jobs/"+cid, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: %d %s", resp.StatusCode, blob)
	}
	close(release)
	if snap := poll(cid); snap.State != StateCanceled {
		t.Fatalf("cancelled job: %+v", snap)
	}
	want := map[string]int64{"jobs.submitted": 4, "jobs.completed": 2, "jobs.failed": 1, "jobs.canceled": 1}
	snapshot := m.opts.Rec.Metrics.Snapshot()
	if active := snapshot.Gauges["jobs.active"]; active != 0 {
		t.Errorf("jobs.active = %v after every job finished, want 0", active)
	}
	got := snapshot.Counters
	for name, n := range want {
		if got[name] != n {
			t.Errorf("%s = %d, want %d (all counters: %v)", name, got[name], n, got)
		}
	}
	if list := m.List(); len(list) != 3 || !slices.IsSortedFunc(list, func(a, b Snapshot) int { return strings.Compare(a.ID, b.ID) }) {
		t.Errorf("List() = %+v, want the three jobs ordered by ID", list)
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
		{"spec over the cap", http.MethodPost, "/v1/jobs", bytes.Repeat([]byte(" "), maxSpecBytes+1), http.StatusBadRequest},
		{"row timeout overflows", http.MethodPost, "/v1/jobs",
			[]byte(`{"adapter":"EM/A","input":{"path":"a.json"},"output":{"path":"o.csv"},"limits":{"row_timeout_s":1e10}}`), http.StatusBadRequest},
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

// TestJobsHTTPConfinesPaths: a spec from the network names its files under
// the jobs directory and nowhere else. An absolute path or a ".." escape is
// a 400 before a byte is read or a directory made — at the parent a dry run
// answered with the row count and SHA-256 of any file the process could
// read, and a real submit wrote answers wherever it was told. A checkpoint
// log (*.ckpt.jsonl) is the directory's own and no spec's file: without the
// refusal, a job whose output named another job's log renamed its answers
// over it when it ended, and that job could never resume.
func TestJobsHTTPConfinesPaths(t *testing.T) {
	root := t.TempDir()
	jobsDir := filepath.Join(root, "jobs")
	if err := os.Mkdir(jobsDir, 0o755); err != nil {
		t.Fatal(err)
	}
	writeInput(t, root, 4)              // outside: the secret
	inside := writeInput(t, jobsDir, 4) // jobs/input.json
	res := newFakeResolver()
	ts, _ := newJobServer(t, res, jobsDir)
	spec := func(in, out string) []byte {
		return []byte(fmt.Sprintf(`{"adapter":"EM/Walmart-Amazon","input":{"path":%q,"format":"json"},"output":{"path":%q}}`, in, out))
	}

	for _, tc := range []struct{ name, in, out string }{
		{"absolute input", filepath.Join(root, "input.json"), "out.csv"},
		{"input escapes", "../input.json", "out.csv"},
		{"input escapes from below", "sub/../../input.json", "out.csv"},
		{"absolute output", "input.json", filepath.Join(root, "made", "out.csv")},
		{"output escapes", "input.json", "../made/out.csv"},
		{"output names a checkpoint log", "input.json", "job-j0123456789abcdef.ckpt.jsonl"},
		{"output names a checkpoint log below", "input.json", "made/JOB-X.CKPT.JSONL"},
		{"input names a checkpoint log", "job-j0123456789abcdef.ckpt.jsonl", "out.csv"},
	} {
		for _, query := range []string{"?dry_run=1", ""} {
			resp, blob := doReq(t, http.MethodPost, ts.URL+"/v1/jobs"+query, spec(tc.in, tc.out))
			eb, ok := serve.ParseErrorEnvelope(blob)
			if resp.StatusCode != http.StatusBadRequest || !ok || !strings.Contains(eb.Message, "jobs directory") {
				t.Errorf("%s%s: %d %s, want a 400 envelope naming the jobs directory", tc.name, query, resp.StatusCode, blob)
			}
			// Reading the outside file would have put its digest in the answer.
			if strings.Contains(string(blob), "input_sha") {
				t.Errorf("%s%s: the refusal carries a plan: %s", tc.name, query, blob)
			}
		}
	}
	if _, err := os.Stat(filepath.Join(root, "made")); !os.IsNotExist(err) {
		t.Errorf("a refused spec made a directory outside the jobs dir (stat err %v)", err)
	}
	if ents, _ := os.ReadDir(jobsDir); len(ents) != 1 {
		t.Errorf("refused specs left %d entries in the jobs dir, want the input alone", len(ents))
	}
	if res.count("row-000") != 0 {
		t.Errorf("refused specs reached the resolver")
	}

	// A local path, in a subdirectory too, is accepted and lands inside.
	resp, blob := doReq(t, http.MethodPost, ts.URL+"/v1/jobs?dry_run=1", spec("input.json", "answers/out.csv"))
	var plan Plan
	if err := json.Unmarshal(blob, &plan); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("local dry run: %d %s (%v)", resp.StatusCode, blob, err)
	}
	if plan.Rows != 4 || plan.Spec.Input.Path != inside || plan.Spec.Output.Path != filepath.Join(jobsDir, "answers", "out.csv") {
		t.Errorf("local dry run planned %+v over %+v, want 4 rows of %s", plan.Spec.Output, plan.Spec.Input, inside)
	}
}

// TestJobsHTTPDrainRefusesSubmit: a draining server lists and cancels but
// starts nothing it would take down with it.
func TestJobsHTTPDrainRefusesSubmit(t *testing.T) {
	dir := t.TempDir()
	writeInput(t, dir, 2)
	m := NewManager(newFakeResolver(), ManagerOptions{CheckpointDir: dir})
	srv := serve.NewServer(newFakeResolver(), serve.Options{})
	m.Mount(srv)
	srv.StartDrain()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	resp, blob := doReq(t, http.MethodPost, ts.URL+"/v1/jobs",
		[]byte(`{"adapter":"EM/Walmart-Amazon","input":{"path":"input.json"},"output":{"path":"out.csv"}}`))
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Errorf("submit while draining: %d %s, want 503 + Retry-After", resp.StatusCode, blob)
	}
	if resp, blob := doReq(t, http.MethodGet, ts.URL+"/v1/jobs", nil); resp.StatusCode != http.StatusOK || len(m.List()) != 0 {
		t.Errorf("list while draining: %d %s", resp.StatusCode, blob)
	}
}

// gateResolver answers every row with its gold candidate, except that rows
// of the adapter "EM/held" park until gate closes (announcing the first on
// entered) — without holding a lock, so other jobs keep running meanwhile.
type gateResolver struct {
	fakeResolver
	gate    chan struct{}
	entered chan struct{}
}

func (g *gateResolver) Predict(_ context.Context, key string, in *data.Instance) (string, bool, error) {
	if key == "EM/held" {
		select {
		case g.entered <- struct{}{}:
		default:
		}
		<-g.gate
	}
	return in.Candidates[in.Gold], false, nil
}

// TestJobsHTTPShedsPastActiveBound: with maxActive jobs parked in a
// predict, one more POST /v1/jobs is shed with the retryable 429
// "overloaded" envelope and starts nothing; once a running job finishes,
// the same spec is admitted.
func TestJobsHTTPShedsPastActiveBound(t *testing.T) {
	dir := t.TempDir()
	writeInput(t, dir, 2)
	res := &gateResolver{gate: make(chan struct{})}
	ts, m := newJobServer(t, res, dir)
	spec := func(adapter string, i int) []byte {
		return []byte(fmt.Sprintf(`{"adapter":%q,"input":{"path":"input.json"},"output":{"path":"out-%d.csv"},"shards":1}`, adapter, i))
	}
	var held []string
	for i := 0; i < maxActive; i++ {
		resp, blob := doReq(t, http.MethodPost, ts.URL+"/v1/jobs", spec("EM/held", i))
		var sub SubmitResponse
		if err := json.Unmarshal(blob, &sub); err != nil || resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d of %d: %d %s (%v)", i+1, maxActive, resp.StatusCode, blob, err)
		}
		held = append(held, sub.Job.ID)
	}
	extra := spec("EM/quick", maxActive)
	resp, blob := doReq(t, http.MethodPost, ts.URL+"/v1/jobs", extra)
	eb, ok := serve.ParseErrorEnvelope(blob)
	if resp.StatusCode != http.StatusTooManyRequests || !ok || eb.Code != serve.CodeOverloaded || !eb.Retryable ||
		resp.Header.Get("Retry-After") == "" {
		t.Fatalf("submit past the bound: %d %s, want the retryable 429 overloaded envelope with Retry-After", resp.StatusCode, blob)
	}
	if n := len(m.List()); n != maxActive {
		t.Fatalf("a shed submit left %d jobs, want the %d running", n, maxActive)
	}

	// Every job must end before the test does: one still appending to its
	// checkpoint log races the TempDir cleanup.
	settle := func(id string) Snapshot {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
			if snap, _ := m.Get(id); snap.State != StateRunning {
				return snap
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %s still running", id)
			}
		}
	}
	close(res.gate)
	if snap := settle(held[0]); snap.State != StateDone {
		t.Fatalf("held job after the gate opened: %+v", snap)
	}
	resp, blob = doReq(t, http.MethodPost, ts.URL+"/v1/jobs", extra)
	var sub SubmitResponse
	if err := json.Unmarshal(blob, &sub); err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit after a job finished: %d %s, want 202", resp.StatusCode, blob)
	}
	for _, id := range append(held, sub.Job.ID) {
		settle(id)
	}
}

// TestManagerForgetsOldFinishedJobs: a manager remembers every running job
// and the maxFinished most recently finished ones, no more; a forgotten ID
// answers like an unknown one, and resubmitting its spec still resumes from
// the checkpoint log.
func TestManagerForgetsOldFinishedJobs(t *testing.T) {
	dir := t.TempDir()
	input := writeInput(t, dir, 2)
	res := &gateResolver{gate: make(chan struct{}), entered: make(chan struct{}, 1)}
	m := NewManager(res, ManagerOptions{CheckpointDir: dir})
	submit := func(adapter, out string) string {
		t.Helper()
		sp, err := ParseSpec([]byte(fmt.Sprintf(`{"adapter":%q,"input":{"path":%q},"output":{"path":%q},"shards":1}`,
			adapter, input, filepath.Join(dir, out))))
		if err != nil {
			t.Fatal(err)
		}
		snap, started, err := m.Submit(sp)
		if err != nil || !started {
			t.Fatalf("Submit(%s) = %+v, %v, %v; want a started job", out, snap, started, err)
		}
		return snap.ID
	}
	finish := func(id string) Snapshot {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
			snap, ok := m.Get(id)
			if !ok {
				t.Fatalf("job %s forgotten while running", id)
			}
			if snap.State != StateRunning {
				return snap
			}
			if time.Now().After(deadline) {
				t.Fatalf("job still running: %+v", snap)
			}
		}
	}

	held := submit("EM/held", "held.csv")
	<-res.entered
	const extra = 3
	var ids []string
	for i := 0; i < maxFinished+extra; i++ {
		id := submit("EM/quick", fmt.Sprintf("out-%d.csv", i))
		if snap := finish(id); snap.State != StateDone {
			t.Fatalf("job %d: %+v", i, snap)
		}
		ids = append(ids, id)
	}
	if list := m.List(); len(list) != maxFinished+1 {
		t.Fatalf("List() holds %d jobs after %d finished beside one running, want %d", len(list), len(ids), maxFinished+1)
	}
	for i, id := range ids {
		if _, ok := m.Get(id); ok != (i >= extra) {
			t.Errorf("finished job %d of %d: remembered = %v, want %v (the oldest %d go)", i, len(ids), ok, i >= extra, extra)
		}
	}
	if snap, ok := m.Get(held); !ok || snap.State != StateRunning {
		t.Fatalf("the running job: %+v, remembered = %v; a running job is never forgotten", snap, ok)
	}

	// A forgotten job's spec resubmits under the same ID and adopts its shard.
	if again := submit("EM/quick", "out-0.csv"); again != ids[0] {
		t.Fatalf("resubmitted as %s, want %s", again, ids[0])
	}
	if snap := finish(ids[0]); snap.State != StateDone || snap.ShardsResumed != 1 {
		t.Fatalf("resubmitted job: %+v, want done with its shard adopted from the log", snap)
	}
	close(res.gate)
	if snap := finish(held); snap.State != StateDone {
		t.Fatalf("held job: %+v", snap)
	}
}

// objectKeys returns the top-level keys of a JSON object in document order.
func objectKeys(t *testing.T, blob []byte) []string {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(blob))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		t.Fatalf("not a JSON object (%v): %s", err, blob)
	}
	var keys []string
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, tok.(string))
		var skip json.RawMessage
		if err := dec.Decode(&skip); err != nil {
			t.Fatal(err)
		}
	}
	return keys
}
