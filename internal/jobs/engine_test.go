package jobs

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/data"
	"repro/internal/dataio"
	"repro/internal/obs"
	"repro/internal/serve"
)

// fakeResolver answers each instance with its gold candidate and counts
// predicts per instance ID, so tests can assert zero duplicated work
// across an interrupt + resume.
type fakeResolver struct {
	mu       sync.Mutex
	predicts map[string]int
	failFor  map[string]int // ID → transient failures before success
	answer   func(in *data.Instance) string
}

func newFakeResolver() *fakeResolver {
	return &fakeResolver{predicts: map[string]int{}, failFor: map[string]int{}}
}

func (f *fakeResolver) Predict(_ context.Context, _ string, in *data.Instance) (string, bool, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if n := f.failFor[in.ID]; n > 0 {
		f.failFor[in.ID] = n - 1
		return "", false, errors.New("fake transient failure")
	}
	f.predicts[in.ID]++
	if f.answer != nil {
		return f.answer(in), false, nil
	}
	return in.Candidates[in.Gold], false, nil
}

func (f *fakeResolver) Warm(context.Context, string) (bool, error)  { return false, nil }
func (f *fakeResolver) Snapshot() []serve.KeyStats                  { return nil }
func (f *fakeResolver) Resident() int                               { return 0 }
func (f *fakeResolver) Evict(context.Context, string) (bool, error) { return false, nil }

func (f *fakeResolver) count(id string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.predicts[id]
}

// writeInput writes an N-row JSON dataset and returns its path.
func writeInput(t *testing.T, dir string, rows int) string {
	t.Helper()
	ds := &data.Dataset{Name: "synthetic", Task: "EM"}
	for i := 0; i < rows; i++ {
		ds.Test = append(ds.Test, &data.Instance{
			ID:         fmt.Sprintf("row-%03d", i),
			Fields:     []data.Field{{Name: "title", Value: fmt.Sprintf("item %d", i)}},
			Candidates: []string{"match", "non-match"},
			Gold:       i % 2,
		})
	}
	path := filepath.Join(dir, "input.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := dataio.EncodeJSON(ds, "", f); err != nil {
		t.Fatal(err)
	}
	return path
}

func testSpec(t *testing.T, input, output string, shards int) *Spec {
	t.Helper()
	sp, err := ParseSpec([]byte(fmt.Sprintf(
		`{"adapter":"EM/Walmart-Amazon","input":{"path":%q},"output":{"path":%q},"shards":%d,"limits":{"shard_parallelism":1,"concurrency":2}}`,
		input, output, shards)))
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

func TestPlanDeterministic(t *testing.T) {
	dir := t.TempDir()
	input := writeInput(t, dir, 10)
	sp := testSpec(t, input, filepath.Join(dir, "out.csv"), 4)
	eng := &Engine{Res: newFakeResolver(), CheckpointDir: dir}

	var renders [2]string
	for i := range renders {
		p, err := eng.Plan(sp)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		p.Render(&b)
		renders[i] = b.String()
	}
	if renders[0] != renders[1] {
		t.Fatalf("plan render not deterministic:\n%s\nvs\n%s", renders[0], renders[1])
	}

	p, _ := eng.Plan(sp)
	// 10 rows over 4 shards: 3,3,2,2 — contiguous, covering, in order.
	if len(p.Shards) != 4 || p.Shards[0].End != 3 || p.Shards[3].Start != 8 || p.Shards[3].End != 10 {
		t.Fatalf("bad shard layout: %+v", p.Shards)
	}
}

func TestRunInterruptResumeByteIdentical(t *testing.T) {
	dir := t.TempDir()
	input := writeInput(t, dir, 12)

	// Reference: an uninterrupted run of the same rows.
	refRes := newFakeResolver()
	refOut := filepath.Join(dir, "ref.csv")
	refEng := &Engine{Res: refRes, CheckpointDir: filepath.Join(dir, "ckpt-ref")}
	refPlan, err := refEng.Plan(testSpec(t, input, refOut, 4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := refEng.Run(context.Background(), refPlan, nil); err != nil {
		t.Fatal(err)
	}

	// Interrupted run: cancel as soon as two shards have committed. A row
	// of shard 0 fails once first, so a committed shard carries a retry.
	res := newFakeResolver()
	res.failFor["row-001"] = 1
	out := filepath.Join(dir, "out.csv")
	sp := testSpec(t, input, out, 4)
	ckpt := filepath.Join(dir, "ckpt")
	ctx, cancel := context.WithCancel(context.Background())
	eng := &Engine{Res: res, CheckpointDir: ckpt, OnCommit: func(_, committed int) {
		if committed >= 2 {
			cancel()
		}
	}}
	p, err := eng.Plan(sp)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(ctx, p, nil); err == nil {
		t.Fatal("interrupted run should report an error")
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Fatal("interrupted run must not write output")
	}

	// Resume: committed shards adopted with their counts, the rest runs,
	// output appears.
	eng2 := &Engine{Res: res, CheckpointDir: ckpt}
	p2, err := eng2.Plan(sp)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := eng2.Run(context.Background(), p2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if pr.ShardsResumed != 2 || pr.ShardsDone != 4 || pr.Retries != 1 || pr.RowFailures != 0 {
		t.Fatalf("progress %+v, want 4 shards done, 2 resumed, and the 1 retry a resumed shard committed", pr)
	}

	// Zero duplicated predicts: every row answered exactly once across
	// interrupt + resume.
	for i := 0; i < 12; i++ {
		id := fmt.Sprintf("row-%03d", i)
		if n := res.count(id); n != 1 {
			t.Errorf("row %s predicted %d times, want exactly 1", id, n)
		}
	}

	// Byte identity with the uninterrupted run.
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(refOut)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("resumed output differs from uninterrupted run:\n%s\nvs\n%s", got, want)
	}

	// Resubmitting the finished job is a pure resume: no new predicts.
	if _, err := (&Engine{Res: res, CheckpointDir: ckpt}).Run(context.Background(), p2, nil); err != nil {
		t.Fatal(err)
	}
	if n := res.count("row-000"); n != 1 {
		t.Fatalf("rerun of a done job re-predicted rows (%d)", n)
	}
}

// failingWrite is a checkpoint file whose n-th Write writes nothing and
// fails with ENOSPC, as a full disk does; the writes before it land.
type failingWrite struct {
	logFile
	n int
}

func (f *failingWrite) Write(p []byte) (int, error) {
	if f.n--; f.n == 0 {
		return 0, syscall.ENOSPC
	}
	return f.logFile.Write(p)
}

// TestRunStopsOnFailedCommit: a shard whose commit fails stops the whole
// run. The log takes the plan record and shard 0, then refuses shard 1;
// no row of shards 2-3 is predicted, no done record is written, and Run's
// error is the disk's. A rerun on a working disk adopts shard 0 and writes
// what an uninterrupted run writes.
func TestRunStopsOnFailedCommit(t *testing.T) {
	dir := t.TempDir()
	input := writeInput(t, dir, 8)

	refOut := filepath.Join(dir, "ref.csv")
	refEng := &Engine{Res: newFakeResolver(), CheckpointDir: filepath.Join(dir, "ckpt-ref")}
	refPlan, err := refEng.Plan(testSpec(t, input, refOut, 4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := refEng.Run(context.Background(), refPlan, nil); err != nil {
		t.Fatal(err)
	}

	res := newFakeResolver()
	out := filepath.Join(dir, "out.csv")
	ckpt := filepath.Join(dir, "ckpt")
	eng := &Engine{Res: res, CheckpointDir: ckpt, wrapLog: func(f logFile) logFile {
		return &failingWrite{logFile: f, n: 3} // plan, shard 0, then shard 1 fails
	}}
	p, err := eng.Plan(testSpec(t, input, out, 4)) // shard_parallelism 1: shards in order
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(context.Background(), p, nil); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("Run = %v, want the failed commit's ENOSPC", err)
	}
	for _, sh := range p.Shards[2:] {
		for i := sh.Start; i < sh.End; i++ {
			if id := p.ins[i].ID; res.count(id) != 0 {
				t.Errorf("row %s of shard %d was predicted after shard 1's commit failed", id, sh.Index)
			}
		}
	}
	st, err := ReadLog(CheckpointPath(ckpt, p.ID))
	if err != nil {
		t.Fatal(err)
	}
	if st.Done || len(st.Shards) != 1 || st.Shards[0] == nil {
		t.Fatalf("log after the failed commit: done %v, shards %v; want shard 0 alone", st.Done, st.Shards)
	}

	pr, err := (&Engine{Res: res, CheckpointDir: ckpt}).Run(context.Background(), p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if pr.ShardsResumed != 1 || pr.ShardsDone != 4 {
		t.Fatalf("rerun progress %+v, want shard 0 adopted and 4 done", pr)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(refOut)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("rerun output differs from an uninterrupted run:\n%s\nvs\n%s", got, want)
	}
}

// TestRetryBackoffBounded: the wait after any failed attempt is positive
// and at most 1 s. Shifting first overflowed from attempt 39 on, and a
// negative wait retried at once.
func TestRetryBackoffBounded(t *testing.T) {
	for a := 0; a <= 100; a++ {
		if d := retryBackoff(a); d <= 0 || d > time.Second {
			t.Fatalf("retryBackoff(%d) = %v, want (0, 1s]", a, d)
		}
	}
	if retryBackoff(0) != 25*time.Millisecond || retryBackoff(5) != 800*time.Millisecond || retryBackoff(6) != time.Second {
		t.Fatalf("backoff 0, 5, 6 = %v, %v, %v; want 25ms, 800ms, 1s", retryBackoff(0), retryBackoff(5), retryBackoff(6))
	}
}

func TestRunRetriesTransient(t *testing.T) {
	dir := t.TempDir()
	input := writeInput(t, dir, 4)
	res := newFakeResolver()
	res.failFor["row-001"] = 2 // two transient failures, then success
	sp := testSpec(t, input, filepath.Join(dir, "out.csv"), 2)
	var trace bytes.Buffer
	reg := obs.NewRegistry()
	eng := &Engine{Res: res, CheckpointDir: dir, Rec: obs.NewRecorder(reg, obs.NewTracer(&trace))}
	p, err := eng.Plan(sp)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := eng.Run(context.Background(), p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if pr.Retries < 2 {
		t.Fatalf("retries = %d, want >= 2", pr.Retries)
	}
	if pr.RowFailures != 0 {
		t.Fatalf("row failures = %d, want 0", pr.RowFailures)
	}

	// The process-wide series say what the progress says, and the run left its
	// three span kinds: one plan, and per shard one run and one commit.
	if c := reg.Snapshot().Counters; c["jobs.retries"] != pr.Retries || c["jobs.rows_done"] != 4 || c["jobs.row_failures"] != 0 {
		t.Errorf("counters %v, want jobs.retries %d, jobs.rows_done 4, no jobs.row_failures", c, pr.Retries)
	}
	if err := eng.Rec.Tracer.Close(); err != nil {
		t.Fatal(err)
	}
	recs, _, err := obs.ReadJSONL[obs.SpanRecord](&trace)
	if err != nil {
		t.Fatal(err)
	}
	spans := map[string]int{}
	for _, r := range recs {
		spans[r.Name]++
	}
	if spans["job.plan"] != 1 || spans["job.shard"] != 2 || spans["job.commit"] != 2 {
		t.Errorf("spans %v, want 1 job.plan, 2 job.shard, 2 job.commit", spans)
	}
}

func TestRunFailureBudget(t *testing.T) {
	dir := t.TempDir()
	input := writeInput(t, dir, 4)

	// The resolver answers row-002 with something outside its candidate
	// set, so Verify rejects it every time.
	badAnswer := func(in *data.Instance) string {
		if in.ID == "row-002" {
			return "bogus"
		}
		return in.Candidates[in.Gold]
	}

	// Budget 0: the first lost row kills the job.
	res := newFakeResolver()
	res.answer = badAnswer
	sp := testSpec(t, input, filepath.Join(dir, "out0.csv"), 1)
	eng := &Engine{Res: res, CheckpointDir: filepath.Join(dir, "c0")}
	p, err := eng.Plan(sp)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(context.Background(), p, nil); err == nil || !strings.Contains(err.Error(), "candidates") {
		t.Fatalf("want verify failure to abort, got %v", err)
	}

	// Budget 1: the job completes and marks the lost row empty.
	res2 := newFakeResolver()
	res2.answer = badAnswer
	out := filepath.Join(dir, "out1.csv")
	sp2, err := ParseSpec([]byte(fmt.Sprintf(
		`{"adapter":"EM/Walmart-Amazon","input":{"path":%q},"output":{"path":%q},"shards":1,"limits":{"max_row_failures":1,"retries":0}}`,
		input, out)))
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	eng2 := &Engine{Res: res2, CheckpointDir: filepath.Join(dir, "c1"), Rec: obs.NewRecorder(reg, nil)}
	p2, err := eng2.Plan(sp2)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := eng2.Run(context.Background(), p2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Snapshot().Counters["jobs.row_failures"]; pr.RowFailures != 1 || got != 1 {
		t.Fatalf("row failures = %d, jobs.row_failures = %d, want 1 and 1", pr.RowFailures, got)
	}
	blob, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(blob), "row-002,\n") {
		t.Fatalf("lost row not marked empty in output:\n%s", blob)
	}
}

func TestRunRejectsChangedInput(t *testing.T) {
	dir := t.TempDir()
	input := writeInput(t, dir, 6)
	out := filepath.Join(dir, "out.csv")
	sp := testSpec(t, input, out, 2)
	res := newFakeResolver()
	eng := &Engine{Res: res, CheckpointDir: dir}
	p, err := eng.Plan(sp)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(context.Background(), p, nil); err != nil {
		t.Fatal(err)
	}

	// Rewrite the input with different content; resuming must refuse.
	blob, err := os.ReadFile(input)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(input, []byte(strings.Replace(string(blob), "item 0", "item zero", 1)), 0o644); err != nil {
		t.Fatal(err)
	}
	p2, err := eng.Plan(sp)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(context.Background(), p2, nil); err == nil || !strings.Contains(err.Error(), "changed") {
		t.Fatalf("want changed-input refusal, got %v", err)
	}
}
