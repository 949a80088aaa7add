package jobs

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/csv"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/data"
	"repro/internal/dataio"
	"repro/internal/obs"
	"repro/internal/serve"
)

// Engine runs job plans against a Resolver. One engine serves both faces
// of the tier: the Manager wraps it for /v1/jobs, the CLI drives it
// directly. It is stateless between calls — all durable state lives in
// the checkpoint log.
type Engine struct {
	// Res answers rows: the local Registry offline, the cluster Router at
	// fleet scale. Concurrent row predicts through it ride the per-adapter
	// micro-batch loop automatically.
	Res serve.Resolver
	// CheckpointDir holds the per-job checkpoint logs. Required for Run;
	// Plan never touches it.
	CheckpointDir string
	// Rec threads observability through the engine (job.plan / job.shard /
	// job.commit spans, jobs.* metrics). Nil disables it.
	Rec *obs.Recorder
	// OnCommit, when set, observes every durable shard commit with the
	// tracker's count of done shards (resumed ones included) — the crash
	// drill's kill-mid-flight hook.
	OnCommit func(shard, committed int)
}

// ShardRange is one contiguous row range [Start, End) of the input.
type ShardRange struct {
	Index int `json:"index"`
	Start int `json:"start"`
	End   int `json:"end"`
}

// Plan is the resolved form of a spec against its input: rows loaded and
// content-hashed, shard layout fixed. Planning is side-effect free (the
// `job plan` / ?dry_run=1 face); the same spec and input always produce the same plan.
type Plan struct {
	Spec     *Spec        `json:"spec"`
	ID       string       `json:"id"`
	SpecHash string       `json:"spec_hash"`
	InputSHA string       `json:"input_sha"`
	Rows     int          `json:"rows"`
	Shards   []ShardRange `json:"shards"`

	ins []*data.Instance
}

// Plan loads the spec's input and lays out the shards. Shards are clamped
// to the row count, sized within one row of each other, in input order.
func (e *Engine) Plan(sp *Spec) (*Plan, error) {
	_, span := e.Rec.StartSpan("job.plan")
	defer span.End()
	span.SetAttr("adapter", sp.Adapter)
	ins, sha, err := loadInput(sp)
	if err != nil {
		span.SetAttr("error", true)
		return nil, err
	}
	if len(ins) == 0 {
		span.SetAttr("error", true)
		return nil, fmt.Errorf("jobs: input %s selects no rows", sp.Input.Path)
	}
	shards := sp.Shards
	if shards > len(ins) {
		shards = len(ins)
	}
	p := &Plan{
		Spec:     sp,
		ID:       sp.ID(),
		SpecHash: sp.Hash(),
		InputSHA: sha,
		Rows:     len(ins),
		ins:      ins,
	}
	base, rem := len(ins)/shards, len(ins)%shards
	start := 0
	for i := 0; i < shards; i++ {
		n := base
		if i < rem {
			n++
		}
		p.Shards = append(p.Shards, ShardRange{Index: i, Start: start, End: start + n})
		start += n
	}
	span.SetAttr("rows", p.Rows)
	span.SetAttr("shards", len(p.Shards))
	return p, nil
}

// Render writes the human/diffable dry-run view of a plan: deterministic
// (no timestamps, no absolute state), so the check.sh gate can assert the
// same spec plans byte-identically.
func (p *Plan) Render(w *strings.Builder) {
	fmt.Fprintf(w, "job %s (spec %s)\n", p.ID, p.SpecHash[:16])
	fmt.Fprintf(w, "  adapter:   %s\n", p.Spec.Adapter)
	fmt.Fprintf(w, "  input:     %s (%s, %d rows, sha256 %s)\n", p.Spec.Input.Path, p.Spec.Input.Format, p.Rows, p.InputSHA[:16])
	fmt.Fprintf(w, "  output:    %s (%s)\n", p.Spec.Output.Path, p.Spec.Output.Format)
	fmt.Fprintf(w, "  limits:    concurrency=%d shard_parallelism=%d retries=%d max_row_failures=%d row_timeout_s=%g\n",
		p.Spec.Limits.Concurrency, p.Spec.Limits.ShardParallelism, p.Spec.Limits.Retries,
		p.Spec.Limits.MaxRowFailures, p.Spec.Limits.RowTimeoutS)
	for _, sh := range p.Shards {
		fmt.Fprintf(w, "  shard %3d: rows [%d, %d)\n", sh.Index, sh.Start, sh.End)
	}
}

// loadInput reads the spec's input through internal/dataio and returns the
// instances plus the content hash of the raw file (pinned in the plan
// record: a resume against edited input is an error, not silent skew).
func loadInput(sp *Spec) ([]*data.Instance, string, error) {
	blob, err := os.ReadFile(sp.Input.Path)
	if err != nil {
		return nil, "", fmt.Errorf("jobs: %w", err)
	}
	sum := sha256.Sum256(blob)
	sha := hex.EncodeToString(sum[:])
	var ins []*data.Instance
	switch sp.Input.Format {
	case "json":
		ds, err := dataio.ParseJSON(blob)
		if err != nil {
			return nil, "", fmt.Errorf("jobs: %w", err)
		}
		switch sp.Input.Split {
		case "train":
			ins = ds.Train
		case "all":
			ins = append(append([]*data.Instance(nil), ds.Train...), ds.Test...)
		default:
			ins = ds.Test
		}
	case "csv":
		name := strings.TrimSuffix(filepath.Base(sp.Input.Path), filepath.Ext(sp.Input.Path))
		t, err := dataio.ReadCSV(name, bytes.NewReader(blob))
		if err != nil {
			return nil, "", fmt.Errorf("jobs: %w", err)
		}
		switch sp.Input.Kind {
		case "em":
			ins, err = dataio.EMInstances(t, sp.Input.Label)
		case "ed":
			ins, err = dataio.EDInstances(t, sp.Input.Target, sp.Input.Label)
		case "di":
			ins, err = dataio.DIInstances(t, sp.Input.Target)
		}
		if err != nil {
			return nil, "", fmt.Errorf("jobs: %w", err)
		}
	default:
		return nil, "", fmt.Errorf("jobs: unknown input format %q", sp.Input.Format)
	}
	for i, in := range ins {
		if len(in.Candidates) == 0 {
			return nil, "", fmt.Errorf("jobs: input row %d (%s) has no candidate answers", i, in.ID)
		}
		if in.ID == "" {
			in.ID = fmt.Sprintf("row-%d", i)
		}
	}
	return ins, sha, nil
}

// Tracker is the live progress of one run, readable concurrently (the
// /v1/jobs/{id} snapshot). Zero value is ready.
type Tracker struct {
	rowsTotal     atomic.Int64
	shardsTotal   atomic.Int64
	rowsDone      atomic.Int64
	shardsDone    atomic.Int64
	shardsResumed atomic.Int64
	retries       atomic.Int64
	rowFailures   atomic.Int64
}

// Progress is one consistent-enough reading of a Tracker.
type Progress struct {
	Rows          int   `json:"rows"`
	RowsDone      int   `json:"rows_done"`
	Shards        int   `json:"shards"`
	ShardsDone    int   `json:"shards_done"`
	ShardsResumed int   `json:"shards_resumed"`
	Retries       int64 `json:"retries"`
	RowFailures   int64 `json:"row_failures"`
}

// Progress snapshots the tracker.
func (t *Tracker) Progress() Progress {
	return Progress{
		Rows:          int(t.rowsTotal.Load()),
		RowsDone:      int(t.rowsDone.Load()),
		Shards:        int(t.shardsTotal.Load()),
		ShardsDone:    int(t.shardsDone.Load()),
		ShardsResumed: int(t.shardsResumed.Load()),
		Retries:       t.retries.Load(),
		RowFailures:   t.rowFailures.Load(),
	}
}

// Run executes a plan: committed shards from the checkpoint log are
// adopted verbatim (zero re-predicts, zero duplicate Transfers), pending
// shards run on shard_parallelism workers, each committing durably before
// the next resume could see it, and the output is assembled in input
// order — so an interrupted-and-resumed job writes the same bytes an
// uninterrupted one does. It returns the tracker's final Progress. The
// first failure stops the whole run and is its error, which leaves the
// job resumable.
func (e *Engine) Run(ctx context.Context, p *Plan, tr *Tracker) (Progress, error) {
	if e.CheckpointDir == "" {
		return Progress{}, fmt.Errorf("jobs: engine needs a CheckpointDir")
	}
	if tr == nil {
		tr = &Tracker{}
	}
	tr.rowsTotal.Store(int64(p.Rows))
	tr.shardsTotal.Store(int64(len(p.Shards)))

	path := CheckpointPath(e.CheckpointDir, p.ID)
	st, err := ReadLog(path)
	if err != nil {
		return Progress{}, err
	}
	if st.Plan != nil {
		if st.Plan.SpecHash != p.SpecHash {
			return Progress{}, fmt.Errorf("jobs: checkpoint %s belongs to spec %s, this plan is %s", path, st.Plan.SpecHash[:16], p.SpecHash[:16])
		}
		if st.Plan.InputSHA != p.InputSHA {
			return Progress{}, fmt.Errorf("jobs: input %s changed since the job began (sha %s → %s); resuming would mix epochs",
				p.Spec.Input.Path, st.Plan.InputSHA[:16], p.InputSHA[:16])
		}
		if st.Plan.Rows != p.Rows || st.Plan.Shards != len(p.Shards) {
			return Progress{}, fmt.Errorf("jobs: checkpoint %s plans %d rows / %d shards, this plan has %d / %d",
				path, st.Plan.Rows, st.Plan.Shards, p.Rows, len(p.Shards))
		}
	}
	lg, err := st.OpenAppend(path)
	if err != nil {
		return Progress{}, err
	}
	defer lg.Close()
	if st.Plan == nil {
		if err := lg.Append(&Record{
			V: recordV, Type: recPlan, SpecHash: p.SpecHash, Adapter: p.Spec.Adapter,
			Rows: p.Rows, Shards: len(p.Shards), InputSHA: p.InputSHA,
		}); err != nil {
			return Progress{}, err
		}
	}

	answers := make([]string, p.Rows)
	var pending []ShardRange
	for _, sh := range p.Shards {
		rec, ok := st.Shards[sh.Index]
		if !ok {
			pending = append(pending, sh)
			continue
		}
		if len(rec.Answers) != sh.End-sh.Start {
			return Progress{}, fmt.Errorf("jobs: checkpoint shard %d carries %d answers for %d rows", sh.Index, len(rec.Answers), sh.End-sh.Start)
		}
		copy(answers[sh.Start:sh.End], rec.Answers)
		tr.rowsDone.Add(int64(sh.End - sh.Start))
		tr.shardsDone.Add(1)
		tr.shardsResumed.Add(1)
		tr.retries.Add(rec.Retries)
		tr.rowFailures.Add(int64(rec.Failures))
	}

	ctx, stop := context.WithCancelCause(ctx)
	defer stop(nil)
	fanOut(ctx, p.Spec.Limits.ShardParallelism, len(pending), func(i int) {
		e.runShard(ctx, stop, p, pending[i], answers, tr, lg)
	})
	if err := context.Cause(ctx); err != nil {
		return Progress{}, err
	}

	if !st.Done {
		if err := lg.Append(&Record{Type: recDone, Rows: p.Rows}); err != nil {
			return Progress{}, err
		}
	}
	if err := writeOutput(p.Spec, p.ins, answers); err != nil {
		return Progress{}, err
	}
	e.Rec.Count("jobs.completed", 1)
	return tr.Progress(), nil
}

// runShard predicts one shard's rows under the concurrency limit, verifies
// every answer against its row's candidate set, and commits the shard as
// one fsynced checkpoint record. A row past the failure budget or a failed
// commit stops the whole run with its error; a stopped shard does not
// commit. The job.shard span rides the context, so serve.batch /
// cluster.attempt spans below link back to the shard that caused them.
func (e *Engine) runShard(ctx context.Context, stop context.CancelCauseFunc, p *Plan, sh ShardRange, answers []string, tr *Tracker, lg *Log) {
	_, span := e.Rec.StartSpan("job.shard")
	defer span.End()
	span.SetAttr("shard", sh.Index)
	span.SetAttr("rows", sh.End-sh.Start)
	span.SetAttr("key", p.Spec.Adapter)
	sctx := obs.ContextWithSpan(ctx, span)

	rows := sh.End - sh.Start
	var shardRetries, shardFailures atomic.Int64
	fanOut(ctx, p.Spec.Limits.Concurrency, rows, func(i int) {
		idx := sh.Start + i
		in := p.ins[idx]
		ans, retries, err := e.predictRow(sctx, p.Spec, in)
		shardRetries.Add(retries)
		tr.retries.Add(retries)
		if err == nil && !answerValid(ans, in) {
			err = fmt.Errorf("jobs: row %s: answer %q is not among its %d candidates", in.ID, ans, len(in.Candidates))
		}
		if err != nil {
			if ctx.Err() != nil {
				return
			}
			total := tr.rowFailures.Add(1)
			shardFailures.Add(1)
			e.Rec.Count("jobs.row_failures", 1)
			if total > int64(p.Spec.Limits.MaxRowFailures) {
				span.SetAttr("error", true)
				stop(fmt.Errorf("jobs: shard %d row %s: %w (row failure %d exceeds budget %d)",
					sh.Index, in.ID, err, total, p.Spec.Limits.MaxRowFailures))
				return
			}
			answers[idx] = "" // within budget: an empty answer marks the lost row
		} else {
			answers[idx] = ans
		}
		tr.rowsDone.Add(1)
		e.Rec.Count("jobs.rows_done", 1)
	})
	if ctx.Err() != nil {
		return
	}

	// Commit: the shard becomes durable in one fsynced append. Everything
	// before this line is repeatable; everything after it never reruns.
	cspan := span.StartChild("job.commit")
	err := lg.Append(&Record{
		Type: recShard, Shard: sh.Index, Rows: rows,
		Answers:  answers[sh.Start:sh.End],
		Failures: int(shardFailures.Load()),
		Retries:  shardRetries.Load(),
	})
	cspan.SetAttr("shard", sh.Index)
	cspan.End()
	if err != nil {
		span.SetAttr("error", true)
		stop(err)
		return
	}
	n := int(tr.shardsDone.Add(1))
	if e.OnCommit != nil {
		e.OnCommit(sh.Index, n)
	}
}

// fanOut calls do(i) for each i in [0, n) on min(workers, n) goroutines,
// each taking the next index, and returns when they have all stopped. Once
// ctx is done no further index starts.
func fanOut(ctx context.Context, workers, n int, do func(i int)) {
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	for range min(workers, n) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || ctx.Err() != nil {
					return
				}
				do(i)
			}
		}()
	}
	wg.Wait()
}

// predictRow answers one row through the resolver, retrying transient
// errors up to the spec's budget with bounded deterministic backoff.
func (e *Engine) predictRow(ctx context.Context, sp *Spec, in *data.Instance) (string, int64, error) {
	attempts := sp.Limits.Retries + 1
	var retries int64
	var lastErr error
	for a := 0; a < attempts; a++ {
		if err := ctx.Err(); err != nil {
			return "", retries, err
		}
		actx := ctx
		cancel := context.CancelFunc(func() {})
		if sp.Limits.RowTimeoutS > 0 {
			actx, cancel = context.WithTimeout(ctx, time.Duration(sp.Limits.RowTimeoutS*float64(time.Second)))
		}
		ans, _, err := e.Res.Predict(actx, sp.Adapter, in)
		cancel()
		if err == nil {
			return ans, retries, nil
		}
		lastErr = err
		if ctx.Err() != nil || !serve.Retryable(err) {
			return "", retries, err
		}
		if a < attempts-1 {
			retries++
			e.Rec.Count("jobs.retries", 1)
			backoff := time.Duration(25<<uint(a)) * time.Millisecond
			if backoff > time.Second {
				backoff = time.Second
			}
			select {
			case <-time.After(backoff):
			case <-ctx.Done():
				return "", retries, ctx.Err()
			}
		}
	}
	return "", retries, lastErr
}

// answerValid is the Verify stage: the service ranks candidates, so a
// valid answer must be one of the row's candidates.
func answerValid(ans string, in *data.Instance) bool {
	for _, c := range in.Candidates {
		if c == ans {
			return true
		}
	}
	return false
}

// outputRow is one line of a jsonl sink.
type outputRow struct {
	ID     string `json:"id"`
	Answer string `json:"answer"`
}

// writeOutput assembles the sink in input order and installs it
// atomically (write temp + rename), so a reader never sees a torn file
// and repeated runs produce byte-identical output.
func writeOutput(sp *Spec, ins []*data.Instance, answers []string) error {
	var buf bytes.Buffer
	switch sp.Output.Format {
	case "csv":
		cw := csv.NewWriter(&buf)
		if err := cw.Write([]string{"id", "answer"}); err != nil {
			return fmt.Errorf("jobs: %w", err)
		}
		for i, in := range ins {
			if err := cw.Write([]string{in.ID, answers[i]}); err != nil {
				return fmt.Errorf("jobs: %w", err)
			}
		}
		cw.Flush()
		if err := cw.Error(); err != nil {
			return fmt.Errorf("jobs: %w", err)
		}
	case "jsonl":
		enc := json.NewEncoder(&buf)
		for i, in := range ins {
			if err := enc.Encode(outputRow{ID: in.ID, Answer: answers[i]}); err != nil {
				return fmt.Errorf("jobs: %w", err)
			}
		}
	default:
		return fmt.Errorf("jobs: unknown output format %q", sp.Output.Format)
	}
	if dir := filepath.Dir(sp.Output.Path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("jobs: %w", err)
		}
	}
	tmp := sp.Output.Path + ".tmp"
	if err := os.WriteFile(tmp, buf.Bytes(), 0o644); err != nil {
		return fmt.Errorf("jobs: %w", err)
	}
	if err := os.Rename(tmp, sp.Output.Path); err != nil {
		return fmt.Errorf("jobs: %w", err)
	}
	return nil
}
