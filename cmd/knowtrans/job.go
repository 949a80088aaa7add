package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"

	"repro/internal/cluster"
	"repro/internal/data"
	"repro/internal/dataio"
	"repro/internal/eval"
	"repro/internal/faults"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/serve"
)

// runJob drives the bulk tier from the command line: `knowtrans job
// run|plan|resume -spec FILE` executes (or previews) one declarative job
// against either an in-process registry or a -backends fleet through the
// cluster router — the same engine POST /v1/jobs runs. With -selftest it
// instead runs the crash-recovery acceptance gate: a multi-shard job
// against a spawned backend fleet, SIGKILLed mid-flight via
// -kill-after-shards, resumed, and gated on byte-identity with an
// uninterrupted same-seed run plus zero duplicated Transfers.
func runJob(args []string) {
	verb := "run"
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		verb = args[0]
		args = args[1:]
	}
	switch verb {
	case "run", "plan", "resume":
	default:
		fmt.Fprintf(os.Stderr, "knowtrans: unknown job verb %q (want run|plan|resume)\n", verb)
		usage()
		os.Exit(2)
	}
	fs := newFlagSet("job")
	specPath := fs.String("spec", "", "job spec `file` (JSON)")
	backendList := fs.String("backends", "", "comma-separated backend URLs; empty runs an in-process registry")
	checkpointDir := fs.String("checkpoint", ".knowtrans-jobs", "checkpoint log `dir` (resume reads it, run appends to it)")
	dryRun := fs.Bool("dry-run", false, "plan only: print the deterministic shard layout and exit 0")
	replication := fs.Int("replication", 2, "with -backends: distinct owners per key")
	scale := fs.Float64("scale", 0.15, "in-process resolver: dataset scale")
	seed := fs.Int64("seed", 1, "in-process resolver: master random seed")
	faultSpec := fs.String("faults", "",
		"in-process resolver: oracle fault `spec` rate=R,seed=S[,kinds=a+b]")
	killAfter := fs.Int("kill-after-shards", 0,
		"SIGKILL this process once N shards have committed (crash-recovery drills; 0 disables)")
	selftest := fs.Bool("selftest", false, "run the kill/resume acceptance gate instead of a job")
	stBackends := fs.Int("selftest-backends", 2, "selftest: backends to spawn")
	stRows := fs.Int("selftest-rows", 64, "selftest: input rows")
	stShards := fs.Int("selftest-shards", 8, "selftest: shards per job")
	stKill := fs.Int("selftest-kill-after", 2, "selftest: SIGKILL the run after this many committed shards")
	workdir := fs.String("workdir", "", "selftest: keep specs/checkpoints/outputs in this `dir` (default: temp, removed)")
	of := addObsFlags(fs)
	parseOrExit(fs, args)

	rec, finish := serviceRecorder(of, *seed)

	if *selftest {
		finishDrill(runJobSelftest(jobSelftestConfig{
			backends:    *stBackends,
			rows:        *stRows,
			shards:      *stShards,
			killAfter:   *stKill,
			replication: *replication,
			scale:       *scale,
			seed:        *seed,
			faults:      *faultSpec,
			workdir:     *workdir,
			rec:         rec,
		}), finish)
		return
	}

	if *specPath == "" {
		fmt.Fprintln(os.Stderr, "knowtrans: job needs -spec (or -selftest)")
		usage()
		os.Exit(2)
	}
	sp, err := jobs.ParseSpecFile(*specPath)
	if err != nil {
		fatal(err)
	}

	var res serve.Resolver
	if urls := splitBackends(*backendList); len(urls) > 0 {
		r, err := cluster.New(cluster.Options{
			Backends:    urls,
			Replication: *replication,
			Seed:        *seed,
			Rec:         rec,
		})
		if err != nil {
			fatal(err)
		}
		defer r.Close()
		res = r
	} else {
		z := eval.NewZoo(*seed, *scale)
		z.Rec = rec
		if *faultSpec != "" {
			fcfg, err := faults.ParseSpec(*faultSpec)
			if err != nil {
				fatal(err)
			}
			z.Faults = &fcfg
		}
		res = serve.NewRegistry(zooTransferer(z), serve.Options{Rec: rec})
	}

	eng := &jobs.Engine{Res: res, CheckpointDir: *checkpointDir, Rec: rec}
	if *killAfter > 0 {
		// Crash-recovery plumbing for the selftest and check.sh: die the
		// hard way (no drain, no deferred cleanup) the instant the Nth
		// shard is durable.
		n := *killAfter
		eng.OnCommit = func(_, committed int) {
			if committed >= n {
				syscall.Kill(os.Getpid(), syscall.SIGKILL)
			}
		}
	}

	p, err := eng.Plan(sp)
	if err != nil {
		fatal(err)
	}
	if verb == "plan" || *dryRun {
		var b strings.Builder
		p.Render(&b)
		fmt.Print(b.String())
		if err := finish(); err != nil {
			fatal(err)
		}
		return
	}
	ckptPath := jobs.CheckpointPath(*checkpointDir, p.ID)
	if verb == "resume" {
		if _, err := os.Stat(ckptPath); err != nil {
			fatal(fmt.Errorf("job: nothing to resume: %s has no checkpoint log (%v)", p.ID, err))
		}
	}
	fmt.Printf("job %s: %d rows over %d shards → %s (checkpoint %s)\n",
		p.ID, p.Rows, len(p.Shards), sp.Output.Path, ckptPath)
	result, err := eng.Run(context.Background(), p, nil)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("job %s: done — %d rows in %.2fs (%.0f rows/s), %d shards (%d resumed), %d row failures, %d retries\n",
		result.ID, result.Rows, result.WallS, float64(result.Rows)/result.WallS,
		result.Shards, result.ResumedShards, result.RowFailures, result.Retries)
	fmt.Printf("wrote %s\n", result.Output)
	if err := finish(); err != nil {
		fatal(err)
	}
}

type jobSelftestConfig struct {
	backends    int
	rows        int
	shards      int
	killAfter   int
	replication int
	scale       float64
	seed        int64
	faults      string
	workdir     string
	rec         *obs.Recorder
}

// runJobSelftest is the acceptance gate behind `knowtrans job -selftest`:
// plan determinism, a SIGKILL mid-job, a resume that skips every committed
// shard, byte-identity with an uninterrupted run, and zero duplicated
// Transfers across the whole drill.
func runJobSelftest(cfg jobSelftestConfig) error {
	if cfg.killAfter < 1 || cfg.killAfter >= cfg.shards {
		return fmt.Errorf("job: -selftest-kill-after must be in [1,%d)", cfg.shards)
	}
	work := cfg.workdir
	if work == "" {
		var err error
		if work, err = os.MkdirTemp("", "knowtrans-job-selftest-"); err != nil {
			return err
		}
		defer os.RemoveAll(work)
	} else if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}

	// Build the input: the first downstream dataset's test split, cycled to
	// the requested row count under fresh IDs, in one dpgen-format file.
	ref := eval.NewZoo(cfg.seed, cfg.scale)
	key := ref.DownstreamKeys()[0]
	b, _ := ref.FindDownstream(key)
	task, _, _ := strings.Cut(key, "/")
	ds := &data.Dataset{Name: "bulk", Task: task}
	for i := 0; i < cfg.rows; i++ {
		cp := b.DS.Test[i%len(b.DS.Test)].Clone()
		cp.ID = fmt.Sprintf("bulk-%03d", i)
		ds.Test = append(ds.Test, cp)
	}
	input := filepath.Join(work, "input.json")
	f, err := os.Create(input)
	if err != nil {
		return err
	}
	if err := dataio.EncodeJSON(ds, "", f); err != nil {
		f.Close()
		return err
	}
	f.Close()

	// Two specs over the same input and adapter, differing only in output
	// path (so they are distinct jobs with distinct checkpoint logs): A
	// runs uninterrupted, B is killed and resumed. Byte-identity of their
	// outputs is the recovery verdict.
	writeSpec := func(name, out string) (string, *jobs.Spec, error) {
		blob := fmt.Sprintf(`{
  "adapter": %q,
  "input": {"path": %q},
  "output": {"path": %q},
  "shards": %d,
  "limits": {"concurrency": 8, "shard_parallelism": 2, "retries": 3, "row_timeout_s": 60}
}`, key, input, out, cfg.shards)
		path := filepath.Join(work, name)
		if err := os.WriteFile(path, []byte(blob), 0o644); err != nil {
			return "", nil, err
		}
		sp, err := jobs.ParseSpec([]byte(blob))
		return path, sp, err
	}
	outA := filepath.Join(work, "outA.csv")
	outB := filepath.Join(work, "outB.csv")
	if _, _, err := writeSpec("specA.json", outA); err != nil {
		return err
	}
	specBPath, spB, err := writeSpec("specB.json", outB)
	if err != nil {
		return err
	}
	spA, err := jobs.ParseSpecFile(filepath.Join(work, "specA.json"))
	if err != nil {
		return err
	}

	fl, err := spawnFleet(cfg.backends, cfg.scale, cfg.seed, 4, cfg.faults)
	if err != nil {
		return err
	}
	defer fl.close()
	urls := fl.urls()

	// Error-envelope probe: a predict for an unknown dataset must come back
	// as the canonical envelope with the right code and retryability.
	if err := probeErrorEnvelope(urls[0]); err != nil {
		return err
	}

	router, err := cluster.New(cluster.Options{
		Backends:    urls,
		Replication: cfg.replication,
		Seed:        cfg.seed,
		Rec:         cfg.rec,
	})
	if err != nil {
		return err
	}
	defer router.Close()

	// Plan determinism: the same spec must render byte-identical plans.
	eng := &jobs.Engine{Res: router, CheckpointDir: filepath.Join(work, "ckptA"), Rec: cfg.rec}
	var renders [2]string
	for i := range renders {
		p, err := eng.Plan(spA)
		if err != nil {
			return err
		}
		var sb strings.Builder
		p.Render(&sb)
		renders[i] = sb.String()
	}
	if renders[0] != renders[1] {
		return fmt.Errorf("job: plan render is not deterministic:\n%s\nvs\n%s", renders[0], renders[1])
	}

	// Job A: uninterrupted reference run through the router.
	fmt.Printf("selftest: job A — %d rows over %d shards, uninterrupted\n", cfg.rows, cfg.shards)
	pA, err := eng.Plan(spA)
	if err != nil {
		return err
	}
	resA, err := eng.Run(context.Background(), pA, nil)
	if err != nil {
		return fmt.Errorf("job: reference run: %w", err)
	}

	// Job B: a subprocess runs the same rows and SIGKILLs itself the
	// instant the Nth shard commits — a real crash, no deferred cleanup.
	ckptB := filepath.Join(work, "ckptB")
	fmt.Printf("selftest: job B — same rows, SIGKILL after %d committed shards\n", cfg.killAfter)
	cmd := exec.Command(selfExe(), "job", "run",
		"-spec", specBPath,
		"-backends", strings.Join(urls, ","),
		"-checkpoint", ckptB,
		"-replication", fmt.Sprintf("%d", cfg.replication),
		"-seed", fmt.Sprintf("%d", cfg.seed),
		"-kill-after-shards", fmt.Sprintf("%d", cfg.killAfter),
	)
	cmd.Stdout = os.Stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); !sigkilled(err) {
		return fmt.Errorf("job: the -kill-after-shards run must die of SIGKILL mid-job; it ended with %v (%v)",
			cmd.ProcessState, err)
	}
	st, err := jobs.ReadLog(jobs.CheckpointPath(ckptB, spB.ID()))
	if err != nil {
		return fmt.Errorf("job: reading post-kill checkpoint: %w", err)
	}
	committed := len(st.Shards)
	if committed < cfg.killAfter {
		return fmt.Errorf("job: only %d shards survived the kill, want >= %d fsynced commits", committed, cfg.killAfter)
	}
	if committed >= cfg.shards || st.Done {
		return fmt.Errorf("job: the killed run finished all %d shards (done=%v); the kill came too late to prove anything", committed, st.Done)
	}
	fmt.Printf("selftest: killed run left %d/%d committed shards\n", committed, cfg.shards)

	// Tear the checkpoint tail the way a second kill mid-append would, and
	// require recovery to tolerate it.
	cf, err := os.OpenFile(jobs.CheckpointPath(ckptB, spB.ID()), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := cf.WriteString(`{"type":"shard","shard":99,"answers":["torn`); err != nil {
		cf.Close()
		return err
	}
	cf.Close()
	st2, err := jobs.ReadLog(jobs.CheckpointPath(ckptB, spB.ID()))
	if err != nil {
		return fmt.Errorf("job: torn checkpoint tail was not tolerated: %w", err)
	}
	if !st2.Truncated || len(st2.Shards) != committed {
		return fmt.Errorf("job: torn-tail recovery wrong: truncated=%v shards=%d (want %d)", st2.Truncated, len(st2.Shards), committed)
	}

	// Resume in-process: every committed shard must be adopted, none rerun.
	fmt.Printf("selftest: resuming job B from its checkpoint...\n")
	engB := &jobs.Engine{Res: router, CheckpointDir: ckptB, Rec: cfg.rec}
	pB, err := engB.Plan(spB)
	if err != nil {
		return err
	}
	resB, err := engB.Run(context.Background(), pB, nil)
	if err != nil {
		return fmt.Errorf("job: resume: %w", err)
	}
	if resB.ResumedShards != committed {
		return fmt.Errorf("job: resume adopted %d shards, checkpoint held %d", resB.ResumedShards, committed)
	}

	// Byte-identity: the killed-and-resumed output vs the uninterrupted one.
	blobA, err := os.ReadFile(outA)
	if err != nil {
		return err
	}
	blobB, err := os.ReadFile(outB)
	if err != nil {
		return err
	}
	byteIdentical := 0
	if bytes.Equal(blobA, blobB) {
		byteIdentical = 1
	}

	// Duplicate-Transfer audit: ask every backend for its per-key stats;
	// across job A, the killed run, and the resume, no adapter may have
	// been transferred twice anywhere in the fleet.
	duplicates := 0
	for _, u := range urls {
		var ar serve.AdaptersResponse
		if err := serve.Call(context.Background(), http.DefaultClient, http.MethodGet, u+"/v1/adapters", nil, nil, &ar); err != nil {
			return fmt.Errorf("job: adapters probe %s: %w", u, err)
		}
		for _, ks := range ar.Adapters {
			if ks.Transfers > 1 {
				duplicates += int(ks.Transfers - 1)
				fmt.Printf("selftest: backend %s transferred %s %d times\n", u, ks.Key, ks.Transfers)
			}
		}
	}

	// The backends must drain clean on SIGTERM.
	if err := fl.drain(drainDeadline); err != nil {
		return err
	}

	wall := resA.WallS + resB.WallS
	rowFailures := resA.RowFailures + resB.RowFailures
	fmt.Printf("selftest: %d rows, %d shards, resumed %d, %d row failures, %d duplicate transfers\n",
		resB.Rows, resB.Shards, resB.ResumedShards, rowFailures, duplicates)
	fmt.Printf("selftest: byte_identical=%d plan_deterministic=1 (%.2fs wall, %.0f rows/s)\n",
		byteIdentical, wall, float64(resA.Rows+resB.Rows)/wall)

	// Verdicts: the recovery story holds or the gate fails.
	if byteIdentical != 1 {
		return fmt.Errorf("job: resumed output differs from the uninterrupted run (%s vs %s)", outB, outA)
	}
	if duplicates != 0 {
		return fmt.Errorf("job: %d duplicated Transfers across the kill/resume drill, want 0", duplicates)
	}
	if rowFailures != 0 {
		return fmt.Errorf("job: %d rows were lost, want 0 (retries should absorb transient faults)", rowFailures)
	}
	fmt.Println("selftest: PASS")
	return nil
}

// probeErrorEnvelope asserts one backend answers an unknown-dataset
// predict with the canonical error envelope.
func probeErrorEnvelope(url string) error {
	req := serve.PredictRequest{Adapter: "EM/NoSuchDataset", Instance: serve.WireInstance{ID: "p", Candidates: []string{"a", "b"}}}
	err := serve.Call(context.Background(), http.DefaultClient, http.MethodPost, url+"/v1/predict", nil, req, nil)
	var we *serve.WireError
	if !errors.As(err, &we) || we.Status != http.StatusNotFound {
		return fmt.Errorf("job: envelope probe: got %v, want a 404", err)
	}
	if we.Code != serve.CodeNotFound || !errors.Is(err, serve.ErrUnknownKey) {
		return fmt.Errorf("job: envelope probe: body is not the canonical envelope: %v", err)
	}
	fmt.Printf("selftest: error envelope ok (code=%s retryable=%v)\n", we.Code, we.Retryable)
	return nil
}
