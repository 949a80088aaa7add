package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/data"
	"repro/internal/dataio"
	"repro/internal/eval"
	"repro/internal/faults"
	"repro/internal/jobs"
	"repro/internal/loadgen"
	"repro/internal/obs"
	"repro/internal/serve"
)

// The drills: check.sh tier-2 runs them with
//
//	go test ./cmd/knowtrans -run TestDrill -drill -count=1 -v
//
// Each starts the real binary as child processes — `serve` fleets driven over
// HTTP and compared answer by answer with the direct path, or one-shot
// subcommands compared by their output; together they take about 150 s, half
// of it TestDrillPaperTables, and build a zoo per child, so plain
// `go test ./...` skips them.
var drill = flag.Bool("drill", false, "run the serve, route, job, table6, artifacts and paper-table drills (about 150 s)")

func needDrill(t *testing.T) {
	t.Helper()
	if !*drill {
		t.Skip("drill: pass -drill to run")
	}
}

// The reference zoo is built once per test binary: every drill runs at
// drillSeed and drillScale, Upstream and Patches are memoised on it, and
// TransferDataset reads Faults per call, so a drill that arms faults sets
// the field for its own references and clears it again.
var refZoo = sync.OnceValue(func() *eval.Zoo { return eval.NewZoo(drillSeed, drillScale) })

// adapterStats asks one backend for its per-key registry counters.
func adapterStats(t *testing.T, url string) []serve.KeyStats {
	t.Helper()
	var ar serve.AdaptersResponse
	if err := serve.Call(context.Background(), http.DefaultClient, http.MethodGet, url+"/v1/adapters", nil, nil, &ar); err != nil {
		t.Fatalf("adapters probe %s: %v", url, err)
	}
	return ar.Adapters
}

// TestDrillServe: one real serve child under a concurrent seeded load over
// several cold adapters. Every served answer is byte-identical to the direct
// path, cold starts coalesce to exactly one Transfer per key, and the child
// leaves with 0 on SIGTERM — so what the instrumented case then reads (the
// trace with its runtime samples, the CPU profile) was flushed by the path an
// operator's SIGTERM takes.
func TestDrillServe(t *testing.T) {
	needDrill(t)
	for _, tc := range []struct {
		name                            string
		requests, concurrency, adapters int
		faults                          string
		extra                           []string
		instrumented                    bool
	}{
		{name: "default", requests: 256, concurrency: 64, adapters: 4, instrumented: true},
		// Every request drains as an n = 1 batch through the same forward.
		{name: "max-batch-1", requests: 128, concurrency: 32, adapters: 2, extra: []string{"-max-batch", "1"}},
		// Under a 30% seeded fault rate availability may degrade, answers may not.
		{name: "faults", requests: 128, concurrency: 32, adapters: 2, faults: "rate=0.3,seed=9"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ref := refZoo()
			keys := ref.DownstreamKeys()[:tc.adapters]
			args := tc.extra
			if tc.faults != "" {
				fcfg, err := faults.ParseSpec(tc.faults)
				if err != nil {
					t.Fatal(err)
				}
				ref.Faults = &fcfg
				defer func() { ref.Faults = nil }()
				args = append(args, "-faults", tc.faults)
			}
			items, err := referenceLoad(ref, keys, tc.requests, drillSeed)
			if err != nil {
				t.Fatal(err)
			}

			dir := t.TempDir()
			trace := filepath.Join(dir, "serve.jsonl")
			cpuprofile := filepath.Join(dir, "serve.cpu.pprof")
			if tc.instrumented {
				args = append(args, "-trace", trace, "-sample", "10ms",
					"-cpuprofile", cpuprofile, "-access-log", filepath.Join(dir, "access.log"))
			}
			fl := mustSpawn(t, "main", 1, args...)
			rep, err := loadgen.Run(context.Background(), fl[0].url, items, loadgen.Options{
				Concurrency: tc.concurrency,
				TraceSeed:   drillSeed,
			})
			if err != nil {
				t.Fatalf("load run: %v", err)
			}
			t.Logf("%d requests, %d concurrent, %d adapters: %d non-2xx, %d mismatches, %d cold hits, %d trace-echo misses",
				rep.Requests, rep.Concurrency, len(keys), rep.Non2xx, rep.Mismatches, rep.ColdHits, rep.TraceEchoMisses)
			// Batching evidence comes from the service's own metrics: the
			// batcher counts every drained batch, each answered by one forward.
			var ms obs.RegistrySnapshot
			if err := serve.Call(context.Background(), http.DefaultClient, http.MethodGet, fl[0].url+"/metrics.json", nil, nil, &ms); err != nil {
				t.Fatal(err)
			}
			bs := ms.Histograms["serve.batch_size"]
			t.Logf("batching: %d batches (avg %.1f, max %.0f)", ms.Counters["serve.batches"], bs.Mean, bs.Max)
			stats := adapterStats(t, fl[0].url)
			for _, st := range stats {
				t.Logf("adapter %-24s transfers=%d requests=%d hits=%d misses=%d",
					st.Key, st.Transfers, st.Requests, st.Hits, st.Misses)
			}

			// Availability is only gated when no faults are armed.
			if err := loadVerdict("serve", tc.faults != "", rep); err != nil {
				t.Error(err)
			}
			if len(stats) != len(keys) {
				t.Errorf("the backend knows %d adapters after a load over %d keys", len(stats), len(keys))
			}
			for _, st := range stats {
				if st.Transfers != 1 {
					t.Errorf("adapter %s ran %d Transfers; cold starts must coalesce to exactly 1", st.Key, st.Transfers)
				}
			}
			if err := fl.drain(drainDeadline); err != nil {
				t.Fatal(err)
			}
			if !tc.instrumented {
				return
			}

			// What the drained child left behind reads as a healthy run, a
			// valid profile, and a trace that holds the slowest request.
			if out, stderr, exit := knowtrans(t, "obs", "prof", trace, "-gate"); exit != 0 {
				t.Errorf("obs prof -gate: exit %d\n%s%s", exit, out, stderr)
			} else {
				t.Logf("obs prof -gate:\n%s", out)
			}
			if out, err := exec.Command("go", "tool", "pprof", "-raw", cpuprofile).CombinedOutput(); err != nil {
				t.Errorf("go tool pprof -raw: %v\n%s", err, out)
			}
			out, stderr, exit := knowtrans(t, "obs", "trace", trace, "-trace-id", rep.SampleTrace)
			if exit != 0 || !strings.Contains(out, "serve.request") {
				t.Errorf("obs trace -trace-id %s: exit %d\n%s%s", rep.SampleTrace, exit, out, stderr)
			}
		})
	}
}

// TestDrillRoute: spawn a fleet, route a concurrent load through it, murder
// one backend mid-load, and require the client to never notice.
func TestDrillRoute(t *testing.T) {
	needDrill(t)
	const backends, requests, concurrency, adapters = 3, 256, 64, 4

	// Reference answers come from a direct zoo at the same (seed, scale) —
	// the oracle the routed answers must match byte-for-byte no matter which
	// replica served them.
	ref := refZoo()
	keys := ref.DownstreamKeys()[:adapters]
	items, err := referenceLoad(ref, keys, requests, drillSeed)
	if err != nil {
		t.Fatal(err)
	}
	fl := mustSpawn(t, "main", backends, "-max-adapters", fmt.Sprint(adapters+2), "-faults", "rate=0.3,seed=9")

	// Two router replicas front the same fleet, one per load phase, each
	// pinning one fault mechanism so the drill can require hard evidence of
	// both. The hedging replica runs a fixed 2ms hedge delay: under this
	// load every request outlives it, so tail hedging provably fires. The
	// failover replica runs with hedging disabled: when the victim dies,
	// the ONLY way its requests can still succeed is the error-triggered
	// failover branch — no timer race can mask it. (With hedging on, the
	// backup is already in flight before the primary's connection error
	// lands, so the failover counter never moves — observed, not
	// hypothesized.) Both probe independently; both must eject the corpse.
	rec := obs.NewRecorder(obs.NewRegistry(), nil)
	rec.SeedTraceIDs(drillSeed)
	copts := cluster.Options{
		Backends:      fl.urls(),
		ProbeInterval: 100 * time.Millisecond,
		HedgeDelay:    2 * time.Millisecond,
		Seed:          drillSeed,
		Rec:           rec,
	}
	newRouter := func(o cluster.Options) (*cluster.Router, string) {
		r, err := cluster.New(o)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(r.Close)
		hs := httptest.NewServer(serve.NewServer(r, serve.Options{RequestTimeout: 120 * time.Second, Rec: rec}))
		t.Cleanup(hs.Close)
		return r, hs.URL
	}
	rHedge, hedgeURL := newRouter(copts)
	fopts := copts
	fopts.HedgeDelay = -1 // failover replica: error-triggered retries only
	rFail, failURL := newRouter(fopts)

	// Pre-warm every key through the router: Warm fans out to every owner,
	// so replicas are hot before the first hedge or failover needs them.
	for _, key := range keys {
		if _, err := rHedge.Warm(context.Background(), key); err != nil {
			t.Fatalf("warm %s: %v", key, err)
		}
	}

	// Phase 1: full fleet, hedging router.
	p1, err := loadgen.Run(context.Background(), hedgeURL, items, loadgen.Options{
		Concurrency: concurrency,
		TraceSeed:   drillSeed,
	})
	if err != nil {
		t.Fatalf("phase-1 load: %v", err)
	}

	// Phase 2: same load through the failover router, and when a quarter
	// of it has completed, SIGKILL the primary owner of the first key.
	victim := rFail.Owners(keys[0])[0]
	p2, err := loadgen.Run(context.Background(), failURL, items, loadgen.Options{
		Concurrency: concurrency,
		TraceSeed:   drillSeed + 1,
		AtCount:     len(items) / 4,
		OnCount:     func() { fl.kill(victim) },
	})
	if err != nil {
		t.Fatalf("phase-2 load: %v", err)
	}

	// The probe loops must notice the corpse: poll until both routers have
	// ejected the victim (100ms probes, 2-strike threshold — well under a
	// second).
	deadline := time.Now().Add(10 * time.Second)
	for {
		ejected := true
		for _, r := range []*cluster.Router{rHedge, rFail} {
			st := r.Stats()
			if st.Ejections < 1 {
				ejected = false
			}
			for _, b := range st.Backends {
				if b.URL == victim && b.Healthy {
					ejected = false
				}
			}
		}
		if ejected {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("victim %s was never ejected: hedge=%+v fail=%+v", victim, rHedge.Stats(), rFail.Stats())
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Rebalance: every key the victim owned must now be served by its
	// replica — same answer, no error, straight through the router. One
	// item per such key goes through the loader, which checks all three.
	var probes []loadgen.Item
	probed := map[string]bool{}
	for _, it := range items {
		if !probed[it.Key] && slices.Contains(rFail.Owners(it.Key), victim) {
			probed[it.Key] = true
			probes = append(probes, it)
		}
	}
	if len(probes) == 0 {
		t.Fatalf("victim %s owned no keys — rebalance went unexercised", victim)
	}
	p3, err := loadgen.Run(context.Background(), failURL, probes, loadgen.Options{TraceSeed: drillSeed + 2})
	if err != nil {
		t.Fatalf("post-ejection load: %v", err)
	}

	// Survivors must drain clean on SIGTERM.
	if err := fl.drain(drainDeadline); err != nil {
		t.Error(err)
	}

	stHedge, stFail := rHedge.Stats(), rFail.Stats()
	t.Logf("healthy: %d requests, %d non-2xx; degraded (SIGKILL %s after %d): %d requests, %d non-2xx",
		p1.Requests, p1.Non2xx, victim, len(items)/4, p2.Requests, p2.Non2xx)
	t.Logf("chaos: %d hedges (%.1f%% of %d hedged-phase requests), %d failovers, %d ejections, rebalanced %d keys off %s",
		stHedge.Hedges, 100*float64(stHedge.Hedges)/float64(stHedge.Requests), stHedge.Requests,
		stFail.Failovers, stFail.Ejections, len(probes), victim)
	// Per-backend load is the sum across both router replicas — the fleet
	// served both phases.
	for i, b := range stHedge.Backends {
		fb := stFail.Backends[i]
		t.Logf("backend %-28s requests=%d failures=%d healthy=%v",
			b.URL, b.Requests+fb.Requests, b.Failures+fb.Failures, b.Healthy && fb.Healthy)
	}

	// Verdicts. A client of the routed tier must never see a failure or a
	// divergent answer — not even while a backend is being murdered under
	// it — and the fault machinery must have demonstrably fired.
	if err := loadVerdict("route", false, p1, p2, p3); err != nil {
		t.Error(err)
	}
	if stHedge.Hedges == 0 {
		t.Errorf("no hedges fired (delay %s) — the hedging path went unexercised", copts.HedgeDelay)
	}
	if stFail.Failovers == 0 {
		t.Error("no failovers recorded despite a SIGKILLed backend")
	}
}

// helperJobCrash is TestMain's "job-crash" mode: `job run` against a
// backend fleet with the one thing the product does not carry — the process
// SIGKILLs itself the instant the Nth shard commit is durable. A real crash:
// no drain, no deferred cleanup. Arguments: SPEC BACKENDS CHECKPOINT-DIR N.
func helperJobCrash() {
	die := func(err error) {
		fmt.Fprintln(os.Stderr, "job-crash:", err)
		os.Exit(1)
	}
	n, err := strconv.Atoi(os.Args[4])
	if err != nil {
		die(err)
	}
	sp, err := jobs.ParseSpecFile(os.Args[1])
	if err != nil {
		die(err)
	}
	r, err := cluster.New(cluster.Options{Backends: splitBackends(os.Args[2]), Seed: drillSeed})
	if err != nil {
		die(err)
	}
	eng := &jobs.Engine{Res: r, CheckpointDir: os.Args[3], OnCommit: func(_, committed int) {
		if committed >= n {
			syscall.Kill(os.Getpid(), syscall.SIGKILL)
		}
	}}
	p, err := eng.Plan(sp)
	if err != nil {
		die(err)
	}
	_, err = eng.Run(context.Background(), p, nil)
	die(fmt.Errorf("the job ended before commit %d could kill it (err = %v)", n, err))
}

// jobDone parses the last line `knowtrans job run|resume` prints about the
// engine's result.
var jobDone = regexp.MustCompile(`(\d+) shards \((\d+) resumed\), (\d+) row failures`)

// TestDrillJob: a multi-shard job against a real backend fleet, SIGKILLed
// mid-flight, its checkpoint tail torn, resumed by `knowtrans job resume` —
// every committed shard adopted, the output byte-identical to an
// uninterrupted run of the same rows, no row lost, and no adapter
// transferred twice anywhere in the fleet.
func TestDrillJob(t *testing.T) {
	needDrill(t)
	const backends, rows, shards, killAfter = 2, 64, 8, 2
	work := t.TempDir()

	// The input: the first downstream dataset's test split, cycled to the
	// row count under fresh IDs, in one dpgen-format file.
	ref := refZoo()
	key := ref.DownstreamKeys()[0]
	b, _ := ref.FindDownstream(key)
	task, _, _ := strings.Cut(key, "/")
	ds := &data.Dataset{Name: "bulk", Task: task}
	for i := 0; i < rows; i++ {
		cp := b.DS.Test[i%len(b.DS.Test)].Clone()
		cp.ID = fmt.Sprintf("bulk-%03d", i)
		ds.Test = append(ds.Test, cp)
	}
	var blob bytes.Buffer
	if err := dataio.EncodeJSON(ds, "", &blob); err != nil {
		t.Fatal(err)
	}
	input := filepath.Join(work, "input.json")
	if err := os.WriteFile(input, blob.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	// Two specs over the same input and adapter, differing only in output
	// path (so they are distinct jobs with distinct checkpoint logs): A
	// runs uninterrupted, B is killed and resumed. Byte-identity of their
	// outputs is the recovery verdict.
	writeSpec := func(name, out string) string {
		path := filepath.Join(work, name)
		spec := fmt.Sprintf(`{
  "adapter": %q,
  "input": {"path": %q},
  "output": {"path": %q},
  "shards": %d,
  "limits": {"concurrency": 8, "shard_parallelism": 2, "retries": 3, "row_timeout_s": 60}
}`, key, input, out, shards)
		if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	outA, outB := filepath.Join(work, "outA.csv"), filepath.Join(work, "outB.csv")
	specA, specB := writeSpec("specA.json", outA), writeSpec("specB.json", outB)
	spB, err := jobs.ParseSpecFile(specB)
	if err != nil {
		t.Fatal(err)
	}
	ckptB := filepath.Join(work, "ckptB")
	logB := jobs.CheckpointPath(ckptB, spB.ID())

	fl := mustSpawn(t, "main", backends, "-max-adapters", "4", "-faults", "rate=0.3,seed=9")
	urls := strings.Join(fl.urls(), ",")
	// job runs `knowtrans job VERB` against the fleet and returns the
	// engine's shard, resumed-shard and row-failure counts.
	job := func(verb, spec, ckpt string) (nShards, resumed, rowFailures int) {
		out, stderr, exit := knowtrans(t, "job", verb, "-spec", spec, "-backends", urls,
			"-checkpoint", ckpt, "-seed", fmt.Sprint(drillSeed))
		m := jobDone.FindStringSubmatch(out)
		if exit != 0 || m == nil {
			t.Fatalf("job %s %s: exit %d\n%s%s", verb, spec, exit, out, stderr)
		}
		nShards, _ = strconv.Atoi(m[1])
		resumed, _ = strconv.Atoi(m[2])
		rowFailures, _ = strconv.Atoi(m[3])
		return
	}

	// Job A: the uninterrupted reference run.
	_, _, failedA := job("run", specA, filepath.Join(work, "ckptA"))

	// Job B: a child runs the same rows and SIGKILLs itself the instant the
	// Nth shard commits.
	crash := child("job-crash", specB, urls, ckptB, fmt.Sprint(killAfter))
	crash.Stderr = os.Stderr
	if err := crash.Run(); !sigkilled(err) {
		t.Fatalf("the crashing run must die of SIGKILL mid-job; it ended with %v (%v)", crash.ProcessState, err)
	}
	st, err := jobs.ReadLog(logB)
	if err != nil {
		t.Fatalf("reading post-kill checkpoint: %v", err)
	}
	committed := len(st.Shards)
	if committed < killAfter {
		t.Fatalf("only %d shards survived the kill, want >= %d fsynced commits", committed, killAfter)
	}
	if committed >= shards || st.Done {
		t.Fatalf("the killed run finished all %d shards (done=%v); the kill came too late to prove anything", committed, st.Done)
	}
	t.Logf("killed run left %d/%d committed shards", committed, shards)

	// Tear the checkpoint tail the way a second kill mid-append would, and
	// require recovery to tolerate it.
	cf, err := os.OpenFile(logB, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	_, err = cf.WriteString(`{"type":"shard","shard":99,"answers":["torn`)
	cf.Close()
	if err != nil {
		t.Fatal(err)
	}
	st2, err := jobs.ReadLog(logB)
	if err != nil {
		t.Fatalf("torn checkpoint tail was not tolerated: %v", err)
	}
	if !st2.Truncated || len(st2.Shards) != committed {
		t.Fatalf("torn-tail recovery wrong: truncated=%v shards=%d (want %d)", st2.Truncated, len(st2.Shards), committed)
	}

	// Resume: every committed shard must be adopted, none rerun.
	nShards, resumed, failedB := job("resume", specB, ckptB)

	// Duplicate-Transfer audit: across job A, the killed run and the
	// resume, no adapter may have been transferred twice on any backend.
	duplicates := 0
	for _, u := range fl.urls() {
		for _, ks := range adapterStats(t, u) {
			if ks.Transfers > 1 {
				duplicates += int(ks.Transfers - 1)
				t.Logf("backend %s transferred %s %d times", u, ks.Key, ks.Transfers)
			}
		}
	}
	// The backends must drain clean on SIGTERM.
	if err := fl.drain(drainDeadline); err != nil {
		t.Error(err)
	}

	blobA, err := os.ReadFile(outA)
	if err != nil {
		t.Fatal(err)
	}
	blobB, err := os.ReadFile(outB)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d rows, %d shards, resumed %d, %d row failures, %d duplicate transfers, byte_identical=%v",
		rows, nShards, resumed, failedA+failedB, duplicates, bytes.Equal(blobA, blobB))

	// Verdicts: the recovery story holds or the drill fails.
	if resumed != committed {
		t.Errorf("resume adopted %d shards, checkpoint held %d", resumed, committed)
	}
	if !bytes.Equal(blobA, blobB) {
		t.Errorf("resumed output differs from the uninterrupted run:\n%s---\n%s", blobB, blobA)
	}
	if duplicates != 0 {
		t.Errorf("%d duplicated Transfers across the kill/resume drill, want 0", duplicates)
	}
	if failedA+failedB != 0 {
		t.Errorf("%d rows were lost, want 0 (retries should absorb transient faults)", failedA+failedB)
	}
}

// TestDrillTable6AcrossProcesses: the rendered tables of a serial and a
// 4-worker `experiment table6`, each a process of its own, are the same
// bytes (the "(table6 in 9.2s ...)" trailer is wall time). In process and
// cell by cell this is eval.TestTable6SerialParallelDeterminism.
func TestDrillTable6AcrossProcesses(t *testing.T) {
	needDrill(t)
	tables := func(workers string) string {
		out, stderr, exit := knowtrans(t, "experiment", "table6", "-scale", fmt.Sprint(drillScale),
			"-seed", fmt.Sprint(drillSeed), "-workers", workers)
		if exit != 0 {
			t.Fatalf("experiment table6 -workers %s: exit %d\n%s", workers, exit, stderr)
		}
		var kept []string
		for _, line := range strings.Split(out, "\n") {
			if !strings.HasPrefix(line, "(table6 in ") {
				kept = append(kept, line)
			}
		}
		return strings.Join(kept, "\n")
	}
	serial, parallel := tables("1"), tables("4")
	if !strings.Contains(serial, "Average (all)") || serial != parallel {
		t.Fatalf("table6 differs between -workers 1 and -workers 4:\n%s\n---\n%s", serial, parallel)
	}
}

// recordedSettings are the flags results_full.txt was recorded at.
var recordedSettings = []string{"-scale", "0.1", "-reps", "2", "-seed", "1"}

// timingLine matches the "(table2 in 27.1s, scale=0.10, reps=2, seed=1)" line
// that follows each table: wall time, the one thing a rerun may change.
var timingLine = regexp.MustCompile(`^\([a-z0-9-]+ in [0-9.]+s, `)

// TestDrillPaperTables is the paper as a gate: `experiment all` at the
// recorded settings prints results_full.txt byte for byte, but for the timing
// line after each table. Every table and figure of the reproduction runs
// through it, Table II's MELD column through one-example StepBatch windows
// included, so any change to the arithmetic of training, fusion, search or
// answering fails here unless the file is re-recorded with it.
func TestDrillPaperTables(t *testing.T) {
	needDrill(t)
	want, err := os.ReadFile(filepath.Join("..", "..", "results_full.txt"))
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	out, stderr, exit := knowtrans(t, append([]string{"experiment", "all"}, recordedSettings...)...)
	if exit != 0 {
		t.Fatalf("experiment all %v: exit %d\n%s", recordedSettings, exit, stderr)
	}
	t.Logf("experiment all %v: %.1fs", recordedSettings, time.Since(start).Seconds())
	tables := func(s string) []string {
		var kept []string
		for _, line := range strings.Split(s, "\n") {
			if !timingLine.MatchString(line) {
				kept = append(kept, line)
			}
		}
		return kept
	}
	got, rec := tables(out), tables(string(want))
	for i := range min(len(got), len(rec)) {
		if got[i] != rec[i] {
			t.Fatalf("with timing lines dropped, line %d differs from results_full.txt:\n got %q\nwant %q", i+1, got[i], rec[i])
		}
	}
	if len(got) != len(rec) {
		t.Fatalf("experiment all printed %d lines, results_full.txt holds %d (timing lines dropped)", len(got), len(rec))
	}
}

// TestDrillArtifacts: `build` in one process, then `transfer -artifacts` in
// another prints, from the first line naming Jellyfish-7B on, the bytes
// `transfer` prints from a zoo it trained itself — on the two datasets whose
// scores the old copied -artifacts path got wrong. In process and over all 13
// datasets this is TestTransferDigest (root package). A directory built at
// another seed is refused by name, exit 1.
func TestDrillArtifacts(t *testing.T) {
	needDrill(t)
	dir := filepath.Join(t.TempDir(), "artifacts")
	common := []string{"-scale", fmt.Sprint(drillScale), "-seed", fmt.Sprint(drillSeed)}
	if _, stderr, exit := knowtrans(t, append([]string{"build", "-artifacts", dir}, common...)...); exit != 0 {
		t.Fatalf("build: exit %d\n%s", exit, stderr)
	}
	transfer := func(args ...string) (string, time.Duration) {
		start := time.Now()
		out, stderr, exit := knowtrans(t, append(append([]string{"transfer"}, args...), common...)...)
		if exit != 0 {
			t.Fatalf("transfer %v: exit %d\n%s", args, exit, stderr)
		}
		i := strings.Index(out, "Jellyfish-7B")
		if i < 0 || !strings.Contains(out, "KnowTrans-7B:") {
			t.Fatalf("transfer %v printed no scores:\n%s", args, out)
		}
		return out[i:], time.Since(start)
	}
	for _, key := range []string{"EM/Walmart-Amazon", "AVE/OA-mine"} {
		trained, trainedWall := transfer("-dataset", key)
		loaded, loadedWall := transfer("-dataset", key, "-artifacts", dir)
		t.Logf("%s: transfer %.1fs, transfer -artifacts %.1fs", key, trainedWall.Seconds(), loadedWall.Seconds())
		if loaded != trained {
			t.Errorf("%s: transfer -artifacts differs from transfer:\n%s---\n%s", key, loaded, trained)
		}
	}
	_, stderr, exit := knowtrans(t, "transfer", "-artifacts", dir, "-scale", fmt.Sprint(drillScale), "-seed", "2")
	if exit != 1 || !strings.Contains(stderr, "artifact mismatch") || !strings.Contains(stderr, "Seed:2") {
		t.Errorf("transfer -artifacts at another seed: exit %d, stderr %q; want exit 1 naming the mismatch", exit, stderr)
	}
}
