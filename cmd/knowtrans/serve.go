package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/faults"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/obs/profile"
	"repro/internal/serve"
)

// runServe starts the inference service: an adapter registry over the
// zoo's TransferDataset, fronted by the HTTP API of internal/serve. With
// -selftest it instead binds an ephemeral port, drives a seeded load
// through the full HTTP path with the configured concurrency, verifies
// byte-identity against the direct Adapted.Predict path, writes
// BENCH_serve.json, and exits non-zero on any failed check.
func runServe(args []string) {
	fs := newFlagSet("serve")
	addr := fs.String("addr", "localhost:8080", "listen address (selftest overrides with an ephemeral port)")
	scale := fs.Float64("scale", 0.15, "dataset scale relative to paper sizes (0,1]")
	seed := fs.Int64("seed", 1, "master random seed (adapters are deterministic in it)")
	maxAdapters := fs.Int("max-adapters", 8, "resident-adapter bound (LRU eviction beyond it)")
	maxBatch := fs.Int("max-batch", 8, "per-adapter micro-batch cap (1 disables batching)")
	maxWait := fs.Duration("batch-wait", 2*time.Millisecond, "how long a non-full batch lingers for stragglers")
	reqTimeout := fs.Duration("timeout", 60*time.Second, "per-request deadline")
	transferTimeout := fs.Duration("transfer-timeout", 0, "cold-start Transfer bound (0 = unbounded)")
	maxInflight := fs.Int("max-inflight", 0, "shed predicts with 429 + Retry-After past this many in flight (0 = unlimited)")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second,
		"how long SIGTERM waits for in-flight requests before the process exits anyway")
	faultSpec := fs.String("faults", "",
		"inject oracle faults during Transfers, `spec` rate=R,seed=S[,kinds=a+b][,latency=D]")
	accessLog := fs.String("access-log", "-",
		"write one JSON access-log line per request to `file` (\"-\" = stderr, empty disables)")
	slowReq := fs.Duration("slow", time.Second, "access-log latency threshold for slow=true + Warn level")
	jobsDir := fs.String("jobs-dir", "",
		"mount the bulk-job API (POST/GET /v1/jobs) with checkpoint logs in this `dir` (empty disables)")
	maxJobs := fs.Int("max-jobs", 4, "with -jobs-dir: concurrent bulk jobs before 429")
	selftest := fs.Bool("selftest", false, "run the load-generator gate instead of serving forever")
	stRequests := fs.Int("selftest-requests", 256, "selftest: total predict requests")
	stConcurrency := fs.Int("selftest-concurrency", 64, "selftest: concurrent in-flight requests")
	stAdapters := fs.Int("selftest-adapters", 4, "selftest: distinct adapters to load")
	stWarm := fs.Bool("selftest-warm", false,
		"selftest: pre-warm all adapters before the timed load, so throughput and bytes/op measure serving cost, not cold starts")
	benchPath := fs.String("bench", "BENCH_serve.json", "selftest: write the perf record to `file` (empty to disable)")
	of := addObsFlags(fs)
	parseOrExit(fs, args)

	rec, finish, err := of.setup()
	if err != nil {
		fatal(err)
	}
	// The service always carries a metrics registry — the /metrics endpoint,
	// the registry counters, and the selftest's batch evidence need one even
	// when no obs flag asked for files.
	if rec == nil || rec.Metrics == nil {
		var tracer *obs.Tracer
		if rec != nil {
			tracer = rec.Tracer
		}
		rec = obs.NewRecorder(obs.NewRegistry(), tracer)
	}
	// Seeded runs mint reproducible trace IDs, so the selftest's per-index
	// client traces and the server's span records line up run over run.
	rec.SeedTraceIDs(*seed)

	var logger *slog.Logger
	switch *accessLog {
	case "":
	case "-":
		logger = slog.New(slog.NewJSONHandler(os.Stderr, nil))
	default:
		f, err := os.OpenFile(*accessLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fatal(fmt.Errorf("open access log: %w", err))
		}
		defer f.Close()
		logger = slog.New(slog.NewJSONHandler(f, nil))
	}

	z := eval.NewZoo(*seed, *scale)
	z.Rec = rec
	if *faultSpec != "" {
		fcfg, err := faults.ParseSpec(*faultSpec)
		if err != nil {
			fatal(err)
		}
		z.Faults = &fcfg
	}

	opts := serve.Options{
		MaxAdapters:     *maxAdapters,
		MaxBatch:        *maxBatch,
		MaxWait:         *maxWait,
		RequestTimeout:  *reqTimeout,
		TransferTimeout: *transferTimeout,
		MaxInflight:     *maxInflight,
		Rec:             rec,
		AccessLog:       logger,
		SlowRequest:     *slowReq,
		Sampler:         of.sampler,
		Profiles:        of.trigger,
	}
	reg := serve.NewRegistry(zooTransferer(z), opts)
	srv := serve.NewServer(reg, opts)
	if *jobsDir != "" {
		jm := jobs.NewManager(reg, jobs.ManagerOptions{
			CheckpointDir: *jobsDir,
			MaxActive:     *maxJobs,
			Rec:           rec,
		})
		jobs.NewAPI(jm).Register(srv)
	}

	if *selftest {
		if err := runServeSelftest(z, reg, srv, selftestConfig{
			requests:    *stRequests,
			concurrency: *stConcurrency,
			adapters:    *stAdapters,
			warm:        *stWarm,
			benchPath:   *benchPath,
			seed:        *seed,
			scale:       *scale,
			faults:      *faultSpec,
			opts:        opts,
		}); err != nil {
			if ferr := finish(); ferr != nil {
				fmt.Fprintf(os.Stderr, "knowtrans: observability shutdown: %v\n", ferr)
			}
			fatal(err)
		}
		if err := finish(); err != nil {
			fatal(err)
		}
		return
	}

	err = serveWithDrain(*addr, srv, *drainTimeout, func(bound net.Addr) {
		// The bound address is printed first and alone on its line: the
		// cluster selftest spawns backends on 127.0.0.1:0 and parses this
		// line for the kernel-assigned port.
		fmt.Printf("knowtrans serve on http://%s (scale=%.2f seed=%d max-adapters=%d max-batch=%d batch-wait=%s)\n",
			bound, *scale, *seed, *maxAdapters, *maxBatch, *maxWait)
		endpoints := "endpoints: POST /v1/predict  POST+GET /v1/adapters  GET /healthz /readyz /metrics /metrics.json"
		if *jobsDir != "" {
			endpoints += "  POST+GET /v1/jobs"
		}
		fmt.Println(endpoints)
		fmt.Printf("adapter keys: %d downstream datasets (GET /v1/adapters after a warm, or `knowtrans list`)\n",
			len(z.DownstreamKeys()))
	})
	if err != nil {
		fatal(err)
	}
	if err := finish(); err != nil {
		fatal(err)
	}
}

// serveWithDrain binds addr, announces the bound address, and serves srv
// until a fatal listener error or a shutdown signal. On SIGTERM/SIGINT the
// server drains instead of dying mid-request: /readyz flips to 503 so
// routers stop sending traffic, new predicts are shed, the listener
// closes, and in-flight requests get drainTimeout to finish. A nil return
// means a clean drain — the caller flushes telemetry and exits 0, which is
// what lets an operator (or orchestrator) restart a backend without
// failing a single request.
func serveWithDrain(addr string, srv *serve.Server, drainTimeout time.Duration, announce func(net.Addr)) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	announce(ln.Addr())
	hs := &http.Server{Handler: srv}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)
	select {
	case err := <-errc:
		return err
	case sig := <-sigc:
		fmt.Printf("knowtrans: %s — draining (in-flight requests get %s)\n", sig, drainTimeout)
		srv.StartDrain()
		ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			return fmt.Errorf("drain: %w", err)
		}
		fmt.Println("knowtrans: drained clean")
		return nil
	}
}

// zooTransferer adapts eval.Zoo.TransferDataset to the registry's seam,
// mapping unknown datasets to the sentinel the HTTP layer turns into 404.
func zooTransferer(z *eval.Zoo) serve.Transferer {
	return func(ctx context.Context, key string) (serve.Adapter, error) {
		ad, err := z.TransferDataset(ctx, key, eval.Size7B)
		if err != nil {
			if errors.Is(err, eval.ErrUnknownDataset) {
				return nil, fmt.Errorf("%w: %v", serve.ErrUnknownKey, err)
			}
			return nil, err
		}
		return ad, nil
	}
}

type selftestConfig struct {
	requests    int
	concurrency int
	adapters    int
	warm        bool
	benchPath   string
	seed        int64
	scale       float64
	faults      string
	opts        serve.Options
}

// BenchServe is the BENCH_serve.json document: the load configuration, the
// latency/throughput report, and the registry's per-key evidence that cold
// starts coalesced. Schema 2 added trace-echo accounting and the
// sample-trace handle to the embedded LoadReport; schema 3 added the
// Resources section (allocation and GC cost of the load run) so `obs diff`
// can gate resource regressions alongside latency ones; schema 4 added the
// Batching section; schema 5 dropped its two fields that told a batched run
// from a serial one, when the serial predict path was deleted.
type BenchServe struct {
	SchemaVersion int                  `json:"schema_version"`
	GeneratedAt   string               `json:"generated_at"`
	Seed          int64                `json:"seed"`
	Scale         float64              `json:"scale"`
	Faults        string               `json:"faults,omitempty"`
	Keys          []string             `json:"keys"`
	Warmed        bool                 `json:"warmed,omitempty"`
	MaxBatch      int                  `json:"max_batch"`
	MaxAdapters   int                  `json:"max_adapters"`
	BatchWaitS    float64              `json:"batch_wait_s"`
	Report        *serve.LoadReport    `json:"report"`
	Resources     *BenchServeResources `json:"resources,omitempty"`
	Batching      *BenchServeBatching  `json:"batching,omitempty"`
	Adapters      []serve.KeyStats     `json:"adapters"`
}

// BenchServeBatching is the selftest's batching evidence, read back from
// the service's own metrics after the load run: how many batches formed
// (each answered by one forward pass) and the batch size distribution.
type BenchServeBatching struct {
	Batches      int64   `json:"batches"`
	AvgBatchSize float64 `json:"avg_batch_size"`
	MaxBatchSize float64 `json:"max_batch_size"`
}

// BenchServeResources is the selftest's resource accounting: runtime
// deltas measured across the load run (reference building excluded), with
// the per-op normalizations the perf sentinel gates.
type BenchServeResources struct {
	AllocBytesTotal   uint64  `json:"alloc_bytes_total"`
	AllocObjectsTotal uint64  `json:"alloc_objects_total"`
	BytesPerOp        float64 `json:"bytes_per_op"`
	AllocsPerOp       float64 `json:"allocs_per_op"`
	GCCycles          uint64  `json:"gc_cycles"`
	GCPauseTotalUS    float64 `json:"gc_pause_total_us"`
	GoroutinesEnd     int64   `json:"goroutines_end"`
	HeapLiveEndBytes  uint64  `json:"heap_live_end_bytes"`
}

// runServeSelftest is the acceptance gate behind `knowtrans serve -selftest`:
// it proves the service sustains the configured concurrency across several
// adapters with coalesced cold starts and answers byte-identical to the
// direct path.
func runServeSelftest(z *eval.Zoo, reg *serve.Registry, srv *serve.Server, cfg selftestConfig) error {
	keys := z.DownstreamKeys()
	if cfg.adapters < 1 || cfg.adapters > len(keys) {
		return fmt.Errorf("serve: -selftest-adapters must be in [1,%d]", len(keys))
	}
	keys = keys[:cfg.adapters]

	// Reference answers come from a second, independent zoo at the same
	// (seed, scale, faults): the direct Adapted.Predict path the served
	// answers must match byte-for-byte.
	fmt.Printf("selftest: building %d reference adapters (direct path)...\n", len(keys))
	ref := eval.NewZoo(z.Seed, z.Scale)
	ref.Faults = z.Faults
	items := make([]serve.LoadItem, 0, cfg.requests)
	perKey := (cfg.requests + len(keys) - 1) / len(keys)
	for _, key := range keys {
		ad, err := ref.TransferDataset(context.Background(), key, eval.Size7B)
		if err != nil {
			return fmt.Errorf("selftest: reference transfer %s: %w", key, err)
		}
		b, _ := ref.FindDownstream(key)
		for i := 0; i < perKey && len(items) < cfg.requests; i++ {
			in := b.DS.Test[i%len(b.DS.Test)]
			items = append(items, serve.LoadItem{
				Key:  key,
				In:   serve.WireFrom(in),
				Want: ad.Predict(context.Background(), in),
			})
		}
	}
	// Interleave the keys so cold starts race each other and hot batches
	// interleave across adapters — the shape heavy multi-tenant traffic has.
	rng := rand.New(rand.NewSource(cfg.seed))
	rng.Shuffle(len(items), func(i, j int) { items[i], items[j] = items[j], items[i] })

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv}
	go hs.Serve(ln) //nolint:errcheck
	defer hs.Close()
	baseURL := "http://" + ln.Addr().String()
	fmt.Printf("selftest: %d requests, %d concurrent, %d adapters via %s\n",
		len(items), cfg.concurrency, len(keys), baseURL)

	// A warm run builds every adapter up front, so the timed bracket below
	// measures pure serving cost. Cold-start coalescing is still proven
	// (Transfers stays 1 per key); the default cold run exercises the race.
	if cfg.warm {
		fmt.Printf("selftest: pre-warming %d adapters...\n", len(keys))
		for _, key := range keys {
			if _, err := reg.Warm(context.Background(), key); err != nil {
				return fmt.Errorf("selftest: warm %s: %w", key, err)
			}
		}
	}

	// Resource accounting brackets the load run only: reference-adapter
	// building above is excluded, so bytes/op reflects serving cost.
	statsBefore := profile.ReadStats()
	rep, err := serve.RunLoad(context.Background(), baseURL, items, serve.LoadOptions{
		Concurrency: cfg.concurrency,
		TraceSeed:   cfg.seed,
	})
	statsAfter := profile.ReadStats()
	if err != nil {
		return fmt.Errorf("selftest: load run: %w", err)
	}
	snap := reg.Snapshot()
	// Batching evidence comes from the service's own metrics: the batcher
	// counts every drained batch.
	bat := &BenchServeBatching{}
	if cfg.opts.Rec != nil && cfg.opts.Rec.Metrics != nil {
		ms := cfg.opts.Rec.Metrics.Snapshot()
		bat.Batches = ms.Counters["serve.batches"]
		if h, ok := ms.Histograms["serve.batch_size"]; ok {
			bat.AvgBatchSize = h.Mean
			bat.MaxBatchSize = h.Max
		}
	}
	rd := statsAfter.Delta(statsBefore)
	res := &BenchServeResources{
		AllocBytesTotal:   rd.AllocBytes,
		AllocObjectsTotal: rd.AllocObjects,
		GCCycles:          rd.GCCycles,
		GCPauseTotalUS:    rd.GCPauseUS,
		GoroutinesEnd:     statsAfter.Goroutines,
		HeapLiveEndBytes:  statsAfter.HeapLiveBytes,
	}
	if rep.Requests > 0 {
		res.BytesPerOp = float64(rd.AllocBytes) / float64(rep.Requests)
		res.AllocsPerOp = float64(rd.AllocObjects) / float64(rep.Requests)
	}

	fmt.Printf("selftest: %d requests in %.2fs — %.0f req/s, p50 %.1fms p95 %.1fms p99 %.1fms\n",
		rep.Requests, rep.WallS, rep.RPS, rep.P50us/1e3, rep.P95us/1e3, rep.P99us/1e3)
	fmt.Printf("selftest: %d non-2xx, %d mismatches, %d cold hits, %d trace-echo misses\n",
		rep.Non2xx, rep.Mismatches, rep.ColdHits, rep.TraceEchoMisses)
	fmt.Printf("selftest: resources: %.0f B/op, %.1f allocs/op, %d gc cycles (%.1fms pause), %d goroutines, heap %.1fMB\n",
		res.BytesPerOp, res.AllocsPerOp, res.GCCycles, res.GCPauseTotalUS/1e3,
		res.GoroutinesEnd, float64(res.HeapLiveEndBytes)/(1<<20))
	fmt.Printf("selftest: batching: %d batches (avg %.1f, max %.0f)\n",
		bat.Batches, bat.AvgBatchSize, bat.MaxBatchSize)
	if rep.SampleTrace != "" {
		fmt.Printf("selftest: slowest request trace %s (inspect: knowtrans obs trace FILE.jsonl -trace-id %s)\n",
			rep.SampleTrace, rep.SampleTrace)
	}
	for _, st := range snap {
		fmt.Printf("selftest: adapter %-24s transfers=%d requests=%d hits=%d misses=%d\n",
			st.Key, st.Transfers, st.Requests, st.Hits, st.Misses)
	}

	if cfg.benchPath != "" {
		doc := &BenchServe{
			SchemaVersion: 5,
			GeneratedAt:   time.Now().UTC().Format(time.RFC3339),
			Seed:          cfg.seed,
			Scale:         cfg.scale,
			Faults:        cfg.faults,
			Keys:          keys,
			Warmed:        cfg.warm,
			MaxBatch:      cfg.opts.MaxBatch,
			MaxAdapters:   cfg.opts.MaxAdapters,
			BatchWaitS:    cfg.opts.MaxWait.Seconds(),
			Report:        rep,
			Resources:     res,
			Batching:      bat,
			Adapters:      snap,
		}
		blob, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(cfg.benchPath, append(blob, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", cfg.benchPath)
	}

	// Verdicts. Mismatches are fatal at any fault rate (the chain is seeded
	// and deterministic, so even chaos runs must match their equally-chaotic
	// reference); availability is only gated when no faults are armed.
	if rep.Mismatches > 0 {
		return fmt.Errorf("selftest: %d served answers diverged from the direct path (first: %s)",
			rep.Mismatches, rep.FirstError)
	}
	if cfg.faults == "" && rep.Non2xx > 0 {
		return fmt.Errorf("selftest: %d non-2xx responses with no faults armed (first: %s)",
			rep.Non2xx, rep.FirstError)
	}
	if rep.TraceEchoMisses > 0 {
		return fmt.Errorf("selftest: %d responses did not echo the client's traceparent (first: %s)",
			rep.TraceEchoMisses, rep.FirstError)
	}
	for _, st := range snap {
		if st.Transfers != 1 {
			return fmt.Errorf("selftest: adapter %s ran %d Transfers; cold starts must coalesce to exactly 1",
				st.Key, st.Transfers)
		}
	}
	fmt.Println("selftest: PASS")
	return nil
}

// Compile-time statement that the production Adapted model satisfies the
// serving seam.
var _ serve.Adapter = (*core.Adapted)(nil)
