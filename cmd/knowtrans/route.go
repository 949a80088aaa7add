package main

import (
	"context"
	"fmt"
	"net"
	"os"
	"slices"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/eval"
	"repro/internal/jobs"
	"repro/internal/serve"
)

// runRoute starts the sharded serving tier: a consistent-hash router over
// a fleet of `knowtrans serve` backends, exposing the exact same HTTP API
// a single backend does (the router implements serve.Resolver). With
// -selftest it instead spawns its own 3-backend fleet as subprocesses,
// drives a concurrent seeded load through router + fleet, SIGKILLs one
// backend mid-load, and requires zero failed requests, byte-identical
// answers vs the direct path, recorded hedges/failovers, ejection of the
// dead backend, and a clean SIGTERM drain of the survivors.
func runRoute(args []string) {
	fs := newFlagSet("route")
	addr := fs.String("addr", "localhost:8090", "router listen address")
	backendList := fs.String("backends", "", "comma-separated backend base URLs, e.g. http://10.0.0.7:8080,http://10.0.0.8:8080")
	replication := fs.Int("replication", 2, "distinct backends owning each key (primary + replicas)")
	vnodes := fs.Int("vnodes", 64, "virtual nodes per backend on the hash ring")
	probeInterval := fs.Duration("probe-interval", 500*time.Millisecond, "base /readyz probe period per backend")
	probeTimeout := fs.Duration("probe-timeout", 2*time.Second, "one health probe's deadline")
	failThreshold := fs.Int("fail-threshold", 2, "consecutive probe failures that eject a backend")
	hedgeDelay := fs.Duration("hedge-delay", 0, "fixed backup-request delay (0 = p95-derived, negative disables hedging)")
	hedgeMin := fs.Duration("hedge-min", time.Millisecond, "lower clamp for the p95-derived hedge delay")
	hedgeMax := fs.Duration("hedge-max", time.Second, "upper clamp for the p95-derived hedge delay")
	retryBudget := fs.Int("retry-budget", 2, "extra attempts (hedges + failovers) per request beyond the first")
	attemptTimeout := fs.Duration("attempt-timeout", 60*time.Second, "one backend HTTP call's deadline")
	reqTimeout := fs.Duration("timeout", 120*time.Second, "per-request deadline at the router")
	maxInflight := fs.Int("max-inflight", 0, "shed predicts with 429 + Retry-After past this many in flight (0 = unlimited)")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second,
		"how long SIGTERM waits for in-flight requests before the router exits anyway")
	seed := fs.Int64("seed", 1, "seed for probe jitter (and the selftest's load)")
	jobsDir := fs.String("jobs-dir", "",
		"mount the bulk-job API (POST/GET /v1/jobs) with checkpoint logs in this `dir` (empty disables)")
	maxJobs := fs.Int("max-jobs", 4, "with -jobs-dir: concurrent bulk jobs before 429")
	selftest := fs.Bool("selftest", false, "run the fault-tolerance gate instead of routing forever")
	stBackends := fs.Int("selftest-backends", 3, "selftest: backends to spawn")
	stRequests := fs.Int("selftest-requests", 256, "selftest: predict requests per load phase")
	stConcurrency := fs.Int("selftest-concurrency", 64, "selftest: concurrent in-flight requests")
	stAdapters := fs.Int("selftest-adapters", 4, "selftest: distinct adapters to load")
	scale := fs.Float64("scale", 0.15, "selftest: dataset scale for the spawned backends")
	faultSpec := fs.String("faults", "",
		"selftest: oracle-fault `spec` rate=R,seed=S[,kinds=a+b] forwarded to the spawned backends")
	of := addObsFlags(fs)
	parseOrExit(fs, args)

	rec, finish := serviceRecorder(of, *seed)

	copts := cluster.Options{
		Replication:    *replication,
		VNodes:         *vnodes,
		ProbeInterval:  *probeInterval,
		ProbeTimeout:   *probeTimeout,
		FailThreshold:  *failThreshold,
		HedgeDelay:     *hedgeDelay,
		HedgeMin:       *hedgeMin,
		HedgeMax:       *hedgeMax,
		RetryBudget:    *retryBudget,
		AttemptTimeout: *attemptTimeout,
		Seed:           *seed,
		Rec:            rec,
	}

	if *selftest {
		finishDrill(runRouteSelftest(routeSelftestConfig{
			backends:    *stBackends,
			requests:    *stRequests,
			concurrency: *stConcurrency,
			adapters:    *stAdapters,
			scale:       *scale,
			seed:        *seed,
			faults:      *faultSpec,
			copts:       copts,
			reqTimeout:  *reqTimeout,
		}), finish)
		return
	}

	copts.Backends = splitBackends(*backendList)
	if len(copts.Backends) == 0 {
		fmt.Fprintln(os.Stderr, "knowtrans: route needs -backends (or -selftest)")
		usage()
		os.Exit(2)
	}
	r, err := cluster.New(copts)
	if err != nil {
		fatal(err)
	}
	defer r.Close()
	srv := serve.NewServer(r, serve.Options{
		RequestTimeout: *reqTimeout,
		MaxInflight:    *maxInflight,
		Rec:            rec,
		Sampler:        of.sampler,
		Profiles:       of.trigger,
	})
	if *jobsDir != "" {
		jm := jobs.NewManager(r, jobs.ManagerOptions{
			CheckpointDir: *jobsDir,
			MaxActive:     *maxJobs,
			Rec:           rec,
		})
		jobs.NewAPI(jm).Register(srv)
	}
	err = serveWithDrain(*addr, srv, *drainTimeout, func(bound net.Addr) {
		fmt.Printf("knowtrans route on http://%s (%d backends, replication=%d, hedge=%s)\n",
			bound, len(copts.Backends), copts.Replication, hedgeDesc(*hedgeDelay))
		for _, b := range copts.Backends {
			fmt.Printf("  backend %s\n", b)
		}
	})
	if err != nil {
		fatal(err)
	}
	if err := finish(); err != nil {
		fatal(err)
	}
}

func splitBackends(s string) []string {
	var out []string
	for _, b := range strings.Split(s, ",") {
		if b = strings.TrimSpace(b); b != "" {
			out = append(out, b)
		}
	}
	return out
}

func hedgeDesc(d time.Duration) string {
	switch {
	case d < 0:
		return "off"
	case d == 0:
		return "p95-derived"
	default:
		return d.String()
	}
}

type routeSelftestConfig struct {
	backends    int
	requests    int
	concurrency int
	adapters    int
	scale       float64
	seed        int64
	faults      string
	copts       cluster.Options
	reqTimeout  time.Duration
}

// runRouteSelftest is the acceptance gate behind `knowtrans route -selftest`:
// spawn a fleet, route a concurrent load through it, murder one backend
// mid-load, and require the client to never notice.
func runRouteSelftest(cfg routeSelftestConfig) error {
	if cfg.backends < 2 {
		return fmt.Errorf("route: -selftest-backends must be >= 2 (replication needs somewhere to go)")
	}

	// Reference answers come from a direct zoo at the same (seed, scale) —
	// the oracle the routed answers must match byte-for-byte no matter
	// which replica served them.
	ref := eval.NewZoo(cfg.seed, cfg.scale)
	keys := ref.DownstreamKeys()
	if cfg.adapters < 1 || cfg.adapters > len(keys) {
		return fmt.Errorf("route: -selftest-adapters must be in [1,%d]", len(keys))
	}
	keys = keys[:cfg.adapters]
	items, err := referenceLoad(ref, keys, cfg.requests, cfg.seed)
	if err != nil {
		return err
	}

	fl, err := spawnFleet(cfg.backends, cfg.scale, cfg.seed, cfg.adapters+2, cfg.faults)
	if err != nil {
		return err
	}
	defer fl.close()

	// Two router replicas front the same fleet, one per load phase, each
	// pinning one fault mechanism so the gate can require hard evidence of
	// both. The hedging replica runs a fixed 2ms hedge delay: under this
	// load every request outlives it, so tail hedging provably fires. The
	// failover replica runs with hedging disabled: when the victim dies,
	// the ONLY way its requests can still succeed is the error-triggered
	// failover branch — no timer race can mask it. (With hedging on, the
	// backup is already in flight before the primary's connection error
	// lands, so the failover counter never moves — observed, not
	// hypothesized.) Both probe independently; both must eject the corpse.
	copts := cfg.copts
	copts.Backends = fl.urls()
	copts.ProbeInterval = 100 * time.Millisecond
	copts.ProbeTimeout = time.Second
	if copts.HedgeDelay == 0 {
		copts.HedgeDelay = 2 * time.Millisecond
	}
	rHedge, err := cluster.New(copts)
	if err != nil {
		return err
	}
	defer rHedge.Close()
	fopts := copts
	fopts.HedgeDelay = -1 // failover replica: error-triggered retries only
	rFail, err := cluster.New(fopts)
	if err != nil {
		return err
	}
	defer rFail.Close()

	sopts := serve.Options{RequestTimeout: cfg.reqTimeout, Rec: copts.Rec}
	hedgeURL, stopHedge, err := listen(serve.NewServer(rHedge, sopts))
	if err != nil {
		return err
	}
	defer stopHedge()
	failURL, stopFail, err := listen(serve.NewServer(rFail, sopts))
	if err != nil {
		return err
	}
	defer stopFail()

	// Pre-warm every key through the router: Warm fans out to every owner,
	// so replicas are hot before the first hedge or failover needs them.
	fmt.Printf("selftest: pre-warming %d keys across the fleet...\n", len(keys))
	for _, key := range keys {
		if _, err := rHedge.Warm(context.Background(), key); err != nil {
			return fmt.Errorf("route: warm %s: %w", key, err)
		}
	}

	// Phase 1: full fleet, hedging router.
	fmt.Printf("selftest: phase 1 — %d requests, %d concurrent, fleet healthy, hedge delay %s\n",
		len(items), cfg.concurrency, copts.HedgeDelay)
	p1, err := serve.RunLoad(context.Background(), hedgeURL, items, serve.LoadOptions{
		Concurrency: cfg.concurrency,
		TraceSeed:   cfg.seed,
	})
	if err != nil {
		return fmt.Errorf("route: phase-1 load: %w", err)
	}

	// Phase 2: same load through the failover router, and when a quarter
	// of it has completed, SIGKILL the primary owner of the first key.
	victim := rFail.Owners(keys[0])[0]
	killAt := len(items) / 4
	fmt.Printf("selftest: phase 2 — same load, hedging off, SIGKILL %s after %d requests\n", victim, killAt)
	p2, err := serve.RunLoad(context.Background(), failURL, items, serve.LoadOptions{
		Concurrency: cfg.concurrency,
		TraceSeed:   cfg.seed + 1,
		AtCount:     killAt,
		OnCount:     func() { fl.kill(victim) },
	})
	if err != nil {
		return fmt.Errorf("route: phase-2 load: %w", err)
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
			return fmt.Errorf("route: victim %s was never ejected: hedge=%+v fail=%+v",
				victim, rHedge.Stats(), rFail.Stats())
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Rebalance: every key the victim owned must now be served by its
	// replica — same answer, no error, straight through the router. One
	// item per such key goes through the loader, which checks all three.
	var probes []serve.LoadItem
	probed := map[string]bool{}
	for _, it := range items {
		if !probed[it.Key] && slices.Contains(rFail.Owners(it.Key), victim) {
			probed[it.Key] = true
			probes = append(probes, it)
		}
	}
	if len(probes) == 0 {
		return fmt.Errorf("route: victim %s owned no keys — rebalance went unexercised", victim)
	}
	p3, err := serve.RunLoad(context.Background(), failURL, probes, serve.LoadOptions{TraceSeed: cfg.seed + 2})
	if err != nil {
		return fmt.Errorf("route: post-ejection load: %w", err)
	}

	// Survivors must drain clean on SIGTERM.
	if err := fl.drain(drainDeadline); err != nil {
		return err
	}

	stHedge, stFail := rHedge.Stats(), rFail.Stats()
	fmt.Printf("selftest: healthy:  %d requests, %.0f req/s, p50 %.1fms p95 %.1fms p99 %.1fms, %d non-2xx\n",
		p1.Requests, p1.RPS, p1.P50us/1e3, p1.P95us/1e3, p1.P99us/1e3, p1.Non2xx)
	fmt.Printf("selftest: degraded: %d requests, %.0f req/s, p50 %.1fms p95 %.1fms p99 %.1fms, %d non-2xx\n",
		p2.Requests, p2.RPS, p2.P50us/1e3, p2.P95us/1e3, p2.P99us/1e3, p2.Non2xx)
	fmt.Printf("selftest: chaos: %d hedges (%.1f%% of %d hedged-phase requests), %d failovers, %d ejections, rebalanced %d keys off %s\n",
		stHedge.Hedges, 100*float64(stHedge.Hedges)/float64(stHedge.Requests), stHedge.Requests,
		stFail.Failovers, stFail.Ejections, len(probes), victim)
	// Per-backend load is the sum across both router replicas — the fleet
	// served both phases.
	for i, b := range stHedge.Backends {
		fb := stFail.Backends[i]
		fmt.Printf("selftest: backend %-28s requests=%d failures=%d qps=%.0f healthy=%v\n",
			b.URL, b.Requests+fb.Requests, b.Failures+fb.Failures,
			float64(b.Requests+fb.Requests)/(p1.WallS+p2.WallS), b.Healthy && fb.Healthy)
	}

	// Verdicts. A client of the routed tier must never see a failure or a
	// divergent answer — not even while a backend is being murdered under
	// it — and the fault machinery must have demonstrably fired.
	if err := loadVerdict("route", false, p1, p2, p3); err != nil {
		return err
	}
	if stHedge.Hedges == 0 {
		return fmt.Errorf("route: no hedges fired (delay %s) — the hedging path went unexercised", copts.HedgeDelay)
	}
	if stFail.Failovers == 0 {
		return fmt.Errorf("route: no failovers recorded despite a SIGKILLed backend")
	}
	if stFail.Ejections == 0 {
		return fmt.Errorf("route: the killed backend was never ejected")
	}
	fmt.Println("selftest: PASS")
	return nil
}
