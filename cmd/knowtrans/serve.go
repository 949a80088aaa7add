package main

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/jobs"
	"repro/internal/serve"
)

// runServe starts the inference service: an adapter registry over the
// zoo's TransferDataset, fronted by the HTTP API of internal/serve.
func runServe(args []string) {
	fs := newFlagSet("serve")
	addr := fs.String("addr", "localhost:8080", "listen address")
	zf := addZooFlags(fs, true)
	maxAdapters := fs.Int("max-adapters", 8, "resident-adapter bound (LRU eviction beyond it)")
	maxBatch := fs.Int("max-batch", 8, "per-adapter micro-batch cap (1 disables batching)")
	maxWait := fs.Duration("batch-wait", 2*time.Millisecond, "how long a non-full batch lingers for stragglers")
	reqTimeout := fs.Duration("timeout", 60*time.Second, "per-request deadline")
	transferTimeout := fs.Duration("transfer-timeout", 0, "cold-start Transfer bound (0 = unbounded)")
	maxInflight := fs.Int("max-inflight", 0, "shed predicts with 429 + Retry-After past this many in flight (0 = unlimited)")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second,
		"how long SIGTERM waits for in-flight requests before the process exits anyway")
	accessLog := fs.String("access-log", "-",
		"write one JSON access-log line per request to `file` (\"-\" = stderr, empty disables)")
	slowReq := fs.Duration("slow", time.Second, "access-log latency threshold for slow=true + Warn level")
	jobsDir := fs.String("jobs-dir", "",
		"mount the bulk-job API (POST/GET /v1/jobs) with checkpoint logs in this `dir` (empty disables)")
	maxJobs := fs.Int("max-jobs", 4, "with -jobs-dir: concurrent bulk jobs before 429")
	of := addObsFlags(fs)
	parseOrExit(fs, args)

	z, rec, finish := zf.open(of, true)

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

	err := serveWithDrain(*addr, srv, *drainTimeout, func(bound net.Addr) {
		// The bound address is printed first and alone on its line: whoever
		// starts a backend on 127.0.0.1:0 (the drills do) parses this line
		// for the kernel-assigned port.
		fmt.Printf("knowtrans serve on http://%s (scale=%.2f seed=%d max-adapters=%d max-batch=%d batch-wait=%s)\n",
			bound, zf.scale, zf.seed, *maxAdapters, *maxBatch, *maxWait)
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
	finish()
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
	// The handler is installed before the address is announced or /readyz
	// can answer: whoever sees this server ready may SIGTERM it at once, and
	// must get a drain, not the default action.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	announce(ln.Addr())
	hs := &http.Server{Handler: srv}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
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

// Compile-time statement that the production Adapted model satisfies the
// serving seam.
var _ serve.Adapter = (*core.Adapted)(nil)
