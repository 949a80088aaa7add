package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/jobs"
	"repro/internal/serve"
)

// serviceFlags are the options of the two subcommands that put a
// serve.Server on a port — serve over a registry, route over a router — and
// the one wiring from them to a listening, draining server.
type serviceFlags struct {
	opts         *serve.Options // the caller's: serve's registry flags bind into the same value
	addr         string
	drainTimeout time.Duration
	accessLog    string
	jobsDir      string
}

// addServiceFlags registers the shared set. The server half of opts defaults
// to what opts holds on entry (WithDefaults, plus the subcommand's overrides).
func addServiceFlags(fs *flag.FlagSet, opts *serve.Options, addr string) *serviceFlags {
	sf := &serviceFlags{opts: opts}
	fs.StringVar(&sf.addr, "addr", addr, "listen address")
	fs.DurationVar(&opts.RequestTimeout, "timeout", opts.RequestTimeout, "per-request deadline")
	fs.IntVar(&opts.MaxInflight, "max-inflight", opts.MaxInflight,
		"shed predicts with 429 + Retry-After past this many in flight (0 = unlimited)")
	fs.DurationVar(&sf.drainTimeout, "drain-timeout", 30*time.Second,
		"how long SIGTERM waits for in-flight requests before the process exits anyway")
	fs.StringVar(&sf.accessLog, "access-log", "-",
		"write one JSON access-log line per request to `file` (\"-\" = stderr, empty disables)")
	fs.DurationVar(&opts.SlowRequest, "slow", opts.SlowRequest, "access-log latency threshold for slow=true + Warn level")
	fs.StringVar(&sf.jobsDir, "jobs-dir", "",
		"mount the bulk-job API (POST/GET /v1/jobs) on this `dir`: checkpoint logs land in it, and the input/output paths of posted specs resolve under it (empty disables)")
	return sf
}

// serve fronts res with the HTTP API (and the job API under -jobs-dir) and
// serves until a clean drain; anything else is fatal. opts.Rec is the
// caller's; the access log and the slow-request trigger are wired here.
func (sf *serviceFlags) serve(res serve.Resolver, of *obsFlags, announce func(net.Addr)) {
	if sf.accessLog != "" {
		out := os.Stderr
		if sf.accessLog != "-" {
			f, err := os.OpenFile(sf.accessLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				fatal(fmt.Errorf("open access log: %w", err))
			}
			defer f.Close()
			out = f
		}
		sf.opts.AccessLog = slog.New(slog.NewJSONHandler(out, nil))
	}
	sf.opts.Profiles = of.trigger
	srv := serve.NewServer(res, *sf.opts)
	if sf.jobsDir != "" {
		jm := jobs.NewManager(res, jobs.ManagerOptions{
			CheckpointDir: sf.jobsDir,
			Rec:           sf.opts.Rec,
		})
		jm.Mount(srv)
	}
	if err := serveWithDrain(sf.addr, srv, sf.drainTimeout, announce); err != nil {
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
