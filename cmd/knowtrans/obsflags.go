package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	netpprof "net/http/pprof"
	"os"
	rtpprof "runtime/pprof"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/profile"
)

// obsFlags are the observability options shared by every subcommand:
//
//	-trace FILE.jsonl   span trace of the run (Transfer → SKC → AKB tree)
//	-metrics FILE.json  counters/gauges/histogram summaries at exit
//	-pprof ADDR         serve net/http/pprof and /metrics.json (re-snapshotted
//	                    on every scrape) on ADDR (dedicated mux; bind
//	                    failure is a startup error, shutdown is graceful
//	                    at exit)
//	-sample D           poll runtime/metrics every D into a runtime.sample
//	                    event in the -trace file (0 disables; needs -trace)
//	-cpuprofile FILE    whole-run CPU profile
//	-memprofile FILE    heap profile written at exit
//	-profdir DIR        slow-request-triggered CPU/heap captures (serve)
//
// With none set, the pipeline runs through a nil recorder at zero cost.
type obsFlags struct {
	trace      string
	metrics    string
	pprof      string
	sample     time.Duration
	cpuprofile string
	memprofile string
	profdir    string

	// trigger is populated by setup for the services, which wire it into
	// serve.Options.Profiles.
	trigger *profile.Trigger
}

func addObsFlags(fs *flag.FlagSet) *obsFlags {
	o := &obsFlags{}
	fs.StringVar(&o.trace, "trace", "", "write a JSONL span trace to `file`")
	fs.StringVar(&o.metrics, "metrics", "", "write a metrics JSON snapshot to `file` at exit")
	fs.StringVar(&o.pprof, "pprof", "", "serve pprof + live /metrics.json on `addr` (e.g. localhost:6060)")
	fs.DurationVar(&o.sample, "sample", 0, "poll runtime/metrics every `interval` into the -trace file (0 disables)")
	fs.StringVar(&o.cpuprofile, "cpuprofile", "", "write a whole-run CPU profile to `file`")
	fs.StringVar(&o.memprofile, "memprofile", "", "write a heap profile to `file` at exit")
	fs.StringVar(&o.profdir, "profdir", "", "write slow-request-triggered CPU/heap captures under `dir`")
	return o
}

// obsCleanup is the registered finish func of the active obsFlags setup;
// fatal() runs it so an aborting run still flushes its trace and metrics
// to disk (the analyzer tolerates the truncated tail a hard kill leaves,
// but an error exit shouldn't need that tolerance).
var (
	obsCleanupMu sync.Mutex
	obsCleanup   func() error
)

func runObsCleanup() {
	obsCleanupMu.Lock()
	f := obsCleanup
	obsCleanup = nil
	obsCleanupMu.Unlock()
	if f == nil {
		return
	}
	if err := f(); err != nil {
		fmt.Fprintf(os.Stderr, "knowtrans: observability shutdown: %v\n", err)
	}
}

// enabled reports whether any observability flag asked for anything.
func (o *obsFlags) enabled() bool {
	return o.trace != "" || o.metrics != "" || o.pprof != "" ||
		o.sample > 0 || o.cpuprofile != "" || o.memprofile != "" || o.profdir != ""
}

// start is setup for a subcommand, to which a telemetry failure — at setup or
// in the returned flush, which must run before exit — is fatal. Trace IDs
// are random (obs.NewTraceID), whatever -seed says. A service always carries
// a metrics registry (/metrics.json needs one even when no obs flag asked
// for files); a batch run with no obs flag keeps the nil recorder and its
// zero cost. -sample without -trace would record nothing, so it is refused
// before any file is created.
func (o *obsFlags) start(service bool) (*obs.Recorder, func()) {
	if o.sample > 0 && o.trace == "" {
		mistake("-sample writes runtime samples into the -trace file; name one")
	}
	rec, finish, err := o.setup()
	if err != nil {
		fatal(err)
	}
	if rec == nil && service {
		rec = obs.NewRecorder(obs.NewRegistry(), nil)
	}
	return rec, func() {
		if err := finish(); err != nil {
			fatal(err)
		}
	}
}

// setup builds the recorder the flags ask for. Everything it acquires goes
// on one list of release functions, in the reverse of the order a clean exit
// needs: the returned finish runs the list backwards — at most once (fatal()
// triggers it on the error path too), before exit, safe when no flag was
// set — and so does setup itself when a later step fails, so a failed start
// leaves no goroutine running and no file open.
func (o *obsFlags) setup() (_ *obs.Recorder, _ func() error, err error) {
	if !o.enabled() {
		return nil, func() error { return nil }, nil
	}
	var (
		releases []func() error
		once     sync.Once
		ready    bool // setup completed: the at-exit files are worth writing
	)
	finish := func() error {
		var firstErr error
		once.Do(func() {
			for i := len(releases) - 1; i >= 0; i-- {
				if err := releases[i](); err != nil && firstErr == nil {
					firstErr = err
				}
			}
		})
		return firstErr
	}
	defer func() {
		if err != nil {
			finish() // the step that failed is the error worth reporting
		}
	}()
	// atExit registers a file written by a clean finish only.
	atExit := func(path, what string, write func(io.Writer) error) {
		releases = append(releases, func() error {
			if !ready {
				return nil
			}
			f, err := os.Create(path)
			if err != nil {
				return fmt.Errorf("open %s: %w", what, err)
			}
			if err := write(f); err != nil {
				f.Close()
				return err
			}
			return f.Close()
		})
	}

	// The registry exists whenever any observability is on: spans and
	// metrics come from the same instrumentation points, a trace-only run
	// still benefits from counters being cheap, and the live /metrics.json
	// endpoint needs something to render even when nothing is written at
	// exit.
	reg := obs.NewRegistry()

	// Released last: the live telemetry endpoint. It gets its own mux —
	// registering pprof on the global default mux would leak handlers into
	// every http.Handler the process serves — and binds synchronously so a
	// bad -pprof addr is a startup error, not a lost stderr line after the
	// run is underway.
	if o.pprof != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", netpprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", netpprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", netpprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", netpprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", netpprof.Trace)
		obs.MountMetrics(mux, reg)
		ln, err := net.Listen("tcp", o.pprof)
		if err != nil {
			return nil, nil, fmt.Errorf("bind pprof server: %w", err)
		}
		srv := &http.Server{Handler: mux}
		served := make(chan struct{})
		go func() {
			defer close(served)
			if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
				fmt.Fprintf(os.Stderr, "knowtrans: pprof server: %v\n", err)
			}
		}()
		releases = append(releases, func() error {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			err := srv.Shutdown(ctx)
			<-served
			return err
		})
		fmt.Fprintf(os.Stderr, "telemetry on http://%s: /debug/pprof/ /metrics.json\n", ln.Addr())
	}

	var tracer *obs.Tracer
	if o.trace != "" {
		f, err := os.Create(o.trace)
		if err != nil {
			return nil, nil, fmt.Errorf("open trace file: %w", err)
		}
		tracer = obs.NewTracer(f)
		// Close flushes the JSONL tail and surfaces any write error the
		// tracer swallowed mid-run.
		releases = append(releases, tracer.Close)
	}
	rec := obs.NewRecorder(reg, tracer)

	// The snapshots come after the sampler's last sample (registered below,
	// so released before them) and before the tracer closes.
	if o.metrics != "" {
		atExit(o.metrics, "metrics file", reg.WriteJSON)
	}
	if o.memprofile != "" {
		atExit(o.memprofile, "mem profile", profile.WriteHeap)
	}

	// Whole-run CPU profile: started before anything interesting runs.
	// Triggered captures tolerate the profiler being owned for the whole
	// run (they keep the heap half).
	if o.cpuprofile != "" {
		f, err := os.Create(o.cpuprofile)
		if err != nil {
			return nil, nil, fmt.Errorf("open cpu profile: %w", err)
		}
		releases = append(releases, f.Close)
		if err := rtpprof.StartCPUProfile(f); err != nil {
			return nil, nil, fmt.Errorf("start cpu profile: %w", err)
		}
		releases = append(releases, func() error { rtpprof.StopCPUProfile(); return nil })
	}

	// Continuous runtime sampling: the runtime.sample trace events
	// `knowtrans obs prof` reads. Released first, before the tracer closes:
	// Stop's final sample is the trace's last one.
	if o.sample > 0 {
		sampler := profile.Start(profile.Config{Interval: o.sample, Rec: rec})
		releases = append(releases, func() error { sampler.Stop(); return nil })
	}

	if o.profdir != "" {
		if err := os.MkdirAll(o.profdir, 0o755); err != nil {
			return nil, nil, fmt.Errorf("create profile dir: %w", err)
		}
		o.trigger = &profile.Trigger{Dir: o.profdir, Rec: rec}
	}

	ready = true
	obsCleanupMu.Lock()
	obsCleanup = finish
	obsCleanupMu.Unlock()
	return rec, finish, nil
}
