package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"time"

	"repro/internal/eval"
	"repro/internal/obs"
	"repro/internal/serve"
)

// What the serve, route and job selftests share. The drills are pass/fail
// correctness gates — a served, routed or resumed answer is byte-identical
// to a direct Transfer + Predict at the same seed — and this file holds the
// one copy of everything around that claim: the recorder every service
// carries, the same-seed reference load, the spawned backend fleet, and the
// verdicts over a load report. Latency, throughput and allocation cost are
// measured by benchmark/ (BENCHMARK.json), not here.

// drainDeadline is how long a SIGTERMed backend gets to exit 0.
const drainDeadline = 15 * time.Second

// serviceRecorder builds the recorder a service subcommand runs under. A
// service always carries a metrics registry — /metrics, the registry
// counters and the selftests' batch evidence need one even when no obs flag
// asked for files. Seeded runs mint reproducible trace IDs, so a drill's
// per-index client traces and the server's span records line up run over run.
func serviceRecorder(of *obsFlags, seed int64) (*obs.Recorder, func() error) {
	rec, finish, err := of.setup()
	if err != nil {
		fatal(err)
	}
	if rec == nil {
		rec = obs.NewRecorder(obs.NewRegistry(), nil)
	}
	rec.SeedTraceIDs(seed)
	return rec, finish
}

// finishDrill ends a selftest: telemetry is flushed whatever the verdict,
// and the process exits non-zero on a failed verdict or a failed flush.
func finishDrill(verdict error, finish func() error) {
	if err := finish(); err != nil {
		if verdict == nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "knowtrans: observability shutdown: %v\n", err)
	}
	if verdict != nil {
		fatal(verdict)
	}
}

// referenceLoad builds n load items spread evenly over keys, each carrying
// the answer the direct path gives: ref is an independent zoo at the
// service's seed, so Want is Transfer + Predict with no serving code in
// between. The items are shuffled so cold starts race each other and hot
// batches interleave across adapters — the shape multi-tenant traffic has.
func referenceLoad(ref *eval.Zoo, keys []string, n int, seed int64) ([]serve.LoadItem, error) {
	fmt.Printf("selftest: building %d reference adapters (direct path)...\n", len(keys))
	items := make([]serve.LoadItem, 0, n)
	perKey := (n + len(keys) - 1) / len(keys)
	for _, key := range keys {
		ad, err := ref.TransferDataset(context.Background(), key, eval.Size7B)
		if err != nil {
			return nil, fmt.Errorf("selftest: reference transfer %s: %w", key, err)
		}
		b, _ := ref.FindDownstream(key)
		for i := 0; i < perKey && len(items) < n; i++ {
			in := b.DS.Test[i%len(b.DS.Test)]
			items = append(items, serve.LoadItem{
				Key:  key,
				In:   serve.WireFrom(in),
				Want: ad.Predict(context.Background(), in),
			})
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(items), func(i, j int) { items[i], items[j] = items[j], items[i] })
	return items, nil
}

// loadVerdict is the fatal reading of a drill's load reports. A divergent
// answer, a non-2xx body that is not the error envelope, and a lost
// traceparent echo are fatal at any fault rate: the fault chain is seeded,
// so even a chaos run must match its reference, and an injected fault may
// cost availability but never the API's shape. Plain non-2xx responses are
// fatal unless the caller armed faults that make them legitimate.
func loadVerdict(tier string, non2xxOK bool, reps ...*serve.LoadReport) error {
	var sum serve.LoadReport
	for _, r := range reps {
		sum.Mismatches += r.Mismatches
		sum.EnvelopeMisses += r.EnvelopeMisses
		sum.Non2xx += r.Non2xx
		sum.TraceEchoMisses += r.TraceEchoMisses
		if sum.FirstError == "" {
			sum.FirstError = r.FirstError
		}
	}
	switch {
	case sum.Mismatches > 0:
		return fmt.Errorf("%s: %d answers diverged from the direct path (first: %s)",
			tier, sum.Mismatches, sum.FirstError)
	case sum.EnvelopeMisses > 0:
		return fmt.Errorf("%s: %d non-2xx bodies were not the error envelope (first: %s)",
			tier, sum.EnvelopeMisses, sum.FirstError)
	case sum.Non2xx > 0 && !non2xxOK:
		return fmt.Errorf("%s: %d non-2xx responses (first: %s)", tier, sum.Non2xx, sum.FirstError)
	case sum.TraceEchoMisses > 0:
		return fmt.Errorf("%s: %d responses did not echo the client's traceparent (first: %s)",
			tier, sum.TraceEchoMisses, sum.FirstError)
	}
	return nil
}

// listen serves h on an ephemeral loopback port until stop is called.
func listen(h http.Handler) (url string, stop func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: h}
	served := make(chan struct{})
	go func() {
		defer close(served)
		hs.Serve(ln) //nolint:errcheck // always ErrServerClosed: stop is the only exit
	}()
	return "http://" + ln.Addr().String(), func() { hs.Close(); <-served }, nil
}

// selfExe is the path of the running binary, for re-executing it.
func selfExe() string {
	exe, err := os.Executable()
	if err != nil {
		return os.Args[0]
	}
	return exe
}

// sigkilled reports whether a child's Wait error says SIGKILL ended it —
// the only ending that proves a crash: no deferred cleanup ran, no file was
// closed on the way out.
func sigkilled(waitErr error) bool {
	var ee *exec.ExitError
	if !errors.As(waitErr, &ee) {
		return false
	}
	ws, ok := ee.Sys().(syscall.WaitStatus)
	return ok && ws.Signaled() && ws.Signal() == syscall.SIGKILL
}

// backend is one spawned `knowtrans serve` subprocess. Exactly one
// goroutine, started at spawn, calls cmd.Wait; everyone else learns the
// outcome by waiting on done and then reading err.
type backend struct {
	url    string
	cmd    *exec.Cmd
	done   chan struct{} // closed by the waiter once the process is reaped
	err    error         // cmd.Wait's result; read only after done is closed
	killed bool          // SIGKILLed on purpose by fleet.kill
}

// banner is a child's stdout: it accumulates output until the serve banner
// is complete, announces the bound URL once, and discards the rest so the
// child never blocks on a full pipe.
type banner struct {
	acc []byte
	url chan string
}

func (w *banner) Write(p []byte) (int, error) {
	if w.url != nil {
		w.acc = append(w.acc, p...)
		if u := parseServeURL(w.acc); u != "" {
			w.url <- u
			w.url, w.acc = nil, nil
		}
	}
	return len(p), nil
}

// spawnBackend execs this binary's own serve subcommand on an ephemeral
// port and parses the announced bound address. Each backend gets the same
// (seed, scale, faults), so the fleet is deterministic: any replica
// answers any key byte-identically — the property that makes hedged and
// failed-over answers indistinguishable from primary ones.
func spawnBackend(scale float64, seed int64, maxAdapters int, faultSpec string) (*backend, error) {
	args := []string{
		"serve", "-addr", "127.0.0.1:0",
		"-scale", fmt.Sprintf("%g", scale),
		"-seed", fmt.Sprintf("%d", seed),
		"-max-adapters", fmt.Sprintf("%d", maxAdapters),
		"-access-log", "",
	}
	if faultSpec != "" {
		args = append(args, "-faults", faultSpec)
	}
	cmd := exec.Command(selfExe(), args...)
	cmd.Stderr = os.Stderr
	urlc := make(chan string, 1)
	cmd.Stdout = &banner{url: urlc}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	b := &backend{cmd: cmd, done: make(chan struct{})}
	go func() {
		b.err = cmd.Wait()
		close(b.done)
	}()
	select {
	case b.url = <-urlc:
		return b, nil
	case <-b.done:
		return nil, fmt.Errorf("selftest: backend exited before announcing its address: %v", b.err)
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		<-b.done
		return nil, fmt.Errorf("selftest: backend did not announce its address within 30s")
	}
}

// parseServeURL extracts the bound base URL from the serve banner
// ("knowtrans serve on http://127.0.0.1:PORT (...)").
func parseServeURL(out []byte) string {
	s := string(out)
	i := strings.Index(s, "serve on http://")
	if i < 0 {
		return ""
	}
	s = s[i+len("serve on "):]
	if j := strings.IndexAny(s, " \n"); j >= 0 {
		s = s[:j]
	} else {
		return "" // line not complete yet
	}
	return s
}

// waitReady polls a backend's /readyz until it answers 200 or the deadline
// passes.
func waitReady(url string, deadline time.Duration) error {
	end := time.Now().Add(deadline)
	for {
		err := serve.Call(context.Background(), http.DefaultClient, http.MethodGet, url+"/readyz", nil, nil, nil)
		if err == nil {
			return nil
		}
		if time.Now().After(end) {
			return fmt.Errorf("selftest: backend %s never became ready: %v", url, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// fleet is the set of backends a drill spawned. close must run before the
// drill returns; it reaps whatever kill and drain left running.
type fleet []*backend

// spawnFleet starts n backends and returns once every one answers /readyz.
// On error nothing is left running.
func spawnFleet(n int, scale float64, seed int64, maxAdapters int, faultSpec string) (fleet, error) {
	fmt.Printf("selftest: spawning %d backends (scale=%.2f seed=%d faults=%q)...\n", n, scale, seed, faultSpec)
	var f fleet
	for i := 0; i < n; i++ {
		b, err := spawnBackend(scale, seed, maxAdapters, faultSpec)
		if err != nil {
			f.close()
			return nil, err
		}
		f = append(f, b)
	}
	for _, b := range f {
		if err := waitReady(b.url, 30*time.Second); err != nil {
			f.close()
			return nil, err
		}
	}
	fmt.Printf("selftest: fleet up: %s\n", strings.Join(f.urls(), " "))
	return f, nil
}

func (f fleet) urls() []string {
	urls := make([]string, len(f))
	for i, b := range f {
		urls[i] = b.url
	}
	return urls
}

// kill SIGKILLs the backend at url — no drain, no goodbye, the way real
// backends die — and returns once it is reaped.
func (f fleet) kill(url string) {
	for _, b := range f {
		if b.url == url {
			b.killed = true
			b.cmd.Process.Kill()
			<-b.done
		}
	}
}

// drain SIGTERMs every backend kill has not taken and requires each to
// exit 0 within deadline: readiness flips, in-flight work finishes, the
// process leaves on its own — the graceful half of membership.
func (f fleet) drain(deadline time.Duration) error {
	for _, b := range f {
		if b.killed {
			continue
		}
		if err := b.cmd.Process.Signal(syscall.SIGTERM); err != nil {
			return fmt.Errorf("selftest: SIGTERM %s: %w", b.url, err)
		}
	}
	timeout := time.After(deadline)
	for _, b := range f {
		if b.killed {
			continue
		}
		select {
		case <-b.done:
			if b.err != nil {
				return fmt.Errorf("selftest: backend %s did not drain clean: %v", b.url, b.err)
			}
		case <-timeout:
			return fmt.Errorf("selftest: backend %s still running %s after SIGTERM", b.url, deadline)
		}
	}
	return nil
}

// close SIGKILLs whatever is still running and reaps it. Signalling an
// already-reaped process is a harmless error, so close is safe after kill,
// after drain, and twice.
func (f fleet) close() {
	for _, b := range f {
		b.cmd.Process.Kill()
	}
	for _, b := range f {
		<-b.done
	}
}
