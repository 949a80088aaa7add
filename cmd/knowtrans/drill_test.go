package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/eval"
	"repro/internal/loadgen"
	"repro/internal/obs"
	"repro/internal/serve"
)

// The harness under the drills (drill_scenarios_test.go) and its own tier-1
// tests. A drill is the real binary driven from outside: this test binary
// re-executed as `knowtrans` (TestMain's "main" mode), loaded over HTTP, and
// judged by what it answers, what it exits with and what it leaves on disk.
// The drills are pass/fail — a served, routed or resumed answer is
// byte-identical to a direct Transfer + Predict at the same seed — and this
// file holds the one copy of everything around that claim: the spawned
// fleet, the same-seed reference load, and the verdicts over a load report.
// Latency, throughput and allocation cost are measured by benchmark/
// (BENCHMARK.json), not here.

// helperEnv selects what this test binary plays when it is re-executed
// (os/exec's own helper-process idiom): TestMain diverts before the testing
// package ever parses the child's arguments.
const helperEnv = "KNOWTRANS_DRILL_HELPER"

// Every drill runs at one seed and one scale, the fast-but-meaningful floor.
const (
	drillSeed  = 7
	drillScale = 0.05
)

// drainDeadline is how long a SIGTERMed backend gets to exit 0.
const drainDeadline = 15 * time.Second

func TestMain(m *testing.M) {
	switch mode := os.Getenv(helperEnv); mode {
	case "":
		os.Exit(m.Run())
	case "main":
		main() // the real CLI on this process's arguments
	case "job-crash":
		helperJobCrash()
	case "exit-early", "ignore-term":
		helperBackend(mode)
	default:
		fmt.Fprintf(os.Stderr, "unknown %s=%q\n", helperEnv, mode)
		os.Exit(2)
	}
}

// helperBackend is a backend that misbehaves on demand, which the real
// binary cannot: "exit-early" dies before its banner, "ignore-term" prints
// the banner, answers /readyz and never leaves on SIGTERM.
func helperBackend(mode string) {
	if mode == "exit-early" {
		fmt.Println("some startup noise, no banner")
		os.Exit(3)
	}
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	go http.Serve(ln, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { //nolint:errcheck
		if r.URL.Path != "/readyz" {
			http.NotFound(w, r)
		}
	}))
	fmt.Printf("knowtrans serve on http://%s (helper %s)\n", ln.Addr(), mode)
	for range sigc { // ignore-term: stay up until SIGKILLed
	}
}

// child is this test binary re-executed in one of TestMain's helper modes;
// "main" makes it the real knowtrans CLI on args.
func child(mode string, args ...string) *exec.Cmd {
	exe, err := os.Executable()
	if err != nil {
		exe = os.Args[0]
	}
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), helperEnv+"="+mode)
	return cmd
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

// backend is one spawned `knowtrans serve` (or `route`) subprocess. Exactly
// one goroutine, started at spawn, calls cmd.Wait; everyone else learns the
// outcome by waiting on done and then reading err.
type backend struct {
	url    string
	banner string // its stdout up to and including the announced URL
	cmd    *exec.Cmd
	done   chan struct{} // closed by the waiter once the process is reaped
	err    error         // cmd.Wait's result; read only after done is closed
	killed bool          // SIGKILLed on purpose by fleet.kill
}

// banner is a child's stdout: it accumulates output until the banner of its
// subcommand is complete, announces what it read once, and discards the rest
// so the child never blocks on a full pipe.
type banner struct {
	subcommand string
	acc        []byte
	read       chan string
}

func (w *banner) Write(p []byte) (int, error) {
	if w.read != nil {
		w.acc = append(w.acc, p...)
		if bannerURL(w.acc, w.subcommand) != "" {
			w.read <- string(w.acc)
			w.read, w.acc = nil, nil
		}
	}
	return len(p), nil
}

// spawnBackend re-executes this binary in the given helper mode as `serve`
// on an ephemeral port. Every backend gets the same seed and scale (and the
// caller's extra flags), so a fleet is deterministic: any replica answers
// any key byte-identically — the property that makes hedged and failed-over
// answers indistinguishable from primary ones.
func spawnBackend(mode string, extra ...string) (*backend, error) {
	return spawn(mode, os.Stderr, append([]string{
		"serve", "-addr", "127.0.0.1:0",
		"-scale", fmt.Sprint(drillScale),
		"-seed", fmt.Sprint(drillSeed),
		"-access-log", "",
	}, extra...)...)
}

// spawn starts one service child — args[0] is its subcommand, serve or
// route — and parses the bound address it announces.
func spawn(mode string, stderr io.Writer, args ...string) (*backend, error) {
	cmd := child(mode, args...)
	cmd.Stderr = stderr
	read := make(chan string, 1)
	cmd.Stdout = &banner{subcommand: args[0], read: read}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	b := &backend{cmd: cmd, done: make(chan struct{})}
	go func() {
		b.err = cmd.Wait()
		close(b.done)
	}()
	select {
	case b.banner = <-read:
		b.url = bannerURL([]byte(b.banner), args[0])
		return b, nil
	case <-b.done:
		return nil, fmt.Errorf("backend exited before announcing its address: %v", b.err)
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		<-b.done
		return nil, fmt.Errorf("backend did not announce its address within 30s")
	}
}

// parseServeURL extracts the bound base URL from the serve banner
// ("knowtrans serve on http://127.0.0.1:PORT (...)").
func parseServeURL(out []byte) string { return bannerURL(out, "serve") }

// bannerURL is parseServeURL for either service's banner.
func bannerURL(out []byte, subcommand string) string {
	s := string(out)
	marker := subcommand + " on "
	i := strings.Index(s, marker+"http://")
	if i < 0 {
		return ""
	}
	s = s[i+len(marker):]
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
			return fmt.Errorf("backend %s never became ready: %v", url, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// fleet is the set of backends a test spawned; spawnFleet registers its
// close with the test.
type fleet []*backend

// spawnFleet starts n backends in the given helper mode ("main" is the real
// binary) and returns once every one answers /readyz. Whatever it started,
// on error too, is reaped by t.Cleanup if kill and drain have not already.
func spawnFleet(t *testing.T, mode string, n int, extra ...string) (fleet, error) {
	t.Helper()
	var f fleet
	t.Cleanup(func() { f.close() })
	for i := 0; i < n; i++ {
		b, err := spawnBackend(mode, extra...)
		if err != nil {
			return nil, err
		}
		f = append(f, b)
	}
	for _, b := range f {
		if err := waitReady(b.url, 30*time.Second); err != nil {
			return nil, err
		}
	}
	t.Logf("fleet up (%s %s): %s", mode, strings.Join(extra, " "), strings.Join(f.urls(), " "))
	return f, nil
}

// mustSpawn is spawnFleet for callers with nothing to learn from a failure.
func mustSpawn(t *testing.T, mode string, n int, extra ...string) fleet {
	t.Helper()
	f, err := spawnFleet(t, mode, n, extra...)
	if err != nil {
		t.Fatal(err)
	}
	return f
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
// exit 0 within deadline: readiness flips, in-flight work finishes,
// telemetry is flushed, the process leaves on its own — the graceful half
// of membership, and the path that writes the files a drill then inspects.
func (f fleet) drain(deadline time.Duration) error {
	for _, b := range f {
		if b.killed {
			continue
		}
		if err := b.cmd.Process.Signal(syscall.SIGTERM); err != nil {
			return fmt.Errorf("SIGTERM %s: %w", b.url, err)
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
				return fmt.Errorf("backend %s did not drain clean: %v", b.url, b.err)
			}
		case <-timeout:
			return fmt.Errorf("backend %s still running %s after SIGTERM", b.url, deadline)
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

// referenceLoad builds n load items spread evenly over keys, each carrying
// the answer the direct path gives: ref is an independent zoo at the
// service's seed, so Want is Transfer + Predict with no serving code in
// between. The items are shuffled so cold starts race each other and hot
// batches interleave across adapters — the shape multi-tenant traffic has.
func referenceLoad(ref *eval.Zoo, keys []string, n int, seed int64) ([]loadgen.Item, error) {
	items := make([]loadgen.Item, 0, n)
	perKey := (n + len(keys) - 1) / len(keys)
	for _, key := range keys {
		ad, err := ref.TransferDataset(context.Background(), key, eval.Size7B)
		if err != nil {
			return nil, fmt.Errorf("reference transfer %s: %w", key, err)
		}
		b, _ := ref.FindDownstream(key)
		for i := 0; i < perKey && len(items) < n; i++ {
			in := b.DS.Test[i%len(b.DS.Test)]
			items = append(items, loadgen.Item{
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
func loadVerdict(tier string, non2xxOK bool, reps ...*loadgen.Report) error {
	var sum loadgen.Report
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

// probeErrorEnvelope asserts one backend answers an unknown-dataset
// predict with the canonical error envelope.
func probeErrorEnvelope(url string) error {
	req := serve.PredictRequest{Adapter: "EM/NoSuchDataset", Instance: serve.WireInstance{ID: "p", Candidates: []string{"a", "b"}}}
	err := serve.Call(context.Background(), http.DefaultClient, http.MethodPost, url+"/v1/predict", nil, req, nil)
	var we *serve.WireError
	if !errors.As(err, &we) || we.Status != http.StatusNotFound {
		return fmt.Errorf("envelope probe: got %v, want a 404", err)
	}
	if we.Code != serve.CodeNotFound || !errors.Is(err, serve.ErrUnknownKey) {
		return fmt.Errorf("envelope probe: body is not the canonical envelope: %v", err)
	}
	return nil
}

// exited reports whether the backend's waiter has reaped it.
func exited(b *backend) bool {
	select {
	case <-b.done:
		return true
	default:
		return false
	}
}

// TestServeChildEnvelopeDrainMetrics is the tier-1 reading of the real
// binary as a process: it comes up, answers /readyz (spawnFleet), refuses an
// unknown key with the canonical envelope, leaves with 0 on SIGTERM, and
// what it flushed on the way out parses. No zoo is built — the zoo is lazy
// and an unknown key never reaches it — so this costs well under a second.
func TestServeChildEnvelopeDrainMetrics(t *testing.T) {
	metrics := filepath.Join(t.TempDir(), "metrics.json")
	f := mustSpawn(t, "main", 1, "-metrics", metrics)
	if err := probeErrorEnvelope(f[0].url); err != nil {
		t.Fatal(err)
	}
	if err := f.drain(drainDeadline); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatalf("the drained child left no metrics file: %v", err)
	}
	var snap obs.RegistrySnapshot
	if err := json.Unmarshal(blob, &snap); err != nil {
		t.Fatalf("metrics file does not parse: %v\n%s", err, blob)
	}
	if snap.Counters["serve.requests"] < 1 {
		t.Fatalf("metrics file counts no request though one was answered: %s", blob)
	}
}

// TestRouteChild is the tier-1 reading of a real `knowtrans route` process
// (TestDrillRoute builds its routers in process): over one backend URL
// nothing listens on, it announces the replication it clamped to the fleet,
// describes a router on /healthz (no registry field), turns unready once the
// probe loop ejects the backend, envelopes an unknown path, writes one
// access-log line per request — at the parent `route` logged nothing — and
// leaves with 0 on SIGTERM. No zoo anywhere; well under a second.
func TestRouteChild(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := "http://" + ln.Addr().String()
	ln.Close()

	var stderr bytes.Buffer // read only after the child is reaped
	b, err := spawn("main", &stderr, "route", "-addr", "127.0.0.1:0", "-backends", dead, "-probe-interval", "10ms")
	if err != nil {
		t.Fatal(err)
	}
	f := fleet{b}
	t.Cleanup(f.close)
	if !strings.Contains(b.banner, "1 backends, replication=1,") {
		t.Errorf("banner %q does not print the replication clamped to one backend", b.banner)
	}

	sent := 0
	get := func(method, path string) (*http.Response, []byte) {
		t.Helper()
		req, err := http.NewRequest(method, b.url+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		sent++
		blob, _ := io.ReadAll(resp.Body)
		return resp, blob
	}

	resp, blob := get(http.MethodGet, "/healthz")
	var health map[string]any
	if err := json.Unmarshal(blob, &health); err != nil || resp.StatusCode != http.StatusOK || health["ok"] != true {
		t.Fatalf("/healthz: %d %s (%v)", resp.StatusCode, blob, err)
	}
	for _, field := range []string{"max_batch", "max_adapters", "sampler"} {
		if _, ok := health[field]; ok {
			t.Errorf("a router's /healthz carries %s: %s", field, blob)
		}
	}

	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		resp, blob = get(http.MethodGet, "/readyz")
		if resp.StatusCode == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("/readyz still %d %s: the dead backend was never ejected", resp.StatusCode, blob)
		}
	}
	if resp.Header.Get("Retry-After") == "" || !strings.Contains(string(blob), "no healthy backends") {
		t.Errorf("unready /readyz: Retry-After %q, body %s", resp.Header.Get("Retry-After"), blob)
	}

	for _, tc := range []struct {
		method, path string
		want         int
	}{
		{http.MethodGet, "/v1/nope", http.StatusNotFound},
		{http.MethodGet, "/v1/jobs", http.StatusNotFound}, // not mounted without -jobs-dir
		{http.MethodPut, "/v1/adapters", http.StatusMethodNotAllowed},
	} {
		resp, blob := get(tc.method, tc.path)
		eb, ok := serve.ParseErrorEnvelope(blob)
		if resp.StatusCode != tc.want || !ok || eb.Code != serve.ErrorCode(tc.want) || resp.Header.Get("Content-Type") != "application/json" {
			t.Errorf("%s %s: %d %q %s, want an enveloped %d", tc.method, tc.path,
				resp.StatusCode, resp.Header.Get("Content-Type"), blob, tc.want)
		}
	}

	if err := f.drain(drainDeadline); err != nil {
		t.Fatal(err)
	}
	logged := 0
	for _, line := range strings.Split(strings.TrimSpace(stderr.String()), "\n") {
		var rec struct {
			Msg, Route string
			Status     int
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil || rec.Msg != "request" || rec.Route == "" || rec.Status == 0 {
			t.Errorf("stderr line %q is not an access-log record (%v)", line, err)
		}
		logged++
	}
	if logged != sent {
		t.Errorf("%d access-log lines for %d requests:\n%s", logged, sent, stderr.String())
	}
}

func TestFleetSpawnReadyDrain(t *testing.T) {
	f := mustSpawn(t, "main", 2)
	urls := f.urls()
	if len(urls) != 2 || urls[0] == urls[1] || !strings.HasPrefix(urls[0], "http://127.0.0.1:") {
		t.Fatalf("urls = %v", urls)
	}
	if err := f.drain(10 * time.Second); err != nil {
		t.Fatalf("drain: %v", err)
	}
	for _, b := range f {
		if !exited(b) || b.err != nil {
			t.Errorf("backend %s after a clean drain: exited=%v err=%v", b.url, exited(b), b.err)
		}
	}
	f.close() // after drain, and again from Cleanup: both must be harmless
}

func TestFleetSpawnFailsWhenChildExitsEarly(t *testing.T) {
	_, err := spawnFleet(t, "exit-early", 1)
	if err == nil {
		t.Fatal("spawnFleet succeeded though the child never announced")
	}
	// The error carries the reaped child's status, so nothing is left running.
	if !strings.Contains(err.Error(), "before announcing") || !strings.Contains(err.Error(), "exit status 3") {
		t.Fatalf("err = %v", err)
	}
}

func TestFleetDrainNamesAStuckBackend(t *testing.T) {
	f := mustSpawn(t, "ignore-term", 1)
	start := time.Now()
	err := f.drain(200 * time.Millisecond)
	if err == nil || !strings.Contains(err.Error(), f[0].url) || !strings.Contains(err.Error(), "still running") {
		t.Fatalf("drain err = %v, want one naming %s", err, f[0].url)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("drain took %s against a 200ms deadline", d)
	}
	f.close()
	if !exited(f[0]) || !sigkilled(f[0].err) {
		t.Fatalf("close did not reap the stuck backend: exited=%v err=%v", exited(f[0]), f[0].err)
	}
}

func TestFleetKill(t *testing.T) {
	f := mustSpawn(t, "main", 2)
	f.kill(f[0].url)
	if !exited(f[0]) || !sigkilled(f[0].err) {
		t.Fatalf("killed backend: exited=%v err=%v, want a SIGKILL death", exited(f[0]), f[0].err)
	}
	if exited(f[1]) {
		t.Fatalf("kill took the wrong backend too: %v", f[1].err)
	}
	if sigkilled(nil) || sigkilled(fmt.Errorf("not an exit error")) {
		t.Fatal("sigkilled accepted a clean exit or a foreign error")
	}
	// drain skips the corpse and still requires the survivor to leave clean.
	if err := f.drain(10 * time.Second); err != nil {
		t.Fatalf("drain after kill: %v", err)
	}
}

func TestParseServeURL(t *testing.T) {
	for _, tc := range []struct{ name, out, want string }{
		{"complete banner", "knowtrans serve on http://127.0.0.1:4242 (scale=0.05)\n", "http://127.0.0.1:4242"},
		{"split mid-URL", "knowtrans serve on http://127.0.0", ""},
		{"URL complete, no delimiter yet", "knowtrans serve on http://127.0.0.1:4242", ""},
		{"after other stdout noise", "warming caches\nknowtrans serve on http://127.0.0.1:9 (x)\nendpoints: ...\n", "http://127.0.0.1:9"},
		{"newline straight after the URL", "knowtrans serve on http://[::1]:80\n", "http://[::1]:80"},
		{"no banner", "knowtrans route on http://127.0.0.1:1 (3 backends)\n", ""},
		{"empty", "", ""},
	} {
		if got := parseServeURL([]byte(tc.out)); got != tc.want {
			t.Errorf("%s: parseServeURL(%q) = %q, want %q", tc.name, tc.out, got, tc.want)
		}
	}
}

func TestLoadVerdict(t *testing.T) {
	clean := &loadgen.Report{Requests: 8}
	shed := &loadgen.Report{Requests: 8, Non2xx: 2, ErrorCodes: map[string]int{serve.CodeInternal: 2}, FirstError: "HTTP 500"}
	raw := &loadgen.Report{Requests: 8, Non2xx: 1, EnvelopeMisses: 1, FirstError: "HTTP 500 (not the error envelope)"}
	wrong := &loadgen.Report{Requests: 8, Mismatches: 1, FirstError: "served x"}
	deaf := &loadgen.Report{Requests: 8, TraceEchoMisses: 1, FirstError: "no echo"}
	for _, tc := range []struct {
		name     string
		non2xxOK bool
		reps     []*loadgen.Report
		want     string // substring of the error, "" for a pass
	}{
		{"clean", false, []*loadgen.Report{clean, clean}, ""},
		{"enveloped failures, no faults armed", false, []*loadgen.Report{clean, shed}, "2 non-2xx"},
		{"enveloped failures under faults", true, []*loadgen.Report{shed}, ""},
		{"raw body under faults", true, []*loadgen.Report{clean, raw}, "not the error envelope"},
		{"mismatch under faults", true, []*loadgen.Report{wrong, shed}, "diverged"},
		{"lost echo", true, []*loadgen.Report{deaf}, "traceparent"},
	} {
		err := loadVerdict("drill", tc.non2xxOK, tc.reps...)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: unexpected verdict %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: verdict %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}
