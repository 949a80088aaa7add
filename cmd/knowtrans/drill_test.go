package main

import (
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/serve"
)

// helperEnv selects the fake backend this test binary plays when the fleet
// helpers re-execute it (os/exec's own helper-process idiom): spawnBackend
// runs os.Executable() with serve's arguments, which under `go test` is this
// binary, and TestMain diverts to the helper before the testing package ever
// parses those arguments.
const helperEnv = "KNOWTRANS_DRILL_HELPER"

func TestMain(m *testing.M) {
	switch mode := os.Getenv(helperEnv); mode {
	case "":
		os.Exit(m.Run())
	case "main":
		main() // the real CLI on this process's arguments (cli_test.go)
	default:
		helperBackend(mode)
	}
}

// helperBackend is a stand-in for `knowtrans serve`: it prints the banner,
// answers /readyz, and reacts to SIGTERM as the mode says.
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
	for range sigc {
		if mode != "ignore-term" {
			os.Exit(0)
		}
	}
}

func spawnHelpers(t *testing.T, mode string, n int) fleet {
	t.Helper()
	t.Setenv(helperEnv, mode)
	f, err := spawnFleet(n, 0.05, 7, 4, "")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.close)
	return f
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

func TestFleetSpawnReadyDrain(t *testing.T) {
	f := spawnHelpers(t, "serve", 2)
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
	t.Setenv(helperEnv, "exit-early")
	f, err := spawnFleet(1, 0.05, 7, 4, "")
	if err == nil {
		f.close()
		t.Fatal("spawnFleet succeeded though the child never announced")
	}
	// The error carries the reaped child's status, so nothing is left running.
	if !strings.Contains(err.Error(), "before announcing") || !strings.Contains(err.Error(), "exit status 3") {
		t.Fatalf("err = %v", err)
	}
}

func TestFleetDrainNamesAStuckBackend(t *testing.T) {
	f := spawnHelpers(t, "ignore-term", 1)
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
	f := spawnHelpers(t, "serve", 2)
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
	clean := &serve.LoadReport{Requests: 8}
	shed := &serve.LoadReport{Requests: 8, Non2xx: 2, ErrorCodes: map[string]int{serve.CodeInternal: 2}, FirstError: "HTTP 500"}
	raw := &serve.LoadReport{Requests: 8, Non2xx: 1, EnvelopeMisses: 1, FirstError: "HTTP 500 (not the error envelope)"}
	wrong := &serve.LoadReport{Requests: 8, Mismatches: 1, FirstError: "served x"}
	deaf := &serve.LoadReport{Requests: 8, TraceEchoMisses: 1, FirstError: "no echo"}
	for _, tc := range []struct {
		name     string
		non2xxOK bool
		reps     []*serve.LoadReport
		want     string // substring of the error, "" for a pass
	}{
		{"clean", false, []*serve.LoadReport{clean, clean}, ""},
		{"enveloped failures, no faults armed", false, []*serve.LoadReport{clean, shed}, "2 non-2xx"},
		{"enveloped failures under faults", true, []*serve.LoadReport{shed}, ""},
		{"raw body under faults", true, []*serve.LoadReport{clean, raw}, "not the error envelope"},
		{"mismatch under faults", true, []*serve.LoadReport{wrong, shed}, "diverged"},
		{"lost echo", true, []*serve.LoadReport{deaf}, "traceparent"},
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
