package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/data"
	"repro/internal/obs"
	"repro/internal/serve"
)

// echoAdapter answers key:id, like serve's test stub — deterministic, so
// any replica gives byte-identical answers.
type echoAdapter struct{ key string }

func (a *echoAdapter) PredictBatch(_ context.Context, ins []*data.Instance) []string {
	out := make([]string, len(ins))
	for i, in := range ins {
		out[i] = a.key + ":" + in.ID
	}
	return out
}

// newBackend spins up a full serve stack (registry + HTTP server) like a
// real `knowtrans serve` process.
func newBackend(t *testing.T) (*httptest.Server, *serve.Registry) {
	t.Helper()
	opts := serve.Options{}
	reg := serve.NewRegistry(func(_ context.Context, key string) (serve.Adapter, error) {
		return &echoAdapter{key: key}, nil
	}, opts)
	srv := httptest.NewServer(serve.NewServer(reg, opts))
	t.Cleanup(srv.Close)
	return srv, reg
}

func testOptions(backends []string) Options {
	return Options{
		Backends:      backends,
		Replication:   2,
		ProbeInterval: 50 * time.Millisecond,
		HedgeDelay:    -1, // hedging off by default; tests opt in
		Seed:          1,
	}
}

func newTestRouter(t *testing.T, opts Options) *Router {
	t.Helper()
	r, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	return r
}

// keyOwnedBy finds a key whose primary owner is the given backend.
func keyOwnedBy(t *testing.T, r *Router, url string) string {
	t.Helper()
	for i := 0; i < 10000; i++ {
		key := fmt.Sprintf("EM/dataset-%d", i)
		if r.Owners(key)[0] == url {
			return key
		}
	}
	t.Fatalf("no key with primary %s in 10000 tries", url)
	return ""
}

func TestRouterRoutesAndMerges(t *testing.T) {
	var urls []string
	var regs []*serve.Registry
	for i := 0; i < 3; i++ {
		srv, reg := newBackend(t)
		urls = append(urls, srv.URL)
		regs = append(regs, reg)
	}
	r := newTestRouter(t, testOptions(urls))

	keys := []string{"EM/A", "EM/B", "ED/C", "ED/D"}
	for i, key := range keys {
		in := &data.Instance{ID: fmt.Sprint(i), Candidates: []string{"yes", "no"}, Gold: -1}
		ans, _, err := r.Predict(context.Background(), key, in)
		if err != nil {
			t.Fatalf("Predict(%s): %v", key, err)
		}
		if want := key + ":" + fmt.Sprint(i); ans != want {
			t.Fatalf("Predict(%s) = %q, want %q", key, ans, want)
		}
	}
	st := r.Stats()
	if st.Requests != int64(len(keys)) || st.Hedges != 0 || st.Failovers != 0 {
		t.Fatalf("stats = %+v, want %d clean requests", st, len(keys))
	}

	// Warm fans out to every owner, so replicas are hot for failover.
	if _, err := r.Warm(context.Background(), "EM/warmed"); err != nil {
		t.Fatalf("Warm: %v", err)
	}
	residentOn := 0
	for _, reg := range regs {
		for _, ks := range reg.Snapshot() {
			if ks.Key == "EM/warmed" && ks.Resident {
				residentOn++
			}
		}
	}
	if residentOn != 2 {
		t.Fatalf("warmed key resident on %d backends, want Replication=2", residentOn)
	}

	// Snapshot merges per-key stats across the fleet.
	snap := r.Snapshot()
	byKey := map[string]serve.KeyStats{}
	for _, ks := range snap {
		byKey[ks.Key] = ks
	}
	if ks, ok := byKey["EM/warmed"]; !ok || ks.Transfers != 2 {
		t.Fatalf("merged snapshot for warmed key = %+v (present=%v), want 2 transfers", byKey["EM/warmed"], ok)
	}
	if ks, ok := byKey["EM/A"]; !ok || ks.Requests == 0 {
		t.Fatalf("merged snapshot missing request counts: %+v", byKey["EM/A"])
	}
}

func TestRouterValidatesKeys(t *testing.T) {
	srv, _ := newBackend(t)
	r := newTestRouter(t, testOptions([]string{srv.URL}))
	in := &data.Instance{ID: "1", Candidates: []string{"y"}, Gold: -1}
	if _, _, err := r.Predict(context.Background(), "no-slash", in); !errors.Is(err, serve.ErrBadKey) {
		t.Fatalf("Predict(bad key) = %v, want ErrBadKey", err)
	}
	if _, err := r.Warm(context.Background(), ""); !errors.Is(err, serve.ErrBadKey) {
		t.Fatalf("Warm(empty key) = %v, want ErrBadKey", err)
	}
}

// TestRouterRefusesMalformedPredictBodies: a predict body holding a key
// twice, or followed by more bytes, is refused with a 400 by the router's
// own pipeline, so no backend sees a request; the same instance sent well
// formed is answered.
func TestRouterRefusesMalformedPredictBodies(t *testing.T) {
	backend, _ := newBackend(t)
	r := newTestRouter(t, testOptions([]string{backend.URL}))
	front := httptest.NewServer(serve.NewServer(r, serve.Options{}))
	t.Cleanup(front.Close)
	post := func(body string) int {
		t.Helper()
		resp, err := http.Post(front.URL+"/v1/predict", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	const valid = `{"adapter":"EM/A","instance":{"id":"1","target":"a","candidates":["yes","no"]}}`
	for _, body := range []string{
		strings.Replace(valid, `"target":"a"`, `"target":"a","target":"b"`, 1),
		valid + " trailing garbage",
	} {
		if status := post(body); status != http.StatusBadRequest {
			t.Fatalf("router answered %s with %d, want 400", body, status)
		}
	}
	if n := statFor(r.Stats(), backend.URL).Requests; n != 0 {
		t.Fatalf("the backend saw %d requests for refused bodies, want 0", n)
	}
	if status := post(valid); status != http.StatusOK {
		t.Fatalf("router answered the well-formed body with %d, want 200", status)
	}
	if n := statFor(r.Stats(), backend.URL).Requests; n != 1 {
		t.Fatalf("the backend saw %d requests, want 1", n)
	}
}

// TestRouterFailsOverOnDeadBackend: requests whose primary is dead succeed
// on the replica via failover; the probe loop then ejects the corpse and
// later traffic goes straight to the replica.
func TestRouterFailsOverOnDeadBackend(t *testing.T) {
	srvA, _ := newBackend(t)
	srvB, _ := newBackend(t)
	r := newTestRouter(t, testOptions([]string{srvA.URL, srvB.URL}))

	key := keyOwnedBy(t, r, srvA.URL)
	srvA.Close() // SIGKILL stand-in: connections refused from here on

	in := &data.Instance{ID: "1", Candidates: []string{"yes", "no"}, Gold: -1}
	ans, _, err := r.Predict(context.Background(), key, in)
	if err != nil {
		t.Fatalf("Predict over dead primary: %v", err)
	}
	if want := key + ":1"; ans != want {
		t.Fatalf("failover answer = %q, want %q", ans, want)
	}
	if st := r.Stats(); st.Failovers == 0 {
		t.Fatalf("stats = %+v, want a recorded failover", st)
	}

	// The probe loop ejects the dead backend...
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := r.Stats()
		if st.Ejections > 0 && !statFor(st, srvA.URL).Healthy {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("dead backend never ejected: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// ...the router stays ready on the survivor...
	if err := r.Ready(); err != nil {
		t.Fatalf("Ready() = %v with one healthy backend", err)
	}
	// ...and rebalanced traffic reaches the replica first: no new failover.
	before := r.Stats().Failovers
	for i := 2; i < 6; i++ {
		in := &data.Instance{ID: fmt.Sprint(i), Candidates: []string{"yes", "no"}, Gold: -1}
		if _, _, err := r.Predict(context.Background(), key, in); err != nil {
			t.Fatalf("Predict after ejection: %v", err)
		}
	}
	if after := r.Stats().Failovers; after != before {
		t.Fatalf("ejected backend still receives first attempts (%d new failovers)", after-before)
	}
}

func statFor(st RouterStats, url string) BackendStat {
	for _, b := range st.Backends {
		if b.URL == url {
			return b
		}
	}
	return BackendStat{}
}

// TestRouterHedgesSlowBackend: a wedged-but-listening primary is out-raced
// by a hedge to the replica after the fixed delay; the slow attempt is
// cancelled.
func TestRouterHedgesSlowBackend(t *testing.T) {
	var slowCancelled atomic.Bool
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		switch req.URL.Path {
		case "/readyz":
			json.NewEncoder(w).Encode(serve.ReadyResponse{OK: true})
		case "/v1/predict":
			// Drain the body: the server only watches the connection for a
			// client disconnect (cancelling req.Context()) once the request
			// body is consumed — exactly what the real serve handler does by
			// decoding it up front.
			io.Copy(io.Discard, req.Body)
			select {
			case <-req.Context().Done():
				slowCancelled.Store(true)
				return
			case <-time.After(10 * time.Second):
			}
			json.NewEncoder(w).Encode(serve.PredictResponse{Answer: "slow"})
		}
	}))
	t.Cleanup(slow.Close)
	fast, _ := newBackend(t)

	opts := testOptions([]string{slow.URL, fast.URL})
	opts.HedgeDelay = 20 * time.Millisecond
	r := newTestRouter(t, opts)

	key := keyOwnedBy(t, r, slow.URL)
	in := &data.Instance{ID: "9", Candidates: []string{"yes", "no"}, Gold: -1}
	t0 := time.Now()
	ans, _, err := r.Predict(context.Background(), key, in)
	if err != nil {
		t.Fatalf("hedged Predict: %v", err)
	}
	if want := key + ":9"; ans != want {
		t.Fatalf("hedged answer = %q, want %q (from the fast replica)", ans, want)
	}
	if elapsed := time.Since(t0); elapsed > 5*time.Second {
		t.Fatalf("hedged request took %v — waited out the wedged primary", elapsed)
	}
	if st := r.Stats(); st.Hedges == 0 {
		t.Fatalf("stats = %+v, want a recorded hedge", st)
	}
	// The losing attempt gets cancelled, not abandoned.
	deadline := time.Now().Add(5 * time.Second)
	for !slowCancelled.Load() {
		if time.Now().After(deadline) {
			t.Fatal("slow attempt never saw cancellation")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestHedgeDelayFollowsObservedP95: with no fixed delay a backup waits
// hedgeMax until the window holds 2×latRefreshEvery latencies, then the
// window's p95, clamped to [hedgeMin, hedgeMax].
func TestHedgeDelayFollowsObservedP95(t *testing.T) {
	for _, c := range []struct {
		us   float64
		want time.Duration
	}{{5000, 5 * time.Millisecond}, {100, hedgeMin}, {5e6, hedgeMax}} {
		var r Router
		for i := 0; i < 2*latRefreshEvery; i++ {
			if d := r.hedgeDelay(); d != hedgeMax {
				t.Fatalf("after %d latencies the delay is %v, want hedgeMax while warming up", i, d)
			}
			r.lat.add(c.us)
		}
		if d := r.hedgeDelay(); d != c.want {
			t.Errorf("latencies of %gµs: delay %v, want %v", c.us, d, c.want)
		}
	}
}

// TestRouterTerminalErrorsDoNotFailOver: a 404 means the key is unknown
// fleet-wide; retrying it on a replica would just double the damage of a
// bad client loop.
func TestRouterTerminalErrorsDoNotFailOver(t *testing.T) {
	var hits atomic.Int64
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		switch req.URL.Path {
		case "/readyz":
			json.NewEncoder(w).Encode(serve.ReadyResponse{OK: true})
		case "/v1/predict":
			hits.Add(1)
			w.WriteHeader(http.StatusNotFound)
			json.NewEncoder(w).Encode(map[string]string{"error": "unknown adapter key"})
		}
	}))
	t.Cleanup(backend.Close)
	other, _ := newBackend(t)

	r := newTestRouter(t, testOptions([]string{backend.URL, other.URL}))
	key := keyOwnedBy(t, r, backend.URL)
	in := &data.Instance{ID: "1", Candidates: []string{"y"}, Gold: -1}
	_, _, err := r.Predict(context.Background(), key, in)
	if !errors.Is(err, serve.ErrUnknownKey) {
		t.Fatalf("Predict = %v, want ErrUnknownKey", err)
	}
	if got := hits.Load(); got != 1 {
		t.Fatalf("404 hit the backend %d times, want exactly 1 (no failover)", got)
	}
	if st := r.Stats(); st.Failovers != 0 {
		t.Fatalf("stats = %+v, want no failover on terminal error", st)
	}
}

// TestRouterReadyRequiresABackend: with the whole fleet dead the router
// reports unready (its own /readyz turns 503) instead of accepting
// requests it cannot serve.
func TestRouterReadyRequiresABackend(t *testing.T) {
	srv, _ := newBackend(t)
	opts := testOptions([]string{srv.URL})
	opts.ProbeInterval = 20 * time.Millisecond
	r := newTestRouter(t, opts)
	srv.Close()
	deadline := time.Now().Add(10 * time.Second)
	for r.Ready() == nil {
		if time.Now().After(deadline) {
			t.Fatal("router still ready with every backend dead")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st := r.Stats(); st.Ejections == 0 {
		t.Fatalf("stats = %+v, want an ejection", st)
	}
}

// TestRouterDrainEjectsViaReadyz: a draining backend (healthy process,
// /readyz 503) leaves the rotation — the graceful-restart path.
func TestRouterDrainEjectsViaReadyz(t *testing.T) {
	reg := serve.NewRegistry(func(_ context.Context, key string) (serve.Adapter, error) {
		return &echoAdapter{key: key}, nil
	}, serve.Options{})
	s := serve.NewServer(reg, serve.Options{})
	draining := httptest.NewServer(s)
	t.Cleanup(draining.Close)
	other, _ := newBackend(t)

	opts := testOptions([]string{draining.URL, other.URL})
	opts.ProbeInterval = 20 * time.Millisecond
	metrics := obs.NewRegistry()
	opts.Rec = obs.NewRecorder(metrics, nil)
	r := newTestRouter(t, opts)
	if g := metrics.Snapshot().Gauges; g["cluster.backends_healthy"] != 2 || g["cluster.backend_healthy/"+draining.URL] != 1 {
		t.Fatalf("a new router's health gauges = %v, want both backends healthy", g)
	}

	s.StartDrain()
	deadline := time.Now().Add(10 * time.Second)
	for statFor(r.Stats(), draining.URL).Healthy {
		if time.Now().After(deadline) {
			t.Fatal("draining backend never left the rotation")
		}
		time.Sleep(10 * time.Millisecond)
	}
	// What an operator alerts on says the same as Stats. The ejecting probe
	// publishes cluster.backends_healthy last, after Healthy flips.
	for metrics.Snapshot().Gauges["cluster.backends_healthy"] != 1 {
		if time.Now().After(deadline) {
			t.Fatal("cluster.backends_healthy never dropped to 1")
		}
		time.Sleep(time.Millisecond)
	}
	snap := metrics.Snapshot()
	if snap.Counters["cluster.ejections"] != 1 || snap.Gauges["cluster.backend_healthy/"+draining.URL] != 0 ||
		snap.Gauges["cluster.backend_healthy/"+other.URL] != 1 {
		t.Fatalf("after the ejection: counters %v gauges %v; want cluster.ejections 1 and only the drained backend unhealthy",
			snap.Counters, snap.Gauges)
	}
	// Its keys are served by the survivor without failover noise.
	key := keyOwnedBy(t, r, draining.URL)
	before := r.Stats().Failovers
	in := &data.Instance{ID: "1", Candidates: []string{"y", "n"}, Gold: -1}
	if _, _, err := r.Predict(context.Background(), key, in); err != nil {
		t.Fatalf("Predict during drain: %v", err)
	}
	if after := r.Stats().Failovers; after != before {
		t.Fatalf("drained backend still fielding first attempts (%d new failovers)", after-before)
	}
}

// residentCount counts the backends on which key is resident right now.
func residentCount(regs []*serve.Registry, key string) int {
	n := 0
	for _, reg := range regs {
		for _, ks := range reg.Snapshot() {
			if ks.Key == key && ks.Resident {
				n++
			}
		}
	}
	return n
}

// TestWarmReplicasBudget is the regression test for the unbounded-warm fix:
// Warm must fan to exactly warmReplicas owners, not all of them, and to
// every owner when there are fewer.
func TestWarmReplicasBudget(t *testing.T) {
	var urls []string
	var regs []*serve.Registry
	for i := 0; i < 4; i++ {
		srv, reg := newBackend(t)
		urls = append(urls, srv.URL)
		regs = append(regs, reg)
	}

	cases := []struct {
		name        string
		replication int
		want        int
	}{
		{"budget below replication", 3, warmReplicas},
		{"default budget", 0, warmReplicas}, // WithDefaults: replication 2, both owners
		{"budget above replication clamps", 1, 1},
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := testOptions(urls)
			opts.Replication = tc.replication
			r := newTestRouter(t, opts)
			key := fmt.Sprintf("EM/warm-budget-%d", i)
			if _, err := r.Warm(context.Background(), key); err != nil {
				t.Fatalf("Warm: %v", err)
			}
			if got := residentCount(regs, key); got != tc.want {
				t.Fatalf("key resident on %d backends, want %d (warmReplicas=%d, Replication=%d)",
					got, tc.want, warmReplicas, tc.replication)
			}
		})
	}
}

// TestRouterEvictFansToOwners: eviction through the router drops the key on
// every owner (no budget — stale replicas must not survive), and an unknown
// key is ErrUnknownKey.
func TestRouterEvictFansToOwners(t *testing.T) {
	var urls []string
	var regs []*serve.Registry
	for i := 0; i < 3; i++ {
		srv, reg := newBackend(t)
		urls = append(urls, srv.URL)
		regs = append(regs, reg)
	}
	opts := testOptions(urls)
	opts.Replication = 3
	r := newTestRouter(t, opts)

	// Every owner holds the key, the third one past Warm's budget.
	const key = "EM/evict-me"
	for _, reg := range regs {
		if _, err := reg.Warm(context.Background(), key); err != nil {
			t.Fatal(err)
		}
	}
	if got := residentCount(regs, key); got != 3 {
		t.Fatalf("warm landed on %d backends, want 3", got)
	}
	evicted, err := r.Evict(context.Background(), key)
	if err != nil || !evicted {
		t.Fatalf("Evict = %v, %v; want true, nil", evicted, err)
	}
	if got := residentCount(regs, key); got != 0 {
		t.Fatalf("key still resident on %d backends after evict", got)
	}
	// Known-but-not-resident: second evict succeeds with evicted=false.
	evicted, err = r.Evict(context.Background(), key)
	if err != nil || evicted {
		t.Fatalf("re-Evict = %v, %v; want false, nil", evicted, err)
	}
	if _, err := r.Evict(context.Background(), "EM/never-seen"); !errors.Is(err, serve.ErrUnknownKey) {
		t.Fatalf("Evict(unknown) = %v, want ErrUnknownKey", err)
	}
}
