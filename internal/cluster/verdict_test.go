package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/data"
	"repro/internal/obs"
	"repro/internal/resilience"
	"repro/internal/serve"
)

// script is what the scripted backend does with the next non-probe request.
type script struct {
	status int
	body   string
	drop   bool // hang up without answering (transport error)
	hang   bool // hold the request until the client goes away
}

// scripted is a fake backend: /readyz is always green (and counted), every
// other path does what the current script says. arrived signals each
// request that reached a hang.
type scripted struct {
	url     string
	cur     atomic.Pointer[script]
	probes  atomic.Int64
	arrived chan struct{}
}

func (b *scripted) set(s script) { b.cur.Store(&s) }

func scriptedBackend(t *testing.T) *scripted {
	t.Helper()
	b := &scripted{arrived: make(chan struct{}, 1)}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path == "/readyz" {
			b.probes.Add(1)
			json.NewEncoder(w).Encode(serve.ReadyResponse{OK: true})
			return
		}
		io.Copy(io.Discard, req.Body)
		s := b.cur.Load()
		switch {
		case s.drop:
			conn, _, err := w.(http.Hijacker).Hijack()
			if err == nil {
				conn.Close()
			}
		case s.hang:
			b.arrived <- struct{}{}
			<-req.Context().Done()
		default:
			w.WriteHeader(s.status)
			io.WriteString(w, s.body)
		}
	}))
	t.Cleanup(srv.Close)
	b.url = srv.URL
	return b
}

// envelopeBody is what a conforming backend writes for status.
func envelopeBody(status int) string {
	rec := httptest.NewRecorder()
	serve.WriteErrorStatus(rec, status, "scripted")
	return rec.Body.String()
}

type verdict int

const (
	charged  verdict = iota // breaker.Failure
	cleared                 // breaker.Success
	unjudged                // neither
)

const testKey = "EM/verdict"

// ops are the three kinds of request traffic that share Router.call.
var ops = []struct {
	name string
	do   func(ctx context.Context, r *Router) error
}{
	{"predict", func(ctx context.Context, r *Router) error {
		_, _, err := r.Predict(ctx, testKey, &data.Instance{ID: "1", Candidates: []string{"y", "n"}, Gold: -1})
		return err
	}},
	{"warm", func(ctx context.Context, r *Router) error { _, err := r.Warm(ctx, testKey); return err }},
	{"evict", func(ctx context.Context, r *Router) error { _, err := r.Evict(ctx, testKey); return err }},
}

// TestCallVerdict is the one table of what a backend's answer means, run
// through every kind of request: which sentinel the caller sees, whether
// the error stops failover, and what the breaker is told. The breaker is
// read three ways by priming it one failure short of tripping: a charged
// call trips it, a cleared call leaves it closed even after one more
// failure (the run was reset), an unjudged call lets that failure trip it.
func TestCallVerdict(t *testing.T) {
	const threshold = 5 // resilience's breakerThreshold
	type tc struct {
		name     string
		script   script
		cancel   bool
		sentinel error
		ok       bool
		terminal bool
		want     verdict
	}
	cases := []tc{
		{name: "200 ok", script: script{status: 200, body: `{}`}, ok: true, want: cleared},
		{name: "200 garbage", script: script{status: 200, body: `{"answer":"tru`}, want: charged},
		{name: "transport error", script: script{drop: true}, want: charged},
		{name: "caller cancelled", script: script{hang: true}, cancel: true, sentinel: context.Canceled, want: unjudged},
	}
	for _, st := range []struct {
		status   int
		sentinel error
		terminal bool
		want     verdict
	}{
		{400, serve.ErrBadKey, true, cleared},
		{404, serve.ErrUnknownKey, true, cleared},
		{429, serve.ErrOverloaded, false, charged},
		{499, nil, true, cleared},
		{500, nil, false, charged},
		{503, serve.ErrDraining, false, charged},
		{504, nil, false, charged},
	} {
		for _, body := range []struct{ kind, text string }{
			{"envelope", envelopeBody(st.status)},
			{"non-envelope", "<html>something in between answered</html>"},
		} {
			cases = append(cases, tc{
				name:     fmt.Sprintf("%d %s", st.status, body.kind),
				script:   script{status: st.status, body: body.text},
				sentinel: st.sentinel, terminal: st.terminal, want: st.want,
			})
		}
	}

	for _, op := range ops {
		for _, c := range cases {
			t.Run(op.name+"/"+c.name, func(t *testing.T) {
				b := scriptedBackend(t)
				r := newTestRouter(t, testOptions([]string{b.url}))
				state := func() BackendStat { return r.Stats().Backends[0] }

				b.set(script{status: 500, body: envelopeBody(500)})
				for i := 0; i < threshold-1; i++ {
					op.do(context.Background(), r)
				}
				if s := state(); s.Failures != threshold-1 || s.Breaker != "closed" {
					t.Fatalf("after priming: %+v, want %d failures and a closed breaker", s, threshold-1)
				}

				b.set(c.script)
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				if c.cancel {
					go func() { <-b.arrived; cancel() }()
				}
				err := op.do(ctx, r)
				if (err == nil) != c.ok {
					t.Fatalf("err = %v, want ok=%v", err, c.ok)
				}
				if c.sentinel != nil && !errors.Is(err, c.sentinel) {
					t.Errorf("err = %v, want it to be %v", err, c.sentinel)
				}
				for _, s := range []error{serve.ErrBadKey, serve.ErrUnknownKey, serve.ErrOverloaded, serve.ErrDraining} {
					if s != c.sentinel && errors.Is(err, s) {
						t.Errorf("err = %v is %v, want only %v", err, s, c.sentinel)
					}
				}
				if got := resilience.IsTerminal(err); got != c.terminal {
					t.Errorf("terminal = %v, want %v (err %v)", got, c.terminal, err)
				}

				s := state()
				wantFailures, wantBreaker := int64(threshold-1), "closed"
				if c.want == charged {
					wantFailures, wantBreaker = threshold, "open"
				}
				if s.Failures != wantFailures || s.Breaker != wantBreaker {
					t.Fatalf("after the call: %d failures, breaker %s; want %d, %s", s.Failures, s.Breaker, wantFailures, wantBreaker)
				}
				if c.want == charged {
					return
				}
				// One more failure tells cleared (run reset) from unjudged (run intact).
				b.set(script{status: 500, body: envelopeBody(500)})
				op.do(context.Background(), r)
				wantBreaker = "closed"
				if c.want == unjudged {
					wantBreaker = "open"
				}
				if s := state(); s.Breaker != wantBreaker {
					t.Fatalf("one failure later the breaker is %s, want %s", s.Breaker, wantBreaker)
				}
			})
		}
	}
}

// TestGarbage200TripsBreaker: a backend that answers 200 with a truncated
// body is failing, and consecutive such answers must trip its breaker at
// the threshold of 5. (Before the single verdict each one was a Success
// followed by a failure note, so the run never got past 1.)
func TestGarbage200TripsBreaker(t *testing.T) {
	b := scriptedBackend(t)
	b.set(script{status: 200, body: `{"adapter":"EM/verdict","answ`})
	metrics := obs.NewRegistry()
	opts := testOptions([]string{b.url})
	opts.Rec = obs.NewRecorder(metrics, nil)
	r := newTestRouter(t, opts)
	for i := 1; i <= 5; i++ {
		if err := ops[0].do(context.Background(), r); err == nil {
			t.Fatal("a truncated 200 was accepted as an answer")
		}
		want := "closed"
		if i == 5 {
			want = "open"
		}
		if s := r.Stats().Backends[0]; s.Failures != int64(i) || s.Breaker != want {
			t.Fatalf("after %d garbage answers: %d failures, breaker %s; want %d, %s", i, s.Failures, s.Breaker, i, want)
		}
	}
	snap := metrics.Snapshot()
	if snap.Counters["cluster.breaker_trips"] != 1 || snap.Gauges["cluster.breaker_state/"+b.url] != float64(resilience.StateOpen) {
		t.Fatalf("counters %v gauges %v; want cluster.breaker_trips 1 and the backend's cluster.breaker_state open", snap.Counters, snap.Gauges)
	}
}

// TestProbesLeaveTheBreakerAlone: membership and the breaker are separate
// signals. A backend whose /readyz is green but whose traffic fails keeps
// its failure run between requests however many probes pass in between.
func TestProbesLeaveTheBreakerAlone(t *testing.T) {
	b := scriptedBackend(t)
	b.set(script{status: 500, body: envelopeBody(500)})
	opts := testOptions([]string{b.url})
	opts.ProbeInterval = 2 * time.Millisecond
	r := newTestRouter(t, opts)
	for i := 0; i < 5; i++ {
		ops[0].do(context.Background(), r)
		// Let a few green probes land before the next failure.
		before := b.probes.Load()
		for deadline := time.Now().Add(5 * time.Second); b.probes.Load() < before+3; {
			if time.Now().After(deadline) {
				t.Fatal("probes stopped")
			}
			time.Sleep(time.Millisecond)
		}
	}
	if s := r.Stats().Backends[0]; s.Breaker != "open" || !s.Healthy || s.Requests != 5 {
		t.Fatalf("stats = %+v, want 5 requests and an open breaker on a backend the probes call healthy", s)
	}
}
