package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/data"
	"repro/internal/obs"
)

// envResolver returns a scripted error per key, so the envelope test can
// reach every branch of statusFor without staging real overload/timeouts.
type envResolver struct {
	errs map[string]error
}

func (f *envResolver) Predict(_ context.Context, key string, _ *data.Instance) (string, bool, error) {
	if err, ok := f.errs[key]; ok {
		return "", false, err
	}
	return "ok", false, nil
}

func (f *envResolver) Warm(_ context.Context, key string) (bool, error) {
	if err, ok := f.errs[key]; ok {
		return false, err
	}
	return true, nil
}

func (f *envResolver) Snapshot() []KeyStats {
	return []KeyStats{{Key: "EM/known", Resident: true, Transfers: 1}}
}

func (f *envResolver) Resident() int { return 1 }

func (f *envResolver) Evict(_ context.Context, key string) (bool, error) {
	if key != "EM/known" {
		return false, fmt.Errorf("%w: no adapter state for %q", ErrUnknownKey, key)
	}
	return true, nil
}

// TestErrorEnvelopeEverywhere asserts the contract of the /v1 surface: every
// error path emits the versioned JSON envelope with the code and retryable
// flag implied by its status — no plain-text bodies. The named cases reach
// every branch of statusFor through a scripted resolver; the property after
// them (routeRefusals) walks the route table itself.
func TestErrorEnvelopeEverywhere(t *testing.T) {
	res := &envResolver{errs: map[string]error{
		"EM/unknown":    fmt.Errorf("%w: %q", ErrUnknownKey, "EM/unknown"),
		"EM/overloaded": fmt.Errorf("%w: shedding", ErrOverloaded),
		"EM/timeout":    fmt.Errorf("transfer: %w", context.DeadlineExceeded),
		"EM/canceled":   context.Canceled,
		"EM/boom":       errors.New("backend exploded"),
	}}
	srv := httptest.NewServer(NewServer(res, Options{}))
	defer srv.Close()
	draining := httptest.NewServer(func() *Server {
		s := NewServer(res, Options{})
		s.StartDrain()
		return s
	}())
	defer draining.Close()

	predict := func(key string) string {
		raw, _ := json.Marshal(PredictRequest{Adapter: key, Instance: WireInstance{Candidates: []string{"y", "n"}}})
		return string(raw)
	}
	cases := []struct {
		name   string
		method string
		url    string
		body   string
		want   int
	}{
		{"predict wrong method", http.MethodGet, srv.URL + "/v1/predict", "", http.StatusMethodNotAllowed},
		{"predict malformed body", http.MethodPost, srv.URL + "/v1/predict", "{nope", http.StatusBadRequest},
		{"predict bad key", http.MethodPost, srv.URL + "/v1/predict", predict("no-slash"), http.StatusBadRequest},
		{"predict no candidates", http.MethodPost, srv.URL + "/v1/predict", `{"adapter":"EM/known","instance":{}}`, http.StatusBadRequest},
		{"predict unknown key", http.MethodPost, srv.URL + "/v1/predict", predict("EM/unknown"), http.StatusNotFound},
		{"predict overloaded", http.MethodPost, srv.URL + "/v1/predict", predict("EM/overloaded"), http.StatusTooManyRequests},
		{"predict timeout", http.MethodPost, srv.URL + "/v1/predict", predict("EM/timeout"), http.StatusGatewayTimeout},
		{"predict canceled", http.MethodPost, srv.URL + "/v1/predict", predict("EM/canceled"), 499},
		{"predict backend error", http.MethodPost, srv.URL + "/v1/predict", predict("EM/boom"), http.StatusBadGateway},
		{"predict while draining", http.MethodPost, draining.URL + "/v1/predict", predict("EM/known"), http.StatusServiceUnavailable},
		{"adapters wrong method", http.MethodDelete, srv.URL + "/v1/adapters", "", http.StatusMethodNotAllowed},
		{"warm malformed body", http.MethodPost, srv.URL + "/v1/adapters", "{nope", http.StatusBadRequest},
		{"warm bad key", http.MethodPost, srv.URL + "/v1/adapters", `{"key":"no-slash"}`, http.StatusBadRequest},
		{"warm unknown key", http.MethodPost, srv.URL + "/v1/adapters", `{"key":"EM/unknown"}`, http.StatusNotFound},
		{"warm while draining", http.MethodPost, draining.URL + "/v1/adapters", `{"key":"EM/known"}`, http.StatusServiceUnavailable},
		{"adapter stats bad key", http.MethodGet, srv.URL + "/v1/adapters/no-slash", "", http.StatusBadRequest},
		{"adapter stats unknown", http.MethodGet, srv.URL + "/v1/adapters/EM/unknown", "", http.StatusNotFound},
		{"adapter key wrong method", http.MethodPut, srv.URL + "/v1/adapters/EM/known", "", http.StatusMethodNotAllowed},
		{"evict bad key", http.MethodDelete, srv.URL + "/v1/adapters/no-slash", "", http.StatusBadRequest},
		{"evict unknown", http.MethodDelete, srv.URL + "/v1/adapters/EM/unknown", "", http.StatusNotFound},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var body io.Reader
			if tc.body != "" {
				body = strings.NewReader(tc.body)
			}
			req, err := http.NewRequest(tc.method, tc.url, body)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			payload, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Fatalf("status %d (%s), want %d", resp.StatusCode, payload, tc.want)
			}
			eb, ok := ParseErrorEnvelope(payload)
			if !ok {
				t.Fatalf("body is not the error envelope: %s", payload)
			}
			if eb.Code != ErrorCode(tc.want) || eb.Retryable != ErrorRetryable(tc.want) || eb.Message == "" {
				t.Fatalf("envelope = %+v, want code=%s retryable=%v and a message",
					eb, ErrorCode(tc.want), ErrorRetryable(tc.want))
			}
			if tc.want == http.StatusTooManyRequests || tc.want == http.StatusServiceUnavailable {
				if resp.Header.Get("Retry-After") == "" {
					t.Fatalf("%d without Retry-After", tc.want)
				}
			}
		})
	}
	t.Run("routes", func(t *testing.T) { routeRefusals(t, res) })
}

// TestAdapterKeyRoutes exercises the REST-shaped single-key routes over a
// real registry: stats for one key, explicit eviction (counters survive,
// residency drops), and idempotent re-delete.
func TestAdapterKeyRoutes(t *testing.T) {
	srv, reg := newTestServer(t, newStubTransferer(0), Options{})
	if _, body := postJSON(t, srv.URL+"/v1/adapters", WarmRequest{Key: "EM/A"}); reg.Resident() != 1 {
		t.Fatalf("warm failed: %s", body)
	}

	resp, err := http.Get(srv.URL + "/v1/adapters/EM/A")
	if err != nil {
		t.Fatal(err)
	}
	var ks KeyStats
	if err := json.NewDecoder(resp.Body).Decode(&ks); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || ks.Key != "EM/A" || !ks.Resident || ks.Transfers != 1 {
		t.Fatalf("single-key stats = %+v (status %d)", ks, resp.StatusCode)
	}

	del := func() EvictResponse {
		req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/adapters/EM/A", nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("evict status %d", resp.StatusCode)
		}
		var er EvictResponse
		if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
			t.Fatal(err)
		}
		return er
	}
	if er := del(); !er.Evicted {
		t.Fatalf("first evict = %+v, want evicted", er)
	}
	if reg.Resident() != 0 {
		t.Fatalf("resident = %d after evict", reg.Resident())
	}
	// Counters survive eviction; the key is now known-but-not-resident.
	if er := del(); er.Evicted {
		t.Fatalf("second evict = %+v, want evicted=false", er)
	}
	resp, err = http.Get(srv.URL + "/v1/adapters/EM/A")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&ks); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if ks.Resident || ks.Transfers != 1 {
		t.Fatalf("post-evict stats = %+v, want non-resident with 1 transfer", ks)
	}
}

// routeRefusals is the property over the route table: for every registered
// route × {a method its pattern does not serve, a body over the cap, a
// malformed body, a bad key, a drain or an overload where the route sheds},
// and for one path no route owns, the refusal is the envelope and is counted
// (serve.requests, serve.requests/<route>, serve.request_errors), access-
// logged once with its status, and echoes the caller's traceparent. It
// iterates Server.routes, so a route added later — by this package or, like
// /v1/extra here, through Handle from outside — cannot dodge it. At the
// parent of PR 23 it fails on PUT /v1/adapters (uncounted, unlogged, no
// traceparent), GET /v1/nope (text/plain) and a predict body over the cap
// (read whole).
func routeRefusals(t *testing.T, res Resolver) {
	type probe struct {
		name, label, method, path, body string
		want                            int
		arm                             func(*Server) // puts a fresh server in the state the refusal needs
	}
	const tp = "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"
	mreg := obs.NewRegistry()
	var accessLog bytes.Buffer
	newServer := func() *Server {
		s := NewServer(res, Options{
			MaxInflight: 1,
			Rec:         obs.NewRecorder(mreg, nil),
			AccessLog:   slog.New(slog.NewJSONHandler(&accessLog, nil)),
		})
		Handle(s, Route{Method: http.MethodPost, Pattern: "/v1/extra", Label: "extra", ShedDrain: true, BodyCap: 64}, nil,
			func(_ context.Context, w http.ResponseWriter, _ *Request[map[string]any]) {
				WriteJSON(w, http.StatusOK, "ok")
			})
		return s
	}

	probes := []probe{{name: "unknown path", label: "unknown", method: http.MethodGet, path: "/v1/nope", want: http.StatusNotFound}}
	for pattern, routes := range newServer().routes {
		path := pattern
		if strings.HasSuffix(pattern, "/") {
			path += "EM/known"
		}
		probes = append(probes, probe{name: "PATCH " + pattern, label: routes[0].Label,
			method: http.MethodPatch, path: path, want: http.StatusMethodNotAllowed})
		for _, rt := range routes {
			p := probe{label: rt.Label, method: rt.Method, path: path, body: `{"adapter":"EM/known","key":"EM/known"}`}
			add := func(name string, want int, edit func(*probe)) {
				q := p
				q.name, q.want = rt.Method+" "+pattern+" "+name, want
				edit(&q)
				probes = append(probes, q)
			}
			if rt.BodyCap > 0 {
				add("body over the cap", http.StatusBadRequest, func(q *probe) {
					q.body = `{"pad":"` + strings.Repeat("x", int(rt.BodyCap)) + `"}`
				})
				add("malformed body", http.StatusBadRequest, func(q *probe) { q.body = "{nope" })
			}
			if rt.keyed {
				add("bad key", http.StatusBadRequest, func(q *probe) {
					q.path, q.body = strings.Replace(q.path, "EM/known", "no-slash", 1), `{"adapter":"no-slash","key":"no-slash"}`
				})
			}
			if rt.ShedDrain {
				add("draining", http.StatusServiceUnavailable, func(q *probe) { q.arm = (*Server).StartDrain })
			}
			if rt.ShedOverload {
				add("overloaded", http.StatusTooManyRequests, func(q *probe) { q.arm = func(s *Server) { s.inflight.Add(2) } })
			}
		}
	}
	if len(probes) < 20 {
		t.Fatalf("only %d probes: the route table was not walked", len(probes))
	}

	for _, p := range probes {
		t.Run(p.name, func(t *testing.T) {
			s := newServer()
			if p.arm != nil {
				p.arm(s)
			}
			counters := []string{"serve.requests", "serve.requests/" + p.label, "serve.request_errors"}
			before := make([]int64, len(counters))
			for i, name := range counters {
				before[i] = mreg.Counter(name).Value()
			}
			accessLog.Reset()
			req := httptest.NewRequest(p.method, p.path, strings.NewReader(p.body))
			req.Header.Set(obs.TraceparentHeader, tp)
			rw := httptest.NewRecorder()
			s.ServeHTTP(rw, req)

			if rw.Code != p.want {
				t.Fatalf("status %d (%s), want %d", rw.Code, rw.Body, p.want)
			}
			eb, ok := ParseErrorEnvelope(rw.Body.Bytes())
			if !ok || eb.Code != ErrorCode(p.want) || eb.Retryable != ErrorRetryable(p.want) || eb.Message == "" {
				t.Errorf("body %s is not the envelope for %d", rw.Body, p.want)
			}
			if ct := rw.Header().Get("Content-Type"); ct != "application/json" {
				t.Errorf("Content-Type %q", ct)
			}
			if got := rw.Header().Get(obs.TraceparentHeader); got != tp {
				t.Errorf("traceparent echoed as %q", got)
			}
			if (p.want == http.StatusTooManyRequests || p.want == http.StatusServiceUnavailable) && rw.Header().Get("Retry-After") == "" {
				t.Errorf("%d without Retry-After", p.want)
			}
			for i, name := range counters {
				if d := mreg.Counter(name).Value() - before[i]; d != 1 {
					t.Errorf("%s moved by %d, want 1", name, d)
				}
			}
			var line struct {
				Route  string `json:"route"`
				Status int    `json:"status"`
			}
			if err := json.Unmarshal(accessLog.Bytes(), &line); err != nil || line.Route != p.label || line.Status != p.want {
				t.Errorf("access log %q (%v), want one line with route %s status %d", accessLog.String(), err, p.label, p.want)
			}
		})
	}
}
