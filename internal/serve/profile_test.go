package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime/pprof"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/data"
	"repro/internal/obs"
	"repro/internal/obs/profile"
)

func jsonReader(t *testing.T, v any) *bytes.Reader {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.NewReader(raw)
}

// labelAdapter records the pprof labels visible from inside PredictBatch —
// what CPU samples taken during the call would be attributed with.
type labelAdapter struct {
	mu     sync.Mutex
	labels map[string]string
}

func (a *labelAdapter) PredictBatch(ctx context.Context, ins []*data.Instance) []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.labels = map[string]string{}
	for _, k := range []string{profile.LabelRoute, profile.LabelKey, profile.LabelBatch} {
		if v, ok := pprof.Label(ctx, k); ok {
			a.labels[k] = v
		}
	}
	return make([]string, len(ins))
}

func (a *labelAdapter) seen() map[string]string {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.labels
}

// routeResolver records the route label on the context the HTTP handler
// hands its resolver, then delegates.
type routeResolver struct {
	Resolver
	route string
}

func (r *routeResolver) Predict(ctx context.Context, key string, in *data.Instance) (string, bool, error) {
	r.route, _ = pprof.Label(ctx, profile.LabelRoute)
	return r.Resolver.Predict(ctx, key, in)
}

// TestPredictCarriesPprofLabels pins the cost-attribution contract: the
// handler's goroutine carries the route label down to the resolver, and the
// adapter's PredictBatch runs under the batcher's key/batch labels. A batch
// is shared work on behalf of every member, so it carries no member's route.
func TestPredictCarriesPprofLabels(t *testing.T) {
	ad := &labelAdapter{}
	res := &routeResolver{Resolver: NewRegistry(func(_ context.Context, _ string) (Adapter, error) {
		return ad, nil
	}, Options{})}
	srv := NewServer(res, Options{})

	req := httptest.NewRequest(http.MethodPost, "/v1/predict", jsonReader(t, PredictRequest{
		Adapter:  "EM/Walmart-Amazon",
		Instance: WireInstance{ID: "1", Candidates: []string{"y", "n"}},
	}))
	rw := httptest.NewRecorder()
	srv.ServeHTTP(rw, req)
	if rw.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rw.Code, rw.Body.String())
	}
	if res.route != "predict" {
		t.Errorf("route label at the resolver = %q, want predict", res.route)
	}
	labels := ad.seen()
	if r, ok := labels[profile.LabelRoute]; ok {
		t.Errorf("batch carries route label %q; shared work belongs to no one request (labels %v)", r, labels)
	}
	if labels[profile.LabelKey] != "EM/Walmart-Amazon" {
		t.Errorf("key label = %q (labels %v)", labels[profile.LabelKey], labels)
	}
	if labels[profile.LabelBatch] == "" {
		t.Errorf("batch label missing (labels %v)", labels)
	}
}

// TestTransferCarriesPprofLabels pins the cold-start attribution: the
// Transfer itself runs under key + phase=transfer labels.
func TestTransferCarriesPprofLabels(t *testing.T) {
	var key, phase string
	reg := NewRegistry(func(ctx context.Context, k string) (Adapter, error) {
		key, _ = pprof.Label(ctx, profile.LabelKey)
		phase, _ = pprof.Label(ctx, profile.LabelPhase)
		return &stubAdapter{key: k}, nil
	}, Options{})
	if _, err := reg.Warm(context.Background(), "ED/Hospital"); err != nil {
		t.Fatal(err)
	}
	if key != "ED/Hospital" || phase != "transfer" {
		t.Errorf("transfer labels = key %q phase %q", key, phase)
	}
}

// TestHealthzDescribesWhatItFronts: fresh goroutine/heap readings once, and
// the batching knobs only in front of a Registry, read from the registry's
// own options — never the server's defaulted copy, which at the parent made a
// router's /healthz claim max_batch 8.
func TestHealthzDescribesWhatItFronts(t *testing.T) {
	reg := NewRegistry(newStubTransferer(0).transfer, Options{MaxBatch: 3, MaxAdapters: 5})
	for _, tc := range []struct {
		name string
		res  Resolver
		want map[string]any // nil: the field must be absent
	}{
		{"registry", reg, map[string]any{"max_batch": 3.0, "max_adapters": 5.0}},
		{"other resolver", &envResolver{}, map[string]any{"max_batch": nil, "max_adapters": nil}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// The server's own options say nothing about the registry.
			srv := NewServer(tc.res, Options{})
			rw := httptest.NewRecorder()
			srv.ServeHTTP(rw, httptest.NewRequest(http.MethodGet, "/healthz", nil))
			var hr HealthResponse
			var fields map[string]any
			if err := json.Unmarshal(rw.Body.Bytes(), &hr); err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(rw.Body.Bytes(), &fields); err != nil {
				t.Fatal(err)
			}
			if !hr.OK || hr.Goroutines <= 0 || hr.HeapLiveBytes == 0 {
				t.Fatalf("healthz runtime readings implausible: %+v", hr)
			}
			for name, want := range tc.want {
				if got, ok := fields[name]; ok != (want != nil) || (ok && got != want) {
					t.Errorf("%s = %v (present %v), want %v", name, got, ok, want)
				}
			}
			if _, ok := fields["sampler"]; ok || strings.Count(rw.Body.String(), "goroutines") != 1 {
				t.Errorf("healthz repeats itself: %s", rw.Body)
			}
		})
	}
}

// TestSlowRequestTriggersCapture pins the slow-path satellite: a request
// past SlowRequest pokes the profile trigger and the capture files land.
func TestSlowRequestTriggersCapture(t *testing.T) {
	dir := t.TempDir()
	mreg := obs.NewRegistry()
	rec := obs.NewRecorder(mreg, nil)
	opts := Options{
		Rec:         rec,
		SlowRequest: time.Nanosecond, // every request is "slow"
		Profiles: &profile.Trigger{
			Dir:         dir,
			CPUDuration: 2 * time.Millisecond,
			Cooldown:    time.Hour,
			Rec:         rec,
		},
	}
	reg := NewRegistry(newStubTransferer(0).transfer, opts)
	srv := NewServer(reg, opts)
	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	rw := httptest.NewRecorder()
	srv.ServeHTTP(rw, req)

	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if mreg.Counter("profile.captures").Value() > 0 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if mreg.Counter("profile.captures").Value() == 0 {
		t.Fatalf("no capture after slow request (errors %d)",
			mreg.Counter("profile.capture_errors").Value())
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) == 0 {
		t.Error("capture dir empty")
	}
}
