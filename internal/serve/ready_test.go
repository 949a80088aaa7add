package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestStatusForMapping pins the full error→status table, wrapped and bare:
// the router depends on these statuses to tell terminal client errors
// (never retry) from backend trouble (fail over).
func TestStatusForMapping(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want int
	}{
		{"bad key", ErrBadKey, http.StatusBadRequest},
		{"bad key wrapped", fmt.Errorf("validate: %w", ErrBadKey), http.StatusBadRequest},
		{"empty key", ValidateKey(""), http.StatusBadRequest},
		{"slashless key", ValidateKey("WalmartAmazon"), http.StatusBadRequest},
		{"unknown key", ErrUnknownKey, http.StatusNotFound},
		{"unknown key wrapped", fmt.Errorf("transfer: %w", ErrUnknownKey), http.StatusNotFound},
		{"overloaded", ErrOverloaded, http.StatusTooManyRequests},
		{"overloaded wrapped", fmt.Errorf("%w: 99 in flight", ErrOverloaded), http.StatusTooManyRequests},
		{"draining", ErrDraining, http.StatusServiceUnavailable},
		{"deadline", context.DeadlineExceeded, http.StatusGatewayTimeout},
		{"deadline wrapped", fmt.Errorf("predict: %w", context.DeadlineExceeded), http.StatusGatewayTimeout},
		{"canceled", context.Canceled, 499},
		{"backend failure", errors.New("model exploded"), http.StatusBadGateway},
	}
	for _, tc := range cases {
		if got := statusFor(tc.err); got != tc.want {
			t.Errorf("statusFor(%s) = %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestValidateKey(t *testing.T) {
	for _, ok := range []string{"EM/Walmart-Amazon", "ED/hospital", "SM/a"} {
		if err := ValidateKey(ok); err != nil {
			t.Errorf("ValidateKey(%q) = %v, want nil", ok, err)
		}
	}
	for _, bad := range []string{"", "EM", "EM/", "/hospital", "EM/a/b", "/"} {
		err := ValidateKey(bad)
		if !errors.Is(err, ErrBadKey) {
			t.Errorf("ValidateKey(%q) = %v, want ErrBadKey", bad, err)
		}
	}
}

func getBody(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// TestReadyzAndDrain: /readyz is readiness, /healthz is liveness. A drain
// flips readiness (503 + Retry-After) and sheds new predicts the same way
// while liveness stays 200 — exactly what a router needs to stop routing
// to a backend that is shutting down without declaring it dead.
func TestReadyzAndDrain(t *testing.T) {
	reg := NewRegistry(newStubTransferer(0).transfer, Options{})
	metrics := obs.NewRegistry()
	s := NewServer(reg, Options{Rec: obs.NewRecorder(metrics, nil)})
	srv := httptest.NewServer(s)
	t.Cleanup(srv.Close)

	resp, body := getBody(t, srv.URL+"/readyz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz while serving: %d (%s), want 200", resp.StatusCode, body)
	}
	var rr ReadyResponse
	if err := json.Unmarshal(body, &rr); err != nil || !rr.OK || rr.Draining {
		t.Fatalf("serving readyz body = %s", body)
	}

	s.StartDrain()

	resp, body = getBody(t, srv.URL+"/readyz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining: %d (%s), want 503", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("draining readyz carries no Retry-After")
	}
	if err := json.Unmarshal(body, &rr); err != nil || rr.OK || !rr.Draining {
		t.Fatalf("draining readyz body = %s", body)
	}

	// Liveness is unaffected: the process is up, just not accepting.
	resp, body = getBody(t, srv.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz while draining: %d, want 200", resp.StatusCode)
	}
	var hr HealthResponse
	if err := json.Unmarshal(body, &hr); err != nil || !hr.OK || !hr.Draining {
		t.Fatalf("draining healthz body = %s", body)
	}

	// New predicts shed 503 + Retry-After.
	presp, pbody := postJSON(t, srv.URL+"/v1/predict", PredictRequest{
		Adapter:  "EM/A",
		Instance: WireInstance{ID: "1", Candidates: []string{"y", "n"}},
	})
	if presp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("predict while draining: %d (%s), want 503", presp.StatusCode, pbody)
	}
	if presp.Header.Get("Retry-After") == "" {
		t.Fatal("shed predict carries no Retry-After")
	}
	// Warm sheds too.
	wresp, _ := postJSON(t, srv.URL+"/v1/adapters", WarmRequest{Key: "EM/B"})
	if wresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("warm while draining: %d, want 503", wresp.StatusCode)
	}
	if got := metrics.Snapshot().Counters["serve.shed_draining"]; got != 2 {
		t.Fatalf("serve.shed_draining = %d, want the predict and the warm", got)
	}
}

// TestOverloadShed: past MaxInflight concurrent requests, predict sheds
// 429 with Retry-After instead of queueing without bound.
func TestOverloadShed(t *testing.T) {
	tr := newStubTransferer(300 * time.Millisecond) // slow cold start holds the slot
	reg := NewRegistry(tr.transfer, Options{})
	metrics := obs.NewRegistry()
	s := NewServer(reg, Options{MaxInflight: 1, Rec: obs.NewRecorder(metrics, nil)})
	srv := httptest.NewServer(s)
	t.Cleanup(srv.Close)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		raw, _ := json.Marshal(PredictRequest{
			Adapter:  "EM/slow",
			Instance: WireInstance{ID: "1", Candidates: []string{"y", "n"}},
		})
		resp, err := http.Post(srv.URL+"/v1/predict", "application/json", bytes.NewReader(raw))
		if err == nil {
			resp.Body.Close()
		}
	}()
	// Wait until the slow request is actually in flight.
	deadline := time.Now().Add(5 * time.Second)
	for s.inflight.Load() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("slow request never went in flight")
		}
		time.Sleep(time.Millisecond)
	}

	resp, body := postJSON(t, srv.URL+"/v1/predict", PredictRequest{
		Adapter:  "EM/fast",
		Instance: WireInstance{ID: "2", Candidates: []string{"y", "n"}},
	})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overloaded predict: %d (%s), want 429", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 shed carries no Retry-After")
	}
	if got := metrics.Snapshot().Counters["serve.shed_overload"]; got != 1 {
		t.Fatalf("serve.shed_overload = %d, want 1", got)
	}
	wg.Wait()
}
