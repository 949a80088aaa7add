package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

func newTestServer(t *testing.T, tr *stubTransferer, opts Options) (*httptest.Server, *Registry) {
	t.Helper()
	reg := NewRegistry(tr.transfer, opts)
	srv := httptest.NewServer(NewServer(reg, opts))
	t.Cleanup(srv.Close)
	return srv, reg
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func TestPredictEndpoint(t *testing.T) {
	srv, _ := newTestServer(t, newStubTransferer(0), Options{})
	resp, body := postJSON(t, srv.URL+"/v1/predict", PredictRequest{
		Adapter:  "EM/A",
		Instance: WireInstance{ID: "7", Candidates: []string{"yes", "no"}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var pr PredictResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Answer != "EM/A:7" || !pr.Cold {
		t.Fatalf("response = %+v, want cold answer EM/A:7", pr)
	}
	// Second call: warm.
	_, body = postJSON(t, srv.URL+"/v1/predict", PredictRequest{
		Adapter:  "EM/A",
		Instance: WireInstance{ID: "8", Candidates: []string{"yes", "no"}},
	})
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Answer != "EM/A:8" || pr.Cold {
		t.Fatalf("second response = %+v, want warm answer EM/A:8", pr)
	}
}

func TestPredictRejectsBadRequests(t *testing.T) {
	tr := newStubTransferer(0)
	tr.errs["EM/gone"] = fmt.Errorf("%w: %q", ErrUnknownKey, "EM/gone")
	srv, _ := newTestServer(t, tr, Options{})
	cases := []struct {
		name string
		body any
		want int
	}{
		{"missing key", PredictRequest{Instance: WireInstance{Candidates: []string{"a"}}}, http.StatusBadRequest},
		{"keyless task", PredictRequest{Adapter: "EM/", Instance: WireInstance{Candidates: []string{"a"}}}, http.StatusBadRequest},
		{"taskless key", PredictRequest{Adapter: "/Walmart", Instance: WireInstance{Candidates: []string{"a"}}}, http.StatusBadRequest},
		{"no slash", PredictRequest{Adapter: "gone", Instance: WireInstance{Candidates: []string{"a"}}}, http.StatusBadRequest},
		{"no candidates", PredictRequest{Adapter: "EM/A"}, http.StatusBadRequest},
		{"unknown key", PredictRequest{Adapter: "EM/gone", Instance: WireInstance{Candidates: []string{"a"}}}, http.StatusNotFound},
	}
	for _, tc := range cases {
		resp, body := postJSON(t, srv.URL+"/v1/predict", tc.body)
		if resp.StatusCode != tc.want {
			t.Fatalf("%s: status %d (%s), want %d", tc.name, resp.StatusCode, body, tc.want)
		}
		eb, ok := ParseErrorEnvelope(body)
		if !ok || eb.Message == "" || eb.Code != ErrorCode(tc.want) {
			t.Fatalf("%s: error body %q, want envelope with code %s", tc.name, body, ErrorCode(tc.want))
		}
	}
	// Malformed JSON.
	resp, err := http.Post(srv.URL+"/v1/predict", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body: status %d, want 400", resp.StatusCode)
	}
	// Wrong method.
	resp, err = http.Get(srv.URL + "/v1/predict")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET predict: status %d, want 405", resp.StatusCode)
	}
}

func TestAdaptersEndpoints(t *testing.T) {
	tr := newStubTransferer(0)
	srv, reg := newTestServer(t, tr, Options{})
	// Warm an adapter explicitly.
	resp, body := postJSON(t, srv.URL+"/v1/adapters", WarmRequest{Key: "ED/B"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm status %d: %s", resp.StatusCode, body)
	}
	var wr WarmResponse
	if err := json.Unmarshal(body, &wr); err != nil {
		t.Fatal(err)
	}
	if !wr.Cold {
		t.Fatalf("first warm = %+v, want cold", wr)
	}
	if reg.Resident() != 1 {
		t.Fatalf("resident = %d after warm", reg.Resident())
	}
	// List.
	lresp, err := http.Get(srv.URL + "/v1/adapters")
	if err != nil {
		t.Fatal(err)
	}
	defer lresp.Body.Close()
	var ar AdaptersResponse
	if err := json.NewDecoder(lresp.Body).Decode(&ar); err != nil {
		t.Fatal(err)
	}
	if ar.Resident != 1 || len(ar.Adapters) != 1 || ar.Adapters[0].Key != "ED/B" || ar.Adapters[0].Transfers != 1 {
		t.Fatalf("adapters response = %+v", ar)
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	mreg := obs.NewRegistry()
	rec := obs.NewRecorder(mreg, nil)
	srv, _ := newTestServer(t, newStubTransferer(0), Options{Rec: rec})
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var hr HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&hr); err != nil {
		t.Fatal(err)
	}
	if !hr.OK || hr.MaxBatch != 8 || hr.MaxAdapt != 8 {
		t.Fatalf("healthz = %+v", hr)
	}
	if hr.GoVersion == "" || hr.UptimeS < 0 {
		t.Fatalf("healthz missing build info: %+v", hr)
	}
	// A predict populates the request counters the /metrics endpoint renders.
	postJSON(t, srv.URL+"/v1/predict", PredictRequest{
		Adapter:  "EM/A",
		Instance: WireInstance{ID: "1", Candidates: []string{"y", "n"}},
	})
	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(mresp.Body); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{"serve_requests", "serve_registry_miss", "serve_transfers"} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics missing %s:\n%s", want, text)
		}
	}
}

func TestRequestTimeout(t *testing.T) {
	tr := newStubTransferer(200 * time.Millisecond)
	srv, _ := newTestServer(t, tr, Options{RequestTimeout: 20 * time.Millisecond, TransferTimeout: time.Hour})
	resp, body := postJSON(t, srv.URL+"/v1/predict", PredictRequest{
		Adapter:  "EM/slow",
		Instance: WireInstance{ID: "1", Candidates: []string{"y", "n"}},
	})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d (%s), want 504", resp.StatusCode, body)
	}
}

func TestRunLoadAgainstServer(t *testing.T) {
	tr := newStubTransferer(time.Millisecond)
	srv, reg := newTestServer(t, tr, Options{MaxBatch: 4, MaxWait: time.Millisecond})
	keys := []string{"EM/A", "EM/B", "ED/C", "ED/D"}
	var items []LoadItem
	for i := 0; i < 128; i++ {
		key := keys[i%len(keys)]
		id := fmt.Sprint(i)
		items = append(items, LoadItem{
			Key:  key,
			In:   WireInstance{ID: id, Candidates: []string{"yes", "no"}},
			Want: key + ":" + id, // the stub's deterministic direct-path answer
		})
	}
	rep, err := RunLoad(context.Background(), srv.URL, items, LoadOptions{Concurrency: 64})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Non2xx != 0 || rep.Mismatches != 0 || rep.TraceEchoMisses != 0 {
		t.Fatalf("report = %+v (first error: %s)", rep, rep.FirstError)
	}
	if rep.SampleTrace == "" {
		t.Fatal("load report carries no sample trace")
	}
	if rep.Requests != 128 {
		t.Fatalf("implausible report %+v", rep)
	}
	for _, st := range reg.Snapshot() {
		if st.Transfers != 1 {
			t.Fatalf("key %s transferred %d times under coalesced load, want 1", st.Key, st.Transfers)
		}
	}
}

// TestRunLoadCountsMismatches: the byte-identity check actually fires.
func TestRunLoadCountsMismatches(t *testing.T) {
	srv, _ := newTestServer(t, newStubTransferer(0), Options{})
	items := []LoadItem{{
		Key:  "EM/A",
		In:   WireInstance{ID: "1", Candidates: []string{"yes", "no"}},
		Want: "something else",
	}}
	rep, err := RunLoad(context.Background(), srv.URL, items, LoadOptions{Concurrency: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Mismatches != 1 || rep.FirstError == "" {
		t.Fatalf("report = %+v, want one mismatch", rep)
	}
}

// TestRunLoadCountsEnvelopeMisses: a non-2xx body that is not the error
// envelope is counted apart from enveloped failures — the counter the
// drills make fatal at any fault rate.
func TestRunLoadCountsEnvelopeMisses(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusInternalServerError)
		fmt.Fprintln(w, "boom")
	}))
	defer srv.Close()
	items := []LoadItem{{Key: "EM/A", In: WireInstance{ID: "1", Candidates: []string{"yes", "no"}}}}
	rep, err := RunLoad(context.Background(), srv.URL, items, LoadOptions{Concurrency: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.EnvelopeMisses != 1 || rep.Non2xx != 1 || len(rep.ErrorCodes) != 0 {
		t.Fatalf("report = %+v, want one envelope miss and no error codes", rep)
	}
}
