package loadgen

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/data"
	"repro/internal/serve"
)

// echoAdapter answers every instance with "<key>:<id>", the deterministic
// direct-path answer the tests put in Item.Want.
type echoAdapter struct{ key string }

func (a echoAdapter) PredictBatch(_ context.Context, ins []*data.Instance) []string {
	out := make([]string, len(ins))
	for i, in := range ins {
		out[i] = a.key + ":" + in.ID
	}
	return out
}

// newServer starts a real serve.Server over a Transferer that takes delay
// per build and answers with echoAdapter.
func newServer(t *testing.T, delay time.Duration, opts serve.Options) (*httptest.Server, *serve.Registry) {
	t.Helper()
	reg := serve.NewRegistry(func(_ context.Context, key string) (serve.Adapter, error) {
		time.Sleep(delay)
		return echoAdapter{key: key}, nil
	}, opts)
	srv := httptest.NewServer(serve.NewServer(reg, opts))
	t.Cleanup(srv.Close)
	return srv, reg
}

func TestRunLoadAgainstServer(t *testing.T) {
	srv, reg := newServer(t, time.Millisecond, serve.Options{MaxBatch: 4})
	keys := []string{"EM/A", "EM/B", "ED/C", "ED/D"}
	var items []Item
	for i := 0; i < 128; i++ {
		key := keys[i%len(keys)]
		id := fmt.Sprint(i)
		items = append(items, Item{
			Key:  key,
			In:   serve.WireInstance{ID: id, Candidates: []string{"yes", "no"}},
			Want: key + ":" + id, // the stub's deterministic direct-path answer
		})
	}
	rep, err := Run(context.Background(), srv.URL, items, Options{Concurrency: 64})
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
	srv, _ := newServer(t, 0, serve.Options{})
	items := []Item{{
		Key:  "EM/A",
		In:   serve.WireInstance{ID: "1", Candidates: []string{"yes", "no"}},
		Want: "something else",
	}}
	rep, err := Run(context.Background(), srv.URL, items, Options{Concurrency: 1})
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
	items := []Item{{Key: "EM/A", In: serve.WireInstance{ID: "1", Candidates: []string{"yes", "no"}}}}
	rep, err := Run(context.Background(), srv.URL, items, Options{Concurrency: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.EnvelopeMisses != 1 || rep.Non2xx != 1 || len(rep.ErrorCodes) != 0 {
		t.Fatalf("report = %+v, want one envelope miss and no error codes", rep)
	}
}
