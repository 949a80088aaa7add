package serve

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/data"
	"repro/internal/obs"
)

// queueDepthGauges returns the keys that currently own a
// serve.queue_depth/<key> gauge.
func queueDepthGauges(mreg *obs.Registry) map[string]bool {
	out := map[string]bool{}
	for name := range mreg.Snapshot().Gauges {
		if k, ok := strings.CutPrefix(name, "serve.queue_depth/"); ok {
			out[k] = true
		}
	}
	return out
}

// TestWarmRacesEviction churns Warm/Predict across more keys than the
// registry can hold from 64 goroutines, so warms race predicts race LRU
// evictions (run under -race). Afterwards it asserts the metrics surface
// survived the churn — every queue-depth gauge belongs to a resident key
// (evicted keys must not leak stale series) and every resident key that
// serves traffic has one — and that residency still means exactly one
// Transfer: a re-Warm of a resident key is a no-op, and per-key Transfer
// counts match the stub's build counts (nothing lost, nothing doubled).
func TestWarmRacesEviction(t *testing.T) {
	mreg := obs.NewRegistry()
	rec := obs.NewRecorder(mreg, nil)
	tr := newStubTransferer(0)
	opts := Options{MaxAdapters: 2, MaxBatch: 4, Rec: rec}
	r := NewRegistry(tr.transfer, opts)

	keys := make([]string, 6)
	for i := range keys {
		keys[i] = fmt.Sprintf("EM/K%d", i)
	}

	const goroutines = 64
	const iters = 40
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < iters; i++ {
				key := keys[rng.Intn(len(keys))]
				if g%2 == 0 {
					if _, err := r.Warm(context.Background(), key); err != nil {
						t.Errorf("Warm(%s): %v", key, err)
						return
					}
				} else {
					in := &data.Instance{ID: fmt.Sprint(i), Candidates: []string{"yes", "no"}, Gold: -1}
					ans, _, err := r.Predict(context.Background(), key, in)
					if err != nil {
						t.Errorf("Predict(%s): %v", key, err)
						return
					}
					if want := key + ":" + in.ID; ans != want {
						t.Errorf("Predict(%s) = %q, want %q", key, ans, want)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if got, lanes := tr.maxInFlight(), runtime.GOMAXPROCS(0); got > lanes {
		t.Fatalf("%d PredictBatch calls in flight on one adapter, lanes = GOMAXPROCS = %d", got, lanes)
	}

	resident := func() map[string]bool {
		out := map[string]bool{}
		for _, st := range r.Snapshot() {
			if st.Resident {
				out[st.Key] = true
			}
		}
		return out
	}

	// Eviction retires batchers (and their gauges) asynchronously; wait for
	// the gauge set to settle inside the resident set.
	deadline := time.Now().Add(5 * time.Second)
	for {
		stale := false
		res := resident()
		for k := range queueDepthGauges(mreg) {
			if !res[k] {
				stale = true
			}
		}
		if !stale {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stale queue-depth gauges for evicted keys: gauges=%v resident=%v",
				queueDepthGauges(mreg), res)
		}
		time.Sleep(time.Millisecond)
	}

	res := resident()
	if len(res) == 0 || len(res) > opts.MaxAdapters {
		t.Fatalf("resident set %v, want 1..%d keys", res, opts.MaxAdapters)
	}

	// Exactly one Transfer per resident key: a re-Warm is a hit, not a new
	// build, and the registry's Transfer counts agree with the stub's build
	// counts for every key ever touched.
	before := map[string]int64{}
	for _, st := range r.Snapshot() {
		before[st.Key] = st.Transfers
	}
	for k := range res {
		cold, err := r.Warm(context.Background(), k)
		if err != nil {
			t.Fatalf("re-Warm(%s): %v", k, err)
		}
		if cold {
			t.Fatalf("re-Warm(%s) was cold — resident key rebuilt", k)
		}
	}
	for _, st := range r.Snapshot() {
		if st.Transfers != before[st.Key] {
			t.Fatalf("key %s transferred again on re-Warm (%d → %d)", st.Key, before[st.Key], st.Transfers)
		}
		if got := int64(tr.buildCount(st.Key)); got != st.Transfers {
			t.Fatalf("key %s: registry counted %d transfers, stub built %d", st.Key, st.Transfers, got)
		}
	}

	// Every resident key serving traffic owns its gauge again (predict
	// recreates the series), and only resident keys do.
	for k := range res {
		in := &data.Instance{ID: "final", Candidates: []string{"yes", "no"}, Gold: -1}
		if _, _, err := r.Predict(context.Background(), k, in); err != nil {
			t.Fatalf("final Predict(%s): %v", k, err)
		}
	}
	gauges := queueDepthGauges(mreg)
	for k := range res {
		if !gauges[k] {
			t.Fatalf("resident key %s lost its queue-depth gauge: %v", k, gauges)
		}
	}
	for k := range gauges {
		if !res[k] {
			t.Fatalf("non-resident key %s still exports a queue-depth gauge", k)
		}
	}
}
