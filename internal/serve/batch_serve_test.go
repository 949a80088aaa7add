package serve

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestBatchedPredictMatchesSerialUnderLoad drives 64 concurrent requests
// through one batcher, at 1, 2 and 4 lanes, and requires every answer to be
// the adapter's formula for that request — batching must never hand a request
// its neighbour's answer, whichever lane served it — with never more
// PredictBatch calls in flight than lanes. Run under -race this also
// exercises the lane-scratch ownership and depth-gauge-under-mutex
// invariants.
func TestBatchedPredictMatchesSerialUnderLoad(t *testing.T) {
	for _, lanes := range []int{1, 2, 4} {
		t.Run(fmt.Sprint("lanes=", lanes), func(t *testing.T) {
			reg := obs.NewRegistry()
			rec := obs.NewRecorder(reg, nil)
			ad := &stubAdapter{key: "K", delay: time.Millisecond}
			b := newBatcher("K", ad, 8, lanes, rec)
			defer b.stop()

			const n = 64
			var wg sync.WaitGroup
			errCh := make(chan error, n)
			for i := 0; i < n; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					got, err := b.predict(context.Background(), inst(fmt.Sprint(i)))
					if err != nil {
						errCh <- err
						return
					}
					if want := "K:" + fmt.Sprint(i); got != want {
						errCh <- fmt.Errorf("request %d: answer %q, want %q", i, got, want)
					}
				}(i)
			}
			wg.Wait()
			close(errCh)
			for err := range errCh {
				t.Fatal(err)
			}
			if got := int(ad.maxInFlight.Load()); got > lanes {
				t.Fatalf("%d PredictBatch calls in flight on %d lanes", got, lanes)
			}
			calls, batches := int64(ad.calls.Load()), reg.Counter("serve.batches").Value()
			if calls == 0 || calls >= n {
				t.Fatalf("%d PredictBatch calls for %d requests; batching amortized nothing", calls, n)
			}
			if calls != batches {
				t.Fatalf("%d PredictBatch calls for %d drained batches; every batch is one call", calls, batches)
			}
		})
	}
}

// TestBatchWrongLengthFailsTheBatch: an adapter returning the wrong number of
// answers has broken its contract. The batch is not run a second time another
// way: the adapter is entered once, every member gets an error promptly (none
// is left hanging, none gets a neighbour's answer), and the loop keeps
// serving — the next, well-formed batch succeeds.
func TestBatchWrongLengthFailsTheBatch(t *testing.T) {
	ad, b := newGatedBatcher(t, 3, 1, nil)
	// A lone head request holds the only lane, so the three rows behind it
	// leave as one full batch once it is answered.
	head := predictAsync(b, "h")
	ad.awaitEntered(t, 1)
	burst := predictAsync(b, ids(0, 3)...)
	awaitQueued(t, b, 3)
	ad.wrongLen.Store(3)
	ad.gate <- struct{}{}
	if r := recvResult(t, head); !r.answered("K") {
		t.Fatalf("head: (%q, %v)", r.ans, r.err)
	}
	ad.awaitEntered(t, 1)
	ad.gate <- struct{}{}
	for i := 0; i < 3; i++ {
		r := recvResult(t, burst)
		if r.err == nil || !strings.Contains(r.err.Error(), "returned 2 answers for a batch of 3") {
			t.Fatalf("member %s of the wrong-length batch: (%q, %v), want the wrong-length error", r.id, r.ans, r.err)
		}
	}
	if got := ad.calls.Load(); got != 2 {
		t.Fatalf("adapter entered %d times for the head and one batch, want 2", got)
	}

	ad.release()
	results := predictAsync(b, ids(0, 3)...)
	var answers []string
	for i := 0; i < 3; i++ {
		r := recvResult(t, results)
		if r.err != nil {
			t.Fatalf("batch after the broken one: row %s failed: %v", r.id, r.err)
		}
		answers = append(answers, r.ans)
	}
	sort.Strings(answers)
	if fmt.Sprint(answers) != "[K:0 K:1 K:2]" {
		t.Fatalf("batch after the broken one: answers %v", answers)
	}
}

// TestEvictionRetiresDepthGauge is the registry-churn gate: when the LRU
// evicts a key, its per-key queue-depth gauge must disappear from the
// metrics snapshot instead of lingering as a stale series, while the
// surviving key's gauge stays.
func TestEvictionRetiresDepthGauge(t *testing.T) {
	mreg := obs.NewRegistry()
	rec := obs.NewRecorder(mreg, nil)
	tr := newStubTransferer(0)
	reg := NewRegistry(tr.transfer, Options{MaxAdapters: 1, MaxBatch: 2, Rec: rec})

	if _, _, err := reg.Predict(context.Background(), "EM/A", inst("1")); err != nil {
		t.Fatal(err)
	}
	if _, ok := mreg.Snapshot().Gauges["serve.queue_depth/EM/A"]; !ok {
		t.Fatal("depth gauge for resident key missing before eviction")
	}
	// Second key evicts the first (MaxAdapters 1); the evicted batcher stops
	// asynchronously, so poll for the gauge to vanish.
	if _, _, err := reg.Predict(context.Background(), "EM/B", inst("1")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, ok := mreg.Snapshot().Gauges["serve.queue_depth/EM/A"]; !ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("evicted key's depth gauge still exported")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if _, ok := mreg.Snapshot().Gauges["serve.queue_depth/EM/B"]; !ok {
		t.Fatal("surviving key's depth gauge missing")
	}
}
