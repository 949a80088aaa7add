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

// stepClock is a deterministic clock for linger tests: the first now() call
// (the request's enqueue stamp) returns base, every later call returns
// base+step — so the drain loop's deadline arithmetic sees exactly step
// elapsed since enqueue, regardless of goroutine interleaving.
type stepClock struct {
	mu    sync.Mutex
	calls int
	base  time.Time
	step  time.Duration
}

func (c *stepClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.calls++
	if c.calls == 1 {
		return c.base
	}
	return c.base.Add(c.step)
}

// newClockBatcher is a one-lane newBatcher with an injected clock. The clock
// is set before the first request; the dispatcher and the lane read it only
// after dequeuing one, so b.mu orders the assignment ahead of their reads.
func newClockBatcher(ad Adapter, maxBatch int, maxWait time.Duration, clk func() time.Time) *batcher {
	b := newBatcher("K", ad, maxBatch, maxWait, 1, nil)
	b.now = clk
	return b
}

// TestLingerAnchorsAtOldestEnqueue is the regression test for the linger
// deadline bug: the straggler wait must be measured from the oldest queued
// request's enqueue, not from linger entry. The fake clock reports that
// more than maxWait already elapsed since the enqueue, so the loop must
// serve immediately — with the old entry-anchored deadline this request
// would sit out the full (here deliberately enormous) maxWait.
func TestLingerAnchorsAtOldestEnqueue(t *testing.T) {
	clk := &stepClock{base: time.Unix(1000, 0), step: 10*time.Second + time.Millisecond}
	b := newClockBatcher(&stubAdapter{key: "K"}, 8, 10*time.Second, clk.now)
	defer b.stop()

	done := make(chan string, 1)
	go func() {
		ans, err := b.predict(context.Background(), inst("1"))
		if err != nil {
			t.Error(err)
		}
		done <- ans
	}()
	select {
	case ans := <-done:
		if ans != "K:1" {
			t.Fatalf("answer %q, want %q", ans, "K:1")
		}
	case <-time.After(3 * time.Second):
		t.Fatal("request stuck in linger despite its enqueue-anchored deadline having passed")
	}
}

// TestLingerStillWaitsWhenFresh is the counterpart: with a frozen clock
// (zero elapsed since enqueue) the loop must still linger, so a second
// request arriving during the wait coalesces into the same batch.
func TestLingerStillWaitsWhenFresh(t *testing.T) {
	reg := obs.NewRegistry()
	rec := obs.NewRecorder(reg, nil)
	frozen := time.Unix(1000, 0)
	ad := &stubAdapter{key: "K"}
	b := newClockBatcher(ad, 8, 300*time.Millisecond, func() time.Time { return frozen })
	b.rec = rec
	defer b.stop()

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := b.predict(context.Background(), inst(fmt.Sprint(i))); err != nil {
				t.Error(err)
			}
		}(i)
		time.Sleep(20 * time.Millisecond) // second request lands mid-linger
	}
	wg.Wait()
	if max := reg.Histogram("serve.batch_size", sizeBounds).Snapshot().Max; max < 2 {
		t.Fatalf("max batch size %v; the straggler should have joined the lingering batch", max)
	}
}

// TestLingerTimerReused: the linger timer is allocated once per batcher and
// reused across batches, not once per linger.
func TestLingerTimerReused(t *testing.T) {
	b := newBatcher("K", &stubAdapter{key: "K"}, 2, 50*time.Millisecond, 2, nil)
	for i := 0; i < 6; i++ {
		if _, err := b.predict(context.Background(), inst(fmt.Sprint(i))); err != nil {
			t.Fatal(err)
		}
	}
	b.stop() // closes done: the loop's timerInits writes are visible now
	if b.timerInits != 1 {
		t.Fatalf("timerInits = %d, want exactly 1 (one reused timer per batcher)", b.timerInits)
	}
}

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
			b := newBatcher("K", ad, 8, 2*time.Millisecond, lanes, rec)
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
	ad := &stubAdapter{key: "K"}
	// A long linger and a batch cap of 3: each burst of three requests
	// drains as exactly one full batch.
	b := newBatcher("K", ad, 3, 10*time.Second, 2, nil)
	defer b.stop()
	burst := func() (answers []string, errs []error) {
		type result struct {
			ans string
			err error
		}
		results := make(chan result, 3)
		for i := 0; i < 3; i++ {
			go func(i int) {
				ans, err := b.predict(context.Background(), inst(fmt.Sprint(i)))
				results <- result{ans, err}
			}(i)
		}
		for i := 0; i < 3; i++ {
			select {
			case r := <-results:
				if r.err != nil {
					errs = append(errs, r.err)
				} else {
					answers = append(answers, r.ans)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("a member of the batch was left hanging")
			}
		}
		return answers, errs
	}

	ad.wrongLen.Store(true)
	answers, errs := burst()
	if len(answers) != 0 || len(errs) != 3 {
		t.Fatalf("wrong-length batch: %d answers %v, %d errors; every member must fail", len(answers), answers, len(errs))
	}
	for _, err := range errs {
		if !strings.Contains(err.Error(), "returned 2 answers for a batch of 3") {
			t.Fatalf("member err = %v, want the wrong-length error", err)
		}
	}
	if got := ad.calls.Load(); got != 1 {
		t.Fatalf("adapter entered %d times for one batch, want 1", got)
	}

	ad.wrongLen.Store(false)
	answers, errs = burst()
	sort.Strings(answers)
	if len(errs) != 0 || fmt.Sprint(answers) != "[K:0 K:1 K:2]" {
		t.Fatalf("batch after the broken one: answers %v, errors %v", answers, errs)
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
	reg := NewRegistry(tr.transfer, Options{MaxAdapters: 1, MaxBatch: 2, MaxWait: time.Millisecond, Rec: rec})

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
