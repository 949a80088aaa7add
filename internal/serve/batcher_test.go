package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestBatchesForm: with a slow adapter and a burst of requests, the loop
// must coalesce waiting requests into multi-request batches (observable in
// the serve.batch_size histogram) and answer all of them correctly.
func TestBatchesForm(t *testing.T) {
	reg := obs.NewRegistry()
	rec := obs.NewRecorder(reg, nil)
	ad := &stubAdapter{key: "K", delay: 2 * time.Millisecond}
	b := newBatcher("K", ad, 8, 50*time.Millisecond, 1, rec)
	defer b.stop()

	const n = 32
	var wg sync.WaitGroup
	errCh := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ans, err := b.predict(context.Background(), inst(fmt.Sprint(i)))
			if err != nil {
				errCh <- err
				return
			}
			if want := "K:" + fmt.Sprint(i); ans != want {
				errCh <- fmt.Errorf("answer %q, want %q", ans, want)
			}
		}(i)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if got := ad.maxInFlight.Load(); got != 1 {
		t.Fatalf("%d PredictBatch calls in flight at once on one lane", got)
	}
	h := reg.Histogram("serve.batch_size", sizeBounds)
	if h.Count() == 0 {
		t.Fatal("no batches recorded")
	}
	snap := h.Snapshot()
	if snap.Max <= 1 {
		t.Fatalf("max batch size %v; a 32-request burst against a 2ms adapter must coalesce", snap.Max)
	}
	if h.Count() >= n {
		t.Fatalf("%d batches for %d requests; batching amortized nothing", h.Count(), n)
	}
}

// TestBatchRespectsCap: no served batch may exceed MaxBatch.
func TestBatchRespectsCap(t *testing.T) {
	reg := obs.NewRegistry()
	rec := obs.NewRecorder(reg, nil)
	ad := &stubAdapter{key: "K", delay: time.Millisecond}
	b := newBatcher("K", ad, 4, 20*time.Millisecond, 2, rec)
	defer b.stop()

	var wg sync.WaitGroup
	for i := 0; i < 40; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := b.predict(context.Background(), inst(fmt.Sprint(i))); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	if max := reg.Histogram("serve.batch_size", sizeBounds).Snapshot().Max; max > 4 {
		t.Fatalf("batch of %v served with MaxBatch 4", max)
	}
}

// TestStopFailsQueued: stopping a batcher fails queued requests with the
// retry sentinel instead of hanging them, and refuses later arrivals.
func TestStopFailsQueued(t *testing.T) {
	ad := &stubAdapter{key: "K", delay: 20 * time.Millisecond}
	b := newBatcher("K", ad, 1, time.Millisecond, 1, nil)

	// Occupy the lane with a slow call so the next request queues behind it.
	first := make(chan error, 1)
	go func() {
		_, err := b.predict(context.Background(), inst("0"))
		first <- err
	}()
	time.Sleep(5 * time.Millisecond)
	queued := make(chan error, 1)
	go func() {
		_, err := b.predict(context.Background(), inst("1"))
		queued <- err
	}()
	time.Sleep(5 * time.Millisecond)
	go b.stop()

	if err := <-queued; err != nil && !errors.Is(err, errBatcherStopped) {
		t.Fatalf("queued request err = %v, want nil or errBatcherStopped", err)
	}
	if err := <-first; err != nil && !errors.Is(err, errBatcherStopped) {
		t.Fatalf("in-flight request err = %v, want nil or errBatcherStopped", err)
	}
	if _, err := b.predict(context.Background(), inst("2")); !errors.Is(err, errBatcherStopped) {
		t.Fatalf("post-stop predict err = %v, want errBatcherStopped", err)
	}
}

// TestPredictShedsCanceled: a request whose context dies while queued is
// answered with the context error without touching the model.
func TestPredictShedsCanceled(t *testing.T) {
	ad := &stubAdapter{key: "K", delay: 30 * time.Millisecond}
	metrics := obs.NewRegistry()
	b := newBatcher("K", ad, 1, time.Millisecond, 1, obs.NewRecorder(metrics, nil))
	defer b.stop()

	// Head-of-line request keeps the only lane busy.
	go b.predict(context.Background(), inst("0")) //nolint:errcheck
	time.Sleep(5 * time.Millisecond)

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := b.predict(ctx, inst("1"))
		done <- err
	}()
	time.Sleep(5 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("canceled request never returned")
	}
	// The caller left at once; the batcher sheds the dead request when it
	// reaches it, behind the head-of-line forward.
	for deadline := time.Now().Add(5 * time.Second); metrics.Snapshot().Counters["serve.shed"] != 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("serve.shed = %d, want the canceled request counted once", metrics.Snapshot().Counters["serve.shed"])
		}
	}
}

// TestStopIdempotent: double-stop must not panic or hang.
func TestStopIdempotent(t *testing.T) {
	b := newBatcher("K", &stubAdapter{key: "K"}, 2, time.Millisecond, 2, nil)
	done := make(chan struct{})
	go func() {
		b.stop()
		b.stop()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("stop hung")
	}
}
