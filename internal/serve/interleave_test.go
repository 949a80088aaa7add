package serve

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestBatcherInterleavings drives one batcher over the gated stub through
// seeded sequences of arrivals, context cancels and gate releases, with one
// stop at a seeded point, on 1–4 lanes and MaxBatch 1–4. After every step it
// waits for the batcher to settle — every batch cut is inside the adapter and
// the batching rule allows no further cut — which a dispatcher that strands
// a row it should send never does. At each settled step it checks:
//
//   - no more batches are in flight than there are lanes;
//   - a batch smaller than MaxBatch was cut only with nothing in flight, and
//     alone: it never starts beside another batch of the same batcher;
//   - every predict returns once: the stub's answer for its row, its own
//     context's error, or errBatcherStopped (the only outcome after stop);
//
// and after stop returns, that nothing is queued, in flight or waiting.
func TestBatcherInterleavings(t *testing.T) {
	seeds := int64(300)
	if testing.Short() {
		seeds = 40
	}
	for seed := int64(0); seed < seeds; seed++ {
		runInterleaving(t, seed)
	}
}

type interleavedReq struct {
	id        string
	cancel    context.CancelFunc
	canceled  bool
	afterStop bool // arrived after stop began: must be refused
}

func runInterleaving(t *testing.T, seed int64) {
	const steps = 48
	rng := rand.New(rand.NewSource(seed))
	lanes, maxBatch := 1+rng.Intn(4), 1+rng.Intn(4)
	stopAt := rng.Intn(steps + 1)
	step := 0
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("seed %d (lanes %d, MaxBatch %d), step %d: %s", seed, lanes, maxBatch, step, fmt.Sprintf(format, args...))
	}

	reg := obs.NewRegistry()
	// Every call announces itself once and there are at most steps calls,
	// so entered never blocks; the test does not read it.
	ad := &stubAdapter{key: "K", gate: make(chan struct{}), entered: make(chan struct{}, steps)}
	b := newBatcher("K", ad, maxBatch, lanes, obs.NewRecorder(reg, nil))
	t.Cleanup(ad.release) // a failed seed leaves no call held at the gate
	enqueued := reg.Histogram("serve.queue_depth", sizeBounds)

	var reqs []*interleavedReq
	results := make(chan predictResult, steps)
	returned := map[string]predictResult{}
	receive := func(r predictResult) {
		if _, dup := returned[r.id]; dup {
			fail("row %s returned twice", r.id)
		}
		returned[r.id] = r
	}
	// awaitReturn receives results until id's has arrived.
	awaitReturn := func(id string) {
		for deadline := time.After(5 * time.Second); ; {
			if _, ok := returned[id]; ok {
				return
			}
			select {
			case r := <-results:
				receive(r)
			case <-deadline:
				fail("row %s never returned", id)
			}
		}
	}
	stopping := false
	stopped := make(chan struct{})

	// settle waits until every call let through the gate has left the
	// adapter, every batch cut is parked at the gate (none is in hand-off,
	// being shed or being answered), and the rule allows no cut: the queue is
	// empty, no lane is free, or the queue is short of a full batch while a
	// batch is in flight. It returns the batches in flight.
	releases := 0
	settle := func() int {
		for i, start := 0, time.Now(); ; i++ {
			b.mu.Lock()
			queued, inFlight, stoppedFlag := len(b.queue), b.inFlight, b.stopped
			b.mu.Unlock()
			// calls is read before inCall, so a call entering in between can
			// only make left, the calls that have left the adapter, too small.
			calls := int(ad.calls.Load())
			inCall := int(ad.inCall.Load())
			left := calls - inCall
			mayCut := !stoppedFlag && queued > 0 && inFlight < lanes && (queued >= maxBatch || inFlight == 0)
			if left == releases && inFlight == inCall && !mayCut && (!stopping || (stoppedFlag && queued == 0)) {
				return inFlight
			}
			if time.Since(start) > 5*time.Second {
				fail("never settled: %d queued, %d in flight, %d inside the adapter, %d of %d released calls left, stopped %v",
					queued, inFlight, inCall, left, releases, stoppedFlag)
			}
			if i < 100 {
				runtime.Gosched()
			} else {
				time.Sleep(20 * time.Microsecond)
			}
		}
	}

	var prevSizes [5]int64
	prevInFlight := 0
	for ; step <= steps; step++ {
		released := 0
		switch action := rng.Intn(10); {
		case step == stopAt:
			stopping = true
			go func() {
				b.stop()
				close(stopped)
			}()
		case step == steps:
		case action < 5: // an arrival
			ctx, cancel := context.WithCancel(context.Background())
			r := &interleavedReq{id: fmt.Sprint(len(reqs)), cancel: cancel, afterStop: stopping}
			reqs = append(reqs, r)
			before := enqueued.Count()
			go func() {
				ans, err := b.predict(ctx, inst(r.id))
				results <- predictResult{r.id, ans, err}
			}()
			if stopping {
				awaitReturn(r.id)
				break
			}
			// Queued once the enqueue path has recorded the depth it saw.
			for deadline := time.Now().Add(5 * time.Second); enqueued.Count() == before; runtime.Gosched() {
				if time.Now().After(deadline) {
					fail("row %s never reached the queue", r.id)
				}
			}
		case action < 7: // a requester gives up
			var waiting []*interleavedReq
			for _, r := range reqs {
				if _, ok := returned[r.id]; !ok && !r.canceled {
					waiting = append(waiting, r)
				}
			}
			if len(waiting) == 0 {
				break
			}
			r := waiting[rng.Intn(len(waiting))]
			r.canceled = true
			r.cancel()
			awaitReturn(r.id)
		default: // one forward ends
			if ad.inCall.Load() == 0 {
				break
			}
			select {
			case ad.gate <- struct{}{}:
				released = 1
				releases++
			case <-time.After(5 * time.Second):
				fail("no call took the gate with %d inside the adapter", ad.inCall.Load())
			}
		}
		inFlight := settle()

		if inFlight > lanes || int(ad.maxInFlight.Load()) > lanes {
			fail("%d batches in flight (high-water mark %d calls) on %d lanes", inFlight, ad.maxInFlight.Load(), lanes)
		}
		sizes := cutSizes(t, reg)
		var cut, small int64
		for s := 1; s <= 4; s++ {
			d := sizes[s] - prevSizes[s]
			cut += d
			if s < maxBatch {
				small += d
			}
		}
		if small > 0 && (cut != 1 || prevInFlight-released != 0) {
			fail("a batch short of MaxBatch was cut among %d batches this step, with %d batches in flight before", cut, prevInFlight-released)
		}
		prevSizes, prevInFlight = sizes, inFlight
		for drained := false; !drained; {
			select {
			case r := <-results:
				receive(r)
			default:
				drained = true
			}
		}
	}

	ad.release() // every forward may end now
	select {
	case <-stopped:
	case <-time.After(5 * time.Second):
		fail("stop never returned")
	}
	b.mu.Lock()
	queued, inFlight := len(b.queue), b.inFlight
	b.mu.Unlock()
	if queued != 0 || inFlight != 0 || ad.inCall.Load() != 0 {
		fail("after stop: %d queued, %d in flight, %d inside the adapter", queued, inFlight, ad.inCall.Load())
	}
	for _, r := range reqs {
		awaitReturn(r.id)
	}
	select {
	case r := <-results:
		fail("row %s returned again after every row had returned", r.id)
	default:
	}
	for _, r := range reqs {
		got := returned[r.id]
		switch {
		case r.afterStop:
			if !errors.Is(got.err, errBatcherStopped) {
				fail("row %s arrived after stop: (%q, %v), want errBatcherStopped", r.id, got.ans, got.err)
			}
		case got.answered("K"), errors.Is(got.err, errBatcherStopped):
		case r.canceled && errors.Is(got.err, context.Canceled):
		default:
			fail("row %s (canceled %v): (%q, %v)", r.id, r.canceled, got.ans, got.err)
		}
	}
}
