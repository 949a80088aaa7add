package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

type predictResult struct {
	id, ans string
	err     error
}

// answered reports whether r is key's answer for the row it was asked about.
func (r predictResult) answered(key string) bool {
	return r.err == nil && r.ans == key+":"+r.id
}

// predictAsync sends ids through b from one goroutine each and returns the
// channel their results arrive on, in completion order.
func predictAsync(b *batcher, ids ...string) <-chan predictResult {
	out := make(chan predictResult, len(ids))
	for _, id := range ids {
		go func() {
			ans, err := b.predict(context.Background(), inst(id))
			out <- predictResult{id, ans, err}
		}()
	}
	return out
}

func recvResult(t *testing.T, ch <-chan predictResult) predictResult {
	t.Helper()
	select {
	case r := <-ch:
		return r
	case <-time.After(5 * time.Second):
		t.Fatal("a request was left hanging")
		return predictResult{}
	}
}

// awaitQueued waits until exactly n requests sit in b's queue.
func awaitQueued(t *testing.T, b *batcher, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		b.mu.Lock()
		got := len(b.queue)
		b.mu.Unlock()
		if got == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("queue holds %d requests, want %d", got, n)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func ids(lo, hi int) []string {
	var out []string
	for i := lo; i < hi; i++ {
		out = append(out, fmt.Sprint(i))
	}
	return out
}

// TestTwoLanesOverlapFullBatches: behind a running forward on one lane, a
// full batch leaves on the other at once — it does not wait for the running
// forward — and is not cut short to feed the free lane.
func TestTwoLanesOverlapFullBatches(t *testing.T) {
	ad, b := newGatedBatcher(t, 4, 2, nil)
	head := predictAsync(b, "h")
	ad.awaitEntered(t, 1)
	results := predictAsync(b, ids(0, 8)...)
	ad.awaitEntered(t, 1)
	awaitQueued(t, b, 4) // no lane is left for the second full batch
	if got := ad.inCall.Load(); got != 2 {
		t.Fatalf("%d PredictBatch calls in flight, want 2", got)
	}
	ad.release()
	recvAnswers(t, head, 1)
	recvAnswers(t, results, 8)
	if got := ad.calls.Load(); got != 3 {
		t.Fatalf("%d PredictBatch calls for the head and 8 rows at MaxBatch 4, want 3", got)
	}
}

// TestInFlightNeverExceedsLanes: with every call held inside the adapter,
// exactly lanes batches get in and the rest of the work stays queued —
// nothing leaves the queue without a free lane to serve it.
func TestInFlightNeverExceedsLanes(t *testing.T) {
	for _, lanes := range []int{1, 2, 4} {
		t.Run(fmt.Sprint("lanes=", lanes), func(t *testing.T) {
			ad, b := newGatedBatcher(t, 1, lanes, nil)
			results := predictAsync(b, ids(0, lanes+3)...)
			ad.awaitEntered(t, lanes)
			awaitQueued(t, b, 3)
			if got := int(ad.inCall.Load()); got != lanes {
				t.Fatalf("%d calls in flight with 3 rows queued, want %d", got, lanes)
			}
			ad.release()
			for i := 0; i < lanes+3; i++ {
				if r := recvResult(t, results); !r.answered("K") {
					t.Fatalf("row %s: (%q, %v)", r.id, r.ans, r.err)
				}
			}
			if got := int(ad.maxInFlight.Load()); got != lanes {
				t.Fatalf("high-water mark %d calls in flight, want exactly %d", got, lanes)
			}
		})
	}
}

// TestStopCollectsEveryLane: stop fails what is queued at once, but returns
// only after every batch in flight has been answered — the adapter may be
// released the moment stop returns.
func TestStopCollectsEveryLane(t *testing.T) {
	ad := gatedAdapter("K")
	b := newBatcher("K", ad, 1, 2, nil)
	inFlight := predictAsync(b, "0", "1")
	ad.awaitEntered(t, 2)
	queued := predictAsync(b, "2", "3")
	awaitQueued(t, b, 2)

	stopped := make(chan struct{})
	go func() {
		b.stop()
		close(stopped)
	}()
	for i := 0; i < 2; i++ {
		if r := recvResult(t, queued); !errors.Is(r.err, errBatcherStopped) {
			t.Fatalf("queued request: (%q, %v), want errBatcherStopped", r.ans, r.err)
		}
	}
	select {
	case <-stopped:
		t.Fatal("stop returned with two batches still inside the adapter")
	default:
	}
	ad.release()
	for i := 0; i < 2; i++ {
		if r := recvResult(t, inFlight); !r.answered("K") {
			t.Fatalf("in-flight row %s: (%q, %v), want its answer", r.id, r.ans, r.err)
		}
	}
	select {
	case <-stopped:
	case <-time.After(5 * time.Second):
		t.Fatal("stop never returned")
	}
	if got := ad.inCall.Load(); got != 0 {
		t.Fatalf("%d calls still inside the adapter after stop returned", got)
	}
}

// TestEvictionBehindBusyLanesRetries is the same ordering seen through the
// registry: with every lane of an adapter busy, evicting it fails the rows
// queued behind them with the retry sentinel, Registry.Predict re-resolves
// them onto a fresh Transfer, and the rows in flight still get their answers
// from the evicted adapter.
func TestEvictionBehindBusyLanesRetries(t *testing.T) {
	lanes := runtime.GOMAXPROCS(0)
	first := gatedAdapter("EM/A")
	var mu sync.Mutex
	builds := 0
	r := NewRegistry(func(_ context.Context, key string) (Adapter, error) {
		mu.Lock()
		defer mu.Unlock()
		builds++
		if builds == 1 {
			return first, nil
		}
		return &stubAdapter{key: key}, nil
	}, Options{MaxBatch: 1})
	predict := func(n int, into chan<- predictResult) {
		for i := 0; i < n; i++ {
			go func() {
				ans, _, err := r.Predict(context.Background(), "EM/A", inst("x"))
				into <- predictResult{"x", ans, err}
			}()
		}
	}
	inFlight := make(chan predictResult, lanes)
	predict(lanes, inFlight)
	first.awaitEntered(t, lanes)
	queued := make(chan predictResult, 2)
	predict(2, queued)
	r.mu.Lock()
	bat := r.ready["EM/A"].bat
	r.mu.Unlock()
	awaitQueued(t, bat, 2)

	evicted := make(chan struct{})
	go func() {
		if _, err := r.Evict(context.Background(), "EM/A"); err != nil {
			t.Error(err)
		}
		close(evicted)
	}()
	for i := 0; i < 2; i++ {
		if res := recvResult(t, queued); !res.answered("EM/A") {
			t.Fatalf("queued request after eviction: (%q, %v), want a retried answer", res.ans, res.err)
		}
	}
	select {
	case <-evicted:
		t.Fatal("Evict returned with batches still inside the evicted adapter")
	default:
	}
	first.release()
	for i := 0; i < lanes; i++ {
		if res := recvResult(t, inFlight); !res.answered("EM/A") {
			t.Fatalf("in-flight request: (%q, %v), want its answer", res.ans, res.err)
		}
	}
	<-evicted
	mu.Lock()
	defer mu.Unlock()
	if builds != 2 {
		t.Fatalf("%d Transfers, want 2: the first adapter and the one the retries rebuilt", builds)
	}
}

// TestWrongLengthFailsOneLaneOnly: of two batches in flight at once, the one
// whose answer comes back short fails all three of its members and the other
// answers all three of its own.
func TestWrongLengthFailsOneLaneOnly(t *testing.T) {
	ad, b := newGatedBatcher(t, 3, 3, nil)
	// A lone head holds one lane; the six rows behind it leave as two full
	// batches on the other two.
	head := predictAsync(b, "h")
	ad.awaitEntered(t, 1)
	results := predictAsync(b, ids(0, 6)...)
	ad.awaitEntered(t, 2)
	ad.wrongLen.Store(3) // consumed by whichever batch of three returns first
	ad.release()
	recvAnswers(t, head, 1)
	var answers, failed int
	for i := 0; i < 6; i++ {
		switch r := recvResult(t, results); {
		case r.answered("K"):
			answers++
		case r.err == nil:
			t.Fatalf("row %s answered %q", r.id, r.ans)
		case strings.Contains(r.err.Error(), "returned 2 answers for a batch of 3"):
			failed++
		default:
			t.Fatalf("unexpected error %v", r.err)
		}
	}
	if answers != 3 || failed != 3 {
		t.Fatalf("%d answered, %d failed; want one whole batch of 3 each way", answers, failed)
	}
}
