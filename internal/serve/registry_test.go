package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/data"
	"repro/internal/obs"
)

// stubAdapter is a deterministic in-test adapter, safe for concurrent calls
// as the Adapter contract requires: it answers key:id in a fresh slice,
// counts its calls, and keeps the high-water mark of calls in flight at once
// — which the batcher must hold at or below its lane count.
type stubAdapter struct {
	key   string
	delay time.Duration
	// gate, when non-nil, holds every call inside the adapter until the test
	// sends on it or closes it; each call announces itself on entered first.
	gate    chan struct{}
	entered chan struct{}
	opened  sync.Once
	// wrongLen, when non-zero, makes the next PredictBatch of that many rows
	// to return come back one answer short: the broken adapter contract. One
	// call consumes it.
	wrongLen    atomic.Int32
	calls       atomic.Int32
	inCall      atomic.Int32
	maxInFlight atomic.Int32
}

// gatedAdapter returns a stub whose calls block until released.
func gatedAdapter(key string) *stubAdapter {
	// entered is buffered past any lane count the tests use, so announcing
	// never blocks a call the test is not yet listening for.
	return &stubAdapter{key: key, gate: make(chan struct{}), entered: make(chan struct{}, 64)}
}

func (a *stubAdapter) PredictBatch(_ context.Context, ins []*data.Instance) []string {
	n := a.inCall.Add(1)
	defer a.inCall.Add(-1)
	for {
		if hi := a.maxInFlight.Load(); n <= hi || a.maxInFlight.CompareAndSwap(hi, n) {
			break
		}
	}
	a.calls.Add(1)
	if a.gate != nil {
		a.entered <- struct{}{}
		<-a.gate
	}
	if a.delay > 0 {
		time.Sleep(a.delay)
	}
	ans := make([]string, 0, len(ins))
	for _, in := range ins {
		ans = append(ans, a.key+":"+in.ID)
	}
	if a.wrongLen.CompareAndSwap(int32(len(ins)), 0) {
		return ans[:len(ans)-1]
	}
	return ans
}

// release opens the gate for good: every call held inside the adapter and
// every later one goes through. Calling it again is harmless.
func (a *stubAdapter) release() { a.opened.Do(func() { close(a.gate) }) }

// newGatedBatcher is newBatcher over a gated stub for key "K". Its cleanup
// opens the gate before it stops the batcher, so a test that fails with calls
// held inside the adapter ends instead of hanging in stop.
func newGatedBatcher(t *testing.T, maxBatch, lanes int, rec *obs.Recorder) (*stubAdapter, *batcher) {
	ad := gatedAdapter("K")
	b := newBatcher("K", ad, maxBatch, lanes, rec)
	t.Cleanup(func() {
		ad.release()
		b.stop()
	})
	return ad, b
}

// awaitEntered waits until n more calls are inside the gated adapter.
func (a *stubAdapter) awaitEntered(t *testing.T, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		select {
		case <-a.entered:
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d of %d PredictBatch calls in flight", i, n)
		}
	}
}

// stubTransferer counts builds per key and can be told to stall, fail, or
// panic.
type stubTransferer struct {
	delay time.Duration

	mu       sync.Mutex
	builds   map[string]int
	adapters map[string]*stubAdapter
	panics   map[string]bool
	errs     map[string]error
}

func newStubTransferer(delay time.Duration) *stubTransferer {
	return &stubTransferer{
		delay:    delay,
		builds:   map[string]int{},
		adapters: map[string]*stubAdapter{},
		panics:   map[string]bool{},
		errs:     map[string]error{},
	}
}

func (t *stubTransferer) transfer(_ context.Context, key string) (Adapter, error) {
	t.mu.Lock()
	t.builds[key]++
	shouldPanic := t.panics[key]
	err := t.errs[key]
	t.mu.Unlock()
	if t.delay > 0 {
		time.Sleep(t.delay)
	}
	if shouldPanic {
		panic("transfer exploded")
	}
	if err != nil {
		return nil, err
	}
	ad := &stubAdapter{key: key}
	t.mu.Lock()
	t.adapters[key] = ad
	t.mu.Unlock()
	return ad, nil
}

func (t *stubTransferer) buildCount(key string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.builds[key]
}

// maxInFlight is the most PredictBatch calls any one adapter saw at once.
func (t *stubTransferer) maxInFlight() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	hi := 0
	for _, a := range t.adapters {
		hi = max(hi, int(a.maxInFlight.Load()))
	}
	return hi
}

func inst(id string) *data.Instance {
	return &data.Instance{ID: id, Candidates: []string{"yes", "no"}}
}

// TestColdStartCoalesces is the ISSUE's contention gate: N goroutines
// racing for one cold adapter must trigger exactly one Transfer, and every
// request must be answered by it.
func TestColdStartCoalesces(t *testing.T) {
	tr := newStubTransferer(20 * time.Millisecond)
	r := NewRegistry(tr.transfer, Options{})
	const n = 64
	var wg sync.WaitGroup
	errs := make([]error, n)
	answers := make([]string, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ans, _, err := r.Predict(context.Background(), "EM/A", inst(fmt.Sprint(i)))
			answers[i], errs[i] = ans, err
		}(i)
	}
	wg.Wait()
	for i := range errs {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if want := "EM/A:" + fmt.Sprint(i); answers[i] != want {
			t.Fatalf("request %d answered %q, want %q", i, answers[i], want)
		}
	}
	if got := tr.buildCount("EM/A"); got != 1 {
		t.Fatalf("%d transfers for one cold key, want exactly 1", got)
	}
	snap := r.Snapshot()
	if len(snap) != 1 || snap[0].Transfers != 1 {
		t.Fatalf("snapshot = %+v, want one key with Transfers=1", snap)
	}
	if snap[0].Hits+snap[0].Misses != n {
		t.Fatalf("hits+misses = %d, want %d", snap[0].Hits+snap[0].Misses, n)
	}
}

// TestLRUEviction: the bound holds, the least-recently-used key goes first,
// and per-key counters survive eviction.
func TestLRUEviction(t *testing.T) {
	tr := newStubTransferer(0)
	metrics := obs.NewRegistry()
	r := NewRegistry(tr.transfer, Options{MaxAdapters: 2, Rec: obs.NewRecorder(metrics, nil)})
	ctx := context.Background()
	for _, key := range []string{"A", "B"} {
		if _, _, err := r.Predict(ctx, key, inst("1")); err != nil {
			t.Fatal(err)
		}
	}
	// Touch A so B is the LRU victim when C arrives.
	if _, _, err := r.Predict(ctx, "A", inst("2")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.Predict(ctx, "C", inst("1")); err != nil {
		t.Fatal(err)
	}
	if got := r.Resident(); got != 2 {
		t.Fatalf("resident = %d, want 2", got)
	}
	resident := map[string]bool{}
	for _, st := range r.Snapshot() {
		resident[st.Key] = st.Resident
	}
	if !resident["A"] || !resident["C"] || resident["B"] {
		t.Fatalf("resident set = %v, want A and C", resident)
	}
	// A re-request of the evicted key rebuilds it and keeps its history.
	if _, _, err := r.Predict(ctx, "B", inst("3")); err != nil {
		t.Fatal(err)
	}
	if got := tr.buildCount("B"); got != 2 {
		t.Fatalf("B built %d times, want 2 (initial + post-eviction)", got)
	}
	for _, st := range r.Snapshot() {
		if st.Key == "B" && st.Transfers != 2 {
			t.Fatalf("B stats lost across eviction: %+v", st)
		}
	}
	// The process-wide series tell the same story: four cold starts (A, B,
	// C, B again), one warm hit, two LRU victims.
	got := metrics.Snapshot().Counters
	for name, want := range map[string]int64{
		"serve.registry_miss": 4, "serve.registry_hit": 1, "serve.registry_eviction": 2,
		"serve.transfers": 4, "serve.transfer_errors": 0,
	} {
		if got[name] != want {
			t.Errorf("%s = %d, want %d (all counters: %v)", name, got[name], want, got)
		}
	}
}

// TestCloseStopsEveryBatcher: Close, a drain's last step, stops the
// dispatcher and every lane of every resident adapter, so the process is back
// at its goroutine count from before the registry — with GOMAXPROCS lanes per
// adapter, that is what keeps `obs prof -gate`'s final-sample rule
// independent of core and adapter count. A key asked for afterwards
// cold-starts again and keeps its counters.
func TestCloseStopsEveryBatcher(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	// The baseline is taken once the count holds still: an earlier test's
	// evicted batcher stops in the background, and its goroutines exiting
	// during this test would read as lanes that never started.
	before := runtime.NumGoroutine()
	for deadline := time.Now().Add(time.Second); time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
		n := runtime.NumGoroutine()
		if n == before {
			break
		}
		before = n
	}
	tr := newStubTransferer(0)
	metrics := obs.NewRegistry()
	r := NewRegistry(tr.transfer, Options{Rec: obs.NewRecorder(metrics, nil)})
	ctx := context.Background()
	keys := []string{"A", "B", "C", "D"}
	for _, key := range keys {
		if _, _, err := r.Predict(ctx, key, inst("1")); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := runtime.NumGoroutine()-before, len(keys)*(8+1); got < want {
		t.Fatalf("%d goroutines above the start with %d adapters resident, want >= %d", got, len(keys), want)
	}
	r.Close()
	if got := r.Resident(); got != 0 {
		t.Fatalf("resident = %d after Close, want 0", got)
	}
	for _, g := range []string{"serve.queue_depth/A", "serve.queue_depth/D"} {
		if _, ok := metrics.Snapshot().Gauges[g]; ok {
			t.Errorf("gauge %s survives Close", g)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Fatalf("%d goroutines after Close, %d before the registry", got, before)
	}
	if _, cold, err := r.Predict(ctx, "A", inst("2")); err != nil || !cold {
		t.Fatalf("predict after Close: cold=%v err=%v, want a cold start", cold, err)
	}
	if got := tr.buildCount("A"); got != 2 {
		t.Fatalf("A built %d times, want 2 (before and after Close)", got)
	}
	r.Close()
}

// TestPanickingTransferFailsWaiters: a Transfer that panics must fail every
// coalesced waiter with an error — and must not wedge the key for later
// requests.
func TestPanickingTransferFailsWaiters(t *testing.T) {
	tr := newStubTransferer(10 * time.Millisecond)
	tr.panics["X"] = true
	r := NewRegistry(tr.transfer, Options{})
	const n = 16
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, errs[i] = r.Predict(context.Background(), "X", inst("1"))
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err == nil {
			t.Fatalf("request %d succeeded through a panicking transfer", i)
		}
		if !strings.Contains(err.Error(), "panicked") {
			t.Fatalf("request %d error = %v, want panic report", i, err)
		}
	}
	// The key recovers once the transferer does.
	tr.mu.Lock()
	tr.panics["X"] = false
	tr.mu.Unlock()
	done := make(chan error, 1)
	go func() {
		_, _, err := r.Predict(context.Background(), "X", inst("2"))
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("post-panic predict: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("registry wedged after a panicking transfer")
	}
}

// TestTransferErrorPropagates: unknown keys surface their sentinel to every
// coalesced waiter and are not cached as resident.
func TestTransferErrorPropagates(t *testing.T) {
	tr := newStubTransferer(0)
	tr.errs["nope"] = fmt.Errorf("%w: %q", ErrUnknownKey, "nope")
	metrics := obs.NewRegistry()
	r := NewRegistry(tr.transfer, Options{Rec: obs.NewRecorder(metrics, nil)})
	_, _, err := r.Predict(context.Background(), "nope", inst("1"))
	if !errors.Is(err, ErrUnknownKey) {
		t.Fatalf("err = %v, want ErrUnknownKey", err)
	}
	if r.Resident() != 0 {
		t.Fatal("failed transfer left a resident adapter")
	}
	for _, st := range r.Snapshot() {
		if st.Key == "nope" && st.Errors == 0 {
			t.Fatalf("error not counted: %+v", st)
		}
	}
	if c := metrics.Snapshot().Counters; c["serve.transfer_errors"] != 1 || c["serve.transfers"] != 0 {
		t.Fatalf("counters %v, want serve.transfer_errors 1 and no serve.transfers", c)
	}
}

// TestCanceledRequestDoesNotCancelTransfer: a waiter whose context dies
// leaves with its context error while the build (owned by another request)
// completes for everyone else.
func TestCanceledRequestDoesNotCancelTransfer(t *testing.T) {
	tr := newStubTransferer(50 * time.Millisecond)
	r := NewRegistry(tr.transfer, Options{})
	// Owner starts the build.
	ownerDone := make(chan error, 1)
	go func() {
		_, _, err := r.Predict(context.Background(), "K", inst("1"))
		ownerDone <- err
	}()
	time.Sleep(10 * time.Millisecond) // let the owner claim the flight
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := r.Predict(ctx, "K", inst("2")); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled waiter err = %v, want context.Canceled", err)
	}
	if err := <-ownerDone; err != nil {
		t.Fatalf("owner failed: %v", err)
	}
	if got := tr.buildCount("K"); got != 1 {
		t.Fatalf("build count = %d, want 1", got)
	}
}

// TestEvictionChurnNeverWedges: ping-ponging more keys than the bound under
// heavy concurrency exercises the eviction/retry race (a request resolving
// an entry that is evicted before it reaches the queue must transparently
// re-resolve). Every request must still be answered, by the right adapter.
func TestEvictionChurnNeverWedges(t *testing.T) {
	tr := newStubTransferer(time.Millisecond)
	r := NewRegistry(tr.transfer, Options{MaxAdapters: 1, MaxBatch: 4})
	keys := []string{"A", "B", "C"}
	const n = 90
	var wg sync.WaitGroup
	errCh := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			key := keys[i%len(keys)]
			ans, _, err := r.Predict(context.Background(), key, inst(fmt.Sprint(i)))
			if err != nil {
				errCh <- fmt.Errorf("request %d: %w", i, err)
				return
			}
			if want := key + ":" + fmt.Sprint(i); ans != want {
				errCh <- fmt.Errorf("request %d answered %q, want %q", i, ans, want)
			}
		}(i)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if r.Resident() != 1 {
		t.Fatalf("resident = %d, want the bound 1", r.Resident())
	}
	if got, lanes := tr.maxInFlight(), runtime.GOMAXPROCS(0); got > lanes {
		t.Fatalf("%d PredictBatch calls in flight on one adapter, lanes = GOMAXPROCS = %d", got, lanes)
	}
}
