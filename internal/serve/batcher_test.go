package serve

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/obs"
)

// cutSizes reads, off serve.batch_size, how many batches of each size 1..4
// the batcher has cut (shed members included): the histogram's first
// buckets hold one size each.
func cutSizes(t *testing.T, reg *obs.Registry) [5]int64 {
	t.Helper()
	snap := reg.Histogram("serve.batch_size", sizeBounds).Snapshot()
	var out [5]int64
	for s := 1; s <= 4; s++ {
		if snap.Le[s] != float64(s) {
			t.Fatalf("serve.batch_size bucket %d ends at %v, want %d", s, snap.Le[s], s)
		}
		out[s] = snap.Bkt[s]
	}
	return out
}

// awaitInFlight waits until exactly n of b's batches are in flight.
func awaitInFlight(t *testing.T, b *batcher, n int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(100 * time.Microsecond) {
		b.mu.Lock()
		got := b.inFlight
		b.mu.Unlock()
		if got == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d batches in flight, want %d", got, n)
		}
	}
}

// recvAnswers receives n results and fails unless each is its row's answer.
func recvAnswers(t *testing.T, ch <-chan predictResult, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if r := recvResult(t, ch); !r.answered("K") {
			t.Fatalf("row %s: (%q, %v)", r.id, r.ans, r.err)
		}
	}
}

// TestBatchesForm: rows that arrive behind a running forward coalesce into
// full batches, and every row gets its own answer.
func TestBatchesForm(t *testing.T) {
	reg := obs.NewRegistry()
	ad, b := newGatedBatcher(t, 8, 1, obs.NewRecorder(reg, nil))

	head := predictAsync(b, "0")
	ad.awaitEntered(t, 1)
	rest := predictAsync(b, ids(1, 32)...)
	awaitQueued(t, b, 31)
	ad.release()
	recvAnswers(t, head, 1)
	recvAnswers(t, rest, 31)
	if got := ad.maxInFlight.Load(); got != 1 {
		t.Fatalf("%d PredictBatch calls in flight at once on one lane", got)
	}
	// The head alone, then 31 rows as 8+8+8+7.
	h := reg.Histogram("serve.batch_size", sizeBounds)
	if got, max := ad.calls.Load(), h.Snapshot().Max; got != 5 || h.Count() != 5 || max != 8 {
		t.Fatalf("%d calls, %d batches, largest %v for 32 rows at MaxBatch 8; want 5 batches, largest 8", got, h.Count(), max)
	}
}

// TestBatchRespectsCap: no served batch may exceed MaxBatch, however deep
// the queue behind the running forwards.
func TestBatchRespectsCap(t *testing.T) {
	reg := obs.NewRegistry()
	ad, b := newGatedBatcher(t, 4, 2, obs.NewRecorder(reg, nil))

	head := predictAsync(b, "0")
	ad.awaitEntered(t, 1)
	rest := predictAsync(b, ids(1, 40)...)
	ad.awaitEntered(t, 1) // the first four rows, on the second lane
	awaitQueued(t, b, 35)
	ad.release()
	recvAnswers(t, head, 1)
	recvAnswers(t, rest, 39)
	if max := reg.Histogram("serve.batch_size", sizeBounds).Snapshot().Max; max > 4 {
		t.Fatalf("batch of %v served with MaxBatch 4", max)
	}
	// 39 rows behind the head: nine full batches and the last three rows.
	if got := cutSizes(t, reg); got != [5]int64{0, 1, 0, 1, 9} {
		t.Fatalf("batches by size 1..4: %v, want [1 0 1 9]", got[1:])
	}
}

// TestBatchingRule walks the batching rule: with a lane free, a batch leaves
// when the queue holds MaxBatch rows or when no batch of the adapter is in
// flight.
func TestBatchingRule(t *testing.T) {
	reg := obs.NewRegistry()
	ad, b := newGatedBatcher(t, 4, 2, obs.NewRecorder(reg, nil))

	// An idle adapter answers a lone request at once.
	lone := predictAsync(b, "0")
	ad.awaitEntered(t, 1)
	// Rows behind a running forward wait, though the second lane is free...
	behind := predictAsync(b, "1", "2", "3")
	awaitQueued(t, b, 3)
	// ...until they fill a batch, which leaves on that lane at once.
	full := predictAsync(b, "4")
	ad.awaitEntered(t, 1)
	awaitQueued(t, b, 0)
	// A row queued behind two forwards still waits when one of them ends, and
	// the rows after it join it into the next full batch.
	tail := predictAsync(b, "5")
	awaitQueued(t, b, 1)
	ad.gate <- struct{}{}
	awaitInFlight(t, b, 1)
	more := predictAsync(b, "6", "7", "8")
	ad.awaitEntered(t, 1)
	awaitQueued(t, b, 0)

	ad.release()
	recvAnswers(t, lone, 1)
	recvAnswers(t, behind, 3)
	recvAnswers(t, full, 1)
	recvAnswers(t, tail, 1)
	recvAnswers(t, more, 3)
	if got := cutSizes(t, reg); got != [5]int64{0, 1, 0, 0, 2} {
		t.Fatalf("batches by size 1..4: %v, want [1 0 0 2]", got[1:])
	}
}

// TestStopFailsQueued: stopping a batcher fails queued requests with the
// retry sentinel instead of hanging them, and refuses later arrivals.
func TestStopFailsQueued(t *testing.T) {
	ad := &stubAdapter{key: "K", delay: 20 * time.Millisecond}
	b := newBatcher("K", ad, 1, 1, nil)

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
	b := newBatcher("K", ad, 1, 1, obs.NewRecorder(metrics, nil))
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
	b := newBatcher("K", &stubAdapter{key: "K"}, 2, 2, nil)
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
