package serve

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"time"

	"repro/internal/data"
	"repro/internal/obs"
	"repro/internal/obs/profile"
)

// predictReq is one queued prediction: the instance, the requester's
// context (checked again at serve time so abandoned work is shed), and a
// one-slot reply channel.
type predictReq struct {
	ctx  context.Context
	in   *data.Instance
	resp chan predictResp
	enq  time.Time
}

type predictResp struct {
	ans string
	err error
}

// sizeBounds are the histogram bounds for the small-count distributions of
// the service (queue depth, batch size): roughly 1-1.5-2 steps out to 256,
// where the latency bounds' decade steps would collapse everything into two
// buckets.
var sizeBounds = []float64{0, 1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128, 192, 256}

// batcher is the per-adapter micro-batching predict loop. Requests enqueue
// under a mutex, and the lanes — serving goroutines, GOMAXPROCS of them as
// the registry sets it — cut the queue into batches of at most maxBatch
// themselves: a free lane waits under that mutex until the batching rule
// lets a batch leave, takes it into its own scratch and answers it with ONE
// Adapter.PredictBatch call. So up to one batch per lane is in flight.
//
// When a batch leaves is Nagle's rule (RFC 896) applied to rows: a batch is
// cut when the queue holds maxBatch rows or when no batch of this adapter is
// in flight. An idle adapter answers a lone request at once, and rows
// coalesce only behind a forward that is running — whose end, not a clock,
// releases them. So the rule needs no timer, and a non-full batch never
// starts beside another batch of the same batcher. Only an enqueue that makes
// the rule hold wakes a waiting lane; a lane that finishes a batch wakes no
// one, it tests the rule again itself.
//
// The enqueue path checks the stopped flag under the same mutex that stop
// sets it, so after stop returns no new request can slip into the queue:
// everything queued is failed with errBatcherStopped (the registry's retry
// signal) and later arrivals are refused at the door. The per-key depth
// gauge is written only under that mutex too, which is what lets stop
// retire the gauge without racing a late enqueue's write.
type batcher struct {
	key      string
	ad       Adapter
	maxBatch int
	rec      *obs.Recorder
	// depthGauge is the per-key queue depth gauge name, precomputed so the
	// enqueue hot path does no string concatenation.
	depthGauge string

	mu    sync.Mutex
	queue []*predictReq
	// inFlight counts the batches cut and not yet answered: a lane
	// increments it as it cuts one and decrements it after the batch's
	// PredictBatch has returned.
	inFlight int
	stopped  bool
	// cut (on mu) is where free lanes wait for the batching rule or stop.
	cut   sync.Cond
	lanes sync.WaitGroup
}

// lane is the scratch one serving goroutine reuses across its batches.
type lane struct {
	batch []*predictReq
	live  []*predictReq
	ins   []*data.Instance
}

// newBatcher starts lanes serving goroutines (at least one). The registry
// passes runtime.GOMAXPROCS(0) — more forwards than cores cannot overlap —
// and tests pin the count.
func newBatcher(key string, ad Adapter, maxBatch, lanes int, rec *obs.Recorder) *batcher {
	b := &batcher{
		key:        key,
		ad:         ad,
		maxBatch:   maxBatch,
		rec:        rec,
		depthGauge: "serve.queue_depth/" + key,
	}
	b.cut.L = &b.mu
	b.lanes.Add(lanes)
	for i := 0; i < lanes; i++ {
		go b.run()
	}
	return b
}

// ready is the batching rule (see batcher): short of a full batch, a row
// waits while a forward runs. b.mu must be held.
func (b *batcher) ready() bool {
	pending := len(b.queue)
	return pending >= b.maxBatch || (pending > 0 && b.inFlight == 0)
}

// predict enqueues one instance and waits for its batch to be served. A
// stopped batcher (the adapter was evicted) returns errBatcherStopped,
// which Registry.Predict treats as "re-resolve and retry".
func (b *batcher) predict(ctx context.Context, in *data.Instance) (string, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	r := &predictReq{ctx: ctx, in: in, resp: make(chan predictResp, 1), enq: time.Now()}
	b.mu.Lock()
	if b.stopped {
		b.mu.Unlock()
		return "", errBatcherStopped
	}
	b.queue = append(b.queue, r)
	depth := len(b.queue)
	b.rec.SetGauge(b.depthGauge, float64(depth))
	wake := b.ready()
	b.mu.Unlock()
	b.rec.Observe("serve.queue_depth", float64(depth), sizeBounds)
	if wake {
		b.cut.Signal()
	}
	// The lanes own the request from here: even if this requester gives up,
	// the batch will answer into the buffered resp channel and move on.
	select {
	case resp := <-r.resp:
		return resp.ans, resp.err
	case <-ctx.Done():
		return "", ctx.Err()
	}
}

// halt refuses new requests, fails everything still queued and retires the
// per-key depth gauge (an evicted key must disappear from /metrics.json, not
// linger as a stale series); the lanes finish the batches in flight and exit
// by themselves. Queued requesters get errBatcherStopped and transparently
// re-resolve through the registry. Only the first call acts. The registry
// halts a batcher under its own lock, before the key can get a new batcher,
// so no retirement can land on a successor's gauge.
func (b *batcher) halt() {
	b.mu.Lock()
	if b.stopped {
		b.mu.Unlock()
		return
	}
	b.stopped = true
	q := b.queue
	b.queue = nil
	// Every gauge write happens under b.mu with stopped false, so none
	// follows this one.
	b.rec.DeleteGauge(b.depthGauge)
	b.mu.Unlock()
	b.cut.Broadcast()
	for _, r := range q {
		r.resp <- predictResp{err: errBatcherStopped}
	}
}

// stop halts the batcher and waits for every batch in flight to be answered
// and the lanes to exit.
func (b *batcher) stop() {
	b.halt()
	b.lanes.Wait()
}

// run is one lane: wait until the batching rule lets a batch leave, take it
// into the lane's scratch, serve it, repeat until stopped.
func (b *batcher) run() {
	defer b.lanes.Done()
	var ln lane
	b.mu.Lock()
	for {
		for !b.stopped && !b.ready() {
			b.cut.Wait()
		}
		if b.stopped {
			b.mu.Unlock()
			return
		}
		// Close the gap in place: the queue keeps its backing array, and the
		// vacated tail is cleared so it does not pin requests already taken.
		n := min(len(b.queue), b.maxBatch)
		ln.batch = append(ln.batch[:0], b.queue[:n]...)
		rest := copy(b.queue, b.queue[n:])
		clear(b.queue[rest:])
		b.queue = b.queue[:rest]
		b.inFlight++
		b.rec.SetGauge(b.depthGauge, float64(rest))
		b.mu.Unlock()
		b.serve(&ln)
		b.mu.Lock()
		b.inFlight--
	}
}

// serve answers the batch on ln, on its lane. Requests whose
// context already expired are shed without touching the model, and the
// survivors are answered by ONE PredictBatch call, which may run beside the
// other lanes' (Adapter is safe for concurrent calls). An adapter that
// returns the wrong number of answers has broken its contract: every live
// member of that batch fails with one error (a 502 through the ordinary
// envelope); other lanes' batches and the next one on this lane are
// unaffected.
//
// The serve.batch span lives in its own trace — batching is shared work, so
// it belongs to no single request — and instead *links* every member
// request's span, the OTel link idiom for amortized execution. Each member's
// queue wait is annotated onto its own request span and fed back to the
// access log through the requestInfo carrier, so "my request was slow" and
// "the batch it rode was busy" stay connected.
func (b *batcher) serve(ln *lane) {
	batch := ln.batch
	_, span := b.rec.StartSpan("serve.batch")
	span.SetAttr("key", b.key)
	span.SetAttr("size", len(batch))
	b.rec.Observe("serve.batch_size", float64(len(batch)), sizeBounds)
	batchLabel := strconv.Itoa(len(batch))
	live := ln.live[:0]
	for _, r := range batch {
		queueUS := time.Since(r.enq).Microseconds()
		if rs := obs.SpanFromContext(r.ctx); rs != nil {
			span.Link(rs.Context())
			rs.SetAttr("queue_us", queueUS)
		}
		if ri := requestInfoFrom(r.ctx); ri != nil {
			ri.batchSize.Store(int64(len(batch)))
			ri.queueUS.Store(queueUS)
		}
		if err := r.ctx.Err(); err != nil {
			r.resp <- predictResp{err: err}
			b.rec.Count("serve.shed", 1)
			continue
		}
		live = append(live, r)
	}
	ln.live = live[:0] // retain grown scratch for the next batch
	if len(live) > 0 {
		ins := ln.ins[:0]
		for _, r := range live {
			ins = append(ins, r.in)
		}
		ln.ins = ins[:0]
		ps := span.StartChild("serve.predict")
		ps.SetAttr("size", len(live))
		// One forward under pprof labels; the batch runs on behalf of every
		// member, so it is labeled but not cancellable by any single
		// requester (expired members were already shed above).
		var answers []string
		profile.Do(context.Background(), func(ctx context.Context) {
			answers = b.ad.PredictBatch(ctx, ins)
		}, profile.LabelKey, b.key, profile.LabelBatch, batchLabel)
		ps.End()
		if len(answers) != len(live) {
			err := fmt.Errorf("serve: adapter %q returned %d answers for a batch of %d", b.key, len(answers), len(live))
			for _, r := range live {
				r.resp <- predictResp{err: err}
			}
		} else {
			for i, r := range live {
				r.resp <- predictResp{ans: answers[i]}
			}
		}
	}
	b.rec.Count("serve.batches", 1)
	span.End()
}
