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
// under a mutex; a single dispatcher goroutine (run) drains the queue into
// batches of at most maxBatch and hands each batch on a lane to a serving
// goroutine, which answers it with ONE Adapter.PredictBatch call. There are
// as many lanes as serving goroutines, and the dispatcher takes a free lane
// before it looks at the queue, so up to that many batches are in flight.
//
// When a batch leaves is Nagle's rule (RFC 896) applied to rows: with a lane
// free, a batch is cut when the queue holds maxBatch rows or when no batch of
// this adapter is in flight. An idle adapter answers a lone request at once,
// and rows coalesce only behind a forward that is running — whose end, not a
// clock, releases them. So the rule needs no timer, and a non-full batch never
// starts beside another batch of the same batcher.
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
	// inFlight counts the batches cut and not yet answered: the dispatcher
	// increments it as it cuts one, the serving goroutine decrements it after
	// the batch's PredictBatch has returned.
	inFlight int
	stopped  bool

	// wake (capacity 1) nudges the loop after an enqueue and freed (capacity
	// 1) after a batch in flight is answered; coalesced nudges are fine
	// because the loop re-reads the queue and inFlight under the mutex. stopc
	// unblocks the loop's waits on stop; done closes when the loop and every
	// serving goroutine have exited.
	wake  chan struct{}
	freed chan struct{}
	stopc chan struct{}
	done  chan struct{}

	// idle holds the lanes with no batch in flight (its capacity is the lane
	// count, so returning one never blocks); work carries a lane with a
	// formed batch to whichever serving goroutine is free, and serving counts
	// those goroutines for stop.
	idle    chan *lane
	work    chan *lane
	serving sync.WaitGroup
}

// lane is one batch in flight and the scratch serve reuses across the
// batches that ride it. The dispatcher owns a lane between taking it off idle
// and sending it on work; the serving goroutine that receives it owns it
// until it puts it back on idle.
type lane struct {
	batch []*predictReq
	live  []*predictReq
	ins   []*data.Instance
}

// newBatcher starts the dispatcher and lanes serving goroutines (at least
// one). The registry passes runtime.GOMAXPROCS(0) — more forwards than cores
// cannot overlap — and tests pin the count.
func newBatcher(key string, ad Adapter, maxBatch, lanes int, rec *obs.Recorder) *batcher {
	b := &batcher{
		key:        key,
		ad:         ad,
		maxBatch:   maxBatch,
		rec:        rec,
		depthGauge: "serve.queue_depth/" + key,
		wake:       make(chan struct{}, 1),
		freed:      make(chan struct{}, 1),
		stopc:      make(chan struct{}),
		done:       make(chan struct{}),
		idle:       make(chan *lane, lanes),
		work:       make(chan *lane),
	}
	b.serving.Add(lanes)
	for i := 0; i < lanes; i++ {
		b.idle <- &lane{}
		go func() {
			defer b.serving.Done()
			for ln := range b.work {
				b.serve(ln)
				b.idle <- ln
				b.mu.Lock()
				b.inFlight--
				b.mu.Unlock()
				select {
				case b.freed <- struct{}{}:
				default:
				}
			}
		}()
	}
	go b.run()
	return b
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
	b.mu.Unlock()
	b.rec.Observe("serve.queue_depth", float64(depth), sizeBounds)
	select {
	case b.wake <- struct{}{}:
	default:
	}
	// The loop owns the request from here: even if this requester gives up,
	// the batch will answer into the buffered resp channel and move on.
	select {
	case resp := <-r.resp:
		return resp.ans, resp.err
	case <-ctx.Done():
		return "", ctx.Err()
	}
}

// stop refuses new requests, fails everything still queued, waits for every
// batch in flight to be answered and the goroutines to exit, and retires the
// per-key depth gauge (an evicted key must disappear from /metrics.json, not
// linger as a stale series). Queued requesters get errBatcherStopped and
// transparently re-resolve through the registry.
func (b *batcher) stop() {
	b.mu.Lock()
	if b.stopped {
		b.mu.Unlock()
	} else {
		b.stopped = true
		b.mu.Unlock()
		close(b.stopc)
	}
	<-b.done
	// Safe against enqueue races: every gauge write happens under b.mu with
	// stopped false, which happens-before the loop exit observed above.
	b.rec.DeleteGauge(b.depthGauge)
}

// run is the dispatcher, the queue's only consumer: take a free lane, wait
// until the batching rule lets a batch leave, move the batch onto the lane,
// repeat until stopped.
func (b *batcher) run() {
	defer close(b.done)
	var ln *lane // the free lane the next batch goes to
	for {
		if ln == nil {
			select {
			case ln = <-b.idle:
			case <-b.stopc:
			}
		}
		b.mu.Lock()
		if b.stopped {
			q := b.queue
			b.queue = nil
			b.mu.Unlock()
			for _, r := range q {
				r.resp <- predictResp{err: errBatcherStopped}
			}
			// Each serving goroutine finishes the batch it holds, if any.
			close(b.work)
			b.serving.Wait()
			return
		}
		// The batching rule (see batcher): short of a full batch, wait while
		// a forward runs; its end or the next arrival re-checks.
		if pending := len(b.queue); pending == 0 || (pending < b.maxBatch && b.inFlight > 0) {
			b.mu.Unlock()
			select {
			case <-b.wake:
			case <-b.freed:
			case <-b.stopc:
			}
			continue
		}

		// Take the batch into the lane's scratch and close the gap in place:
		// the queue keeps its backing array, and the vacated tail is cleared
		// so it does not pin requests already handed off.
		n := min(len(b.queue), b.maxBatch)
		ln.batch = append(ln.batch[:0], b.queue[:n]...)
		rest := copy(b.queue, b.queue[n:])
		clear(b.queue[rest:])
		b.queue = b.queue[:rest]
		b.inFlight++
		b.rec.SetGauge(b.depthGauge, float64(rest))
		b.mu.Unlock()
		b.work <- ln
		ln = nil
	}
}

// serve answers the batch on ln, on a serving goroutine. Requests whose
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
