// Package serve is the inference service of the reproduction: an HTTP JSON
// API fronting a bounded registry of adapted models. KnowTrans's premise is
// cheap per-dataset adaptation, which in production means many adapted
// variants alive at once behind one endpoint — the multi-adapter serving
// shape of S-LoRA/Punica. The package provides three layers:
//
//   - Registry: a bounded LRU of core.Adapted models keyed by task/dataset,
//     with coalesced cold starts (exactly one Transfer per cold key, however
//     many requests race for it) and panic-safe build slots.
//   - batcher: one micro-batching predict loop per resident adapter, which
//     drains queued requests into batches before touching the model and
//     keeps up to GOMAXPROCS of them in flight at once.
//   - Server: the HTTP surface (POST /v1/predict, POST+GET /v1/adapters,
//     /healthz, /metrics.json) with per-request deadlines.
//
// Everything is instrumented through internal/obs: serve.request /
// serve.transfer / serve.batch spans, queue-depth and batch-size
// histograms, and registry hit/miss/eviction counters.
package serve

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/data"
	"repro/internal/obs"
	"repro/internal/obs/profile"
)

// Adapter is what the registry holds per key: the narrow predict face of a
// core.Adapted model (which satisfies it directly). PredictBatch answers a
// whole micro-batch in one forward pass and must return exactly one answer
// per instance, in order. It must be safe for concurrent calls — the batcher
// keeps several batches of one adapter in flight — and the returned slice
// belongs to the caller.
type Adapter interface {
	PredictBatch(ctx context.Context, ins []*data.Instance) []string
}

// Transferer builds the adapted model for one registry key ("EM/Walmart-
// Amazon"). The registry guarantees at most one concurrent call per key.
// Implementations signal an unknown key by returning an error wrapping
// ErrUnknownKey, which the HTTP layer maps to 404.
type Transferer func(ctx context.Context, key string) (Adapter, error)

// ErrUnknownKey marks a key no adapter can be built for.
var ErrUnknownKey = errors.New("serve: unknown adapter key")

// errBatcherStopped is the internal retry signal for the eviction race: the
// entry a request resolved was evicted before the request reached its
// queue. The registry re-resolves (rebuilding the adapter if needed).
var errBatcherStopped = errors.New("serve: batcher stopped")

// Options configures a Registry/Server. The zero value is usable; unset
// fields take the defaults documented per field.
type Options struct {
	// MaxAdapters bounds the number of resident adapters (LRU eviction
	// beyond it). Default 8.
	MaxAdapters int
	// MaxBatch is the per-adapter micro-batch cap. Default 8; 1 disables
	// batching (every request is its own batch). A full batch leaves on any
	// free lane; a non-full one leaves once nothing of its adapter is in
	// flight, so no request waits on a clock.
	MaxBatch int
	// RequestTimeout is the per-request deadline the server applies on top
	// of the client's context. Default 60s; negative disables.
	RequestTimeout time.Duration
	// MaxInflight sheds predict requests with 429 + Retry-After once more
	// than this many HTTP requests are in flight. Default 0: unlimited.
	MaxInflight int
	// Rec threads observability through the service. Nil disables it at
	// zero cost.
	Rec *obs.Recorder
	// AccessLog receives one structured line per HTTP request (trace ID,
	// route, status, adapter key, batch size, queue wait, latency). Nil
	// disables access logging.
	AccessLog *slog.Logger
	// SlowRequest is the latency beyond which the access-log line is
	// escalated to Warn with slow=true. Default 1s; negative disables the
	// escalation.
	SlowRequest time.Duration
	// Profiles, when set, is poked on slow requests (those past
	// SlowRequest) so "why was that slow" arrives with a CPU+heap capture
	// of the moment it happened. Nil disables triggered captures.
	Profiles *profile.Trigger
}

// WithDefaults fills the unset fields with their documented defaults: the
// one place they are stated (the CLI's flag defaults are read from here).
func (o Options) WithDefaults() Options {
	if o.MaxAdapters <= 0 {
		o.MaxAdapters = 8
	}
	if o.MaxBatch <= 0 {
		o.MaxBatch = 8
	}
	if o.RequestTimeout == 0 {
		o.RequestTimeout = 60 * time.Second
	}
	if o.SlowRequest == 0 {
		o.SlowRequest = time.Second
	}
	return o
}

// KeyStats are the per-key registry counters, kept across eviction so
// "exactly one Transfer per adapter" stays provable after churn.
type KeyStats struct {
	Key       string `json:"key"`
	Resident  bool   `json:"resident"`
	Loading   bool   `json:"loading"`
	Transfers int64  `json:"transfers"`
	Requests  int64  `json:"requests"`
	Hits      int64  `json:"hits"`
	Misses    int64  `json:"misses"`
	Errors    int64  `json:"errors"`
}

// Registry is the bounded adapter cache: at most MaxAdapters core.Adapted
// models resident at once, least-recently-used evicted first. Concurrent
// requests for a cold key coalesce onto one in-flight Transfer — the same
// publish-and-wake discipline as eval's Zoo.memo, with a closed channel as
// the broadcast so waiters stay responsive to their own context. A build
// slot is released under defer even when the Transfer panics, so a crashed
// build fails its waiters instead of wedging every later request for the
// key.
type Registry struct {
	transfer Transferer
	opts     Options
	rec      *obs.Recorder

	mu       sync.Mutex
	ready    map[string]*entry
	inflight map[string]*flight
	stats    map[string]*KeyStats
	clock    uint64 // LRU tick; monotone under mu
}

type entry struct {
	key     string
	ad      Adapter
	bat     *batcher
	lastUse uint64
}

// flight is one in-progress Transfer; done is closed exactly once after ad/
// err are set and the result (on success) is installed.
type flight struct {
	done chan struct{}
	ad   Adapter
	err  error
}

// NewRegistry builds a registry over a transferer.
// Registry is the local Resolver: the server can front it directly or
// front internal/cluster's Router, which resolves over remote registries.
var _ Resolver = (*Registry)(nil)

func NewRegistry(t Transferer, opts Options) *Registry {
	opts = opts.WithDefaults()
	return &Registry{
		transfer: t,
		opts:     opts,
		rec:      opts.Rec,
		ready:    map[string]*entry{},
		inflight: map[string]*flight{},
		stats:    map[string]*KeyStats{},
	}
}

// statLocked returns the per-key counters, creating them on first use.
// Callers hold r.mu.
func (r *Registry) statLocked(key string) *KeyStats {
	s, ok := r.stats[key]
	if !ok {
		s = &KeyStats{Key: key}
		r.stats[key] = s
	}
	return s
}

// Predict answers one instance with the adapter for key, transferring it
// first when cold (cold reports that this request found the adapter
// non-resident). The request rides the adapter's micro-batch loop; if the
// adapter is evicted between resolution and enqueue, the request
// transparently re-resolves.
func (r *Registry) Predict(ctx context.Context, key string, in *data.Instance) (ans string, cold bool, err error) {
	for {
		e, c, err := r.get(ctx, key)
		cold = cold || c
		if err != nil {
			return "", cold, err
		}
		ans, err := e.bat.predict(ctx, in)
		if errors.Is(err, errBatcherStopped) {
			continue
		}
		return ans, cold, err
	}
}

// Warm ensures the adapter for key is resident, reporting whether this call
// had to wait for a Transfer (its own or a coalesced one).
func (r *Registry) Warm(ctx context.Context, key string) (cold bool, err error) {
	_, cold, err = r.get(ctx, key)
	return cold, err
}

// get resolves the resident entry for key, building it when cold. cold
// reports whether this call found the key non-resident (a miss, whether it
// ran the Transfer itself or coalesced onto another request's flight).
func (r *Registry) get(ctx context.Context, key string) (e *entry, cold bool, err error) {
	if err := ctx.Err(); err != nil {
		return nil, false, err
	}
	first := true
	// classifyLocked accounts the first resolution outcome of this call;
	// retries around eviction races are not re-counted. Callers hold r.mu;
	// the obs counter is atomic, so bumping it under the lock is fine.
	classifyLocked := func(hit bool) {
		if !first {
			return
		}
		first = false
		st := r.statLocked(key)
		st.Requests++
		if hit {
			st.Hits++
			r.rec.Count("serve.registry_hit", 1)
		} else {
			st.Misses++
			r.rec.Count("serve.registry_miss", 1)
			cold = true
		}
	}
	for {
		r.mu.Lock()
		if e, ok := r.ready[key]; ok {
			r.clock++
			e.lastUse = r.clock
			classifyLocked(true)
			r.mu.Unlock()
			return e, cold, nil
		}
		if f, ok := r.inflight[key]; ok {
			classifyLocked(false)
			r.mu.Unlock()
			select {
			case <-f.done:
			case <-ctx.Done():
				return nil, cold, ctx.Err()
			}
			if f.err != nil {
				return nil, cold, f.err
			}
			// Installed (or already evicted again): re-resolve.
			continue
		}
		// Miss with no flight: this goroutine owns the build; everyone else
		// arriving before it finishes coalesces onto the flight above.
		f := &flight{done: make(chan struct{})}
		r.inflight[key] = f
		classifyLocked(false)
		r.mu.Unlock()
		r.build(ctx, key, f)
		if f.err != nil {
			return nil, cold, f.err
		}
	}
}

// build runs the Transfer for one flight and publishes the result. It runs
// on the triggering requester's goroutine but under a context detached from
// that request, with no deadline: coalesced waiters must not inherit the
// first requester's deadline. reqCtx is used for span linkage
// only — the serve.transfer span links the triggering request's span, so a
// request that paid a cold start stays attributable — never for
// cancellation. The slot is released and waiters woken under defer, so a
// panicking Transfer fails its waiters (they see the panic as an error)
// instead of wedging the key.
func (r *Registry) build(reqCtx context.Context, key string, f *flight) {
	_, span := r.rec.StartSpan("serve.transfer")
	span.SetAttr("key", key)
	if rs := obs.SpanFromContext(reqCtx); rs != nil {
		span.Link(rs.Context())
	}
	defer func() {
		if p := recover(); p != nil {
			f.err = fmt.Errorf("serve: transfer %q panicked: %v", key, p)
		}
		span.SetAttr("error", f.err != nil)
		span.End()
		r.mu.Lock()
		delete(r.inflight, key)
		st := r.statLocked(key)
		if f.err == nil {
			st.Transfers++
			r.installLocked(key, f.ad)
		} else {
			st.Errors++
		}
		r.mu.Unlock()
		if f.err == nil {
			r.rec.Count("serve.transfers", 1)
		} else {
			r.rec.Count("serve.transfer_errors", 1)
		}
		close(f.done)
	}()
	// The transfer runs under pprof labels so CPU samples burned on cold
	// starts are attributable to the key that paid for them.
	var ad Adapter
	var err error
	profile.Do(context.Background(), func(ctx context.Context) {
		ad, err = r.transfer(ctx, key)
	}, profile.LabelKey, key, profile.LabelPhase, "transfer")
	if err == nil && ad == nil {
		err = fmt.Errorf("serve: transferer returned no adapter for %q", key)
	}
	f.ad, f.err = ad, err
}

// installLocked makes an adapter resident and evicts past the LRU bound.
// Callers hold r.mu. Evicted batchers are stopped off the lock — they may
// need to drain queued requests first, and those requests re-resolve.
func (r *Registry) installLocked(key string, ad Adapter) {
	r.clock++
	e := &entry{
		key:     key,
		ad:      ad,
		lastUse: r.clock,
		bat:     newBatcher(key, ad, r.opts.MaxBatch, runtime.GOMAXPROCS(0), r.rec),
	}
	r.ready[key] = e
	for len(r.ready) > r.opts.MaxAdapters {
		var victim *entry
		for _, cand := range r.ready {
			if victim == nil || cand.lastUse < victim.lastUse {
				victim = cand
			}
		}
		delete(r.ready, victim.key)
		r.statLocked(victim.key) // ensure the row survives for snapshots
		r.rec.Count("serve.registry_eviction", 1)
		go victim.bat.stop()
	}
}

// Snapshot reports every key the registry has seen, resident or not,
// sorted by key for stable output.
func (r *Registry) Snapshot() []KeyStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]KeyStats, 0, len(r.stats))
	for key, st := range r.stats {
		row := *st
		_, row.Resident = r.ready[key]
		_, row.Loading = r.inflight[key]
		out = append(out, row)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// Resident returns the number of resident adapters.
func (r *Registry) Resident() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.ready)
}

// Evict drops key's resident adapter on demand (DELETE /v1/adapters/{key}).
// The per-key counters survive, exactly as they do across LRU eviction, so
// "one Transfer per adapter" stays provable after an explicit drop; a later
// request for the key simply runs a fresh cold start. Reports false for a
// key that is known but not resident, ErrUnknownKey for one never seen.
func (r *Registry) Evict(_ context.Context, key string) (bool, error) {
	if err := ValidateKey(key); err != nil {
		return false, err
	}
	r.mu.Lock()
	e, resident := r.ready[key]
	_, loading := r.inflight[key]
	_, known := r.stats[key]
	if resident {
		delete(r.ready, key)
		r.rec.Count("serve.registry_eviction", 1)
	}
	r.mu.Unlock()
	if resident {
		// Stop off the lock, as in installLocked: the batcher may need to
		// drain queued requests first (they re-resolve), and stop retires
		// the key's queue-depth gauge.
		e.bat.stop()
	}
	if !resident && !loading && !known {
		return false, fmt.Errorf("%w: no adapter state for %q", ErrUnknownKey, key)
	}
	return resident, nil
}

// Close stops the batcher of every resident adapter and waits for its
// goroutines to exit: the last step of a drain, once no request is in
// flight, so a drained process holds no serving goroutines whatever its core
// count or adapter count. Per-key counters survive, as on eviction; a later
// request would simply cold-start again.
func (r *Registry) Close() {
	r.mu.Lock()
	ready := r.ready
	r.ready = map[string]*entry{}
	r.mu.Unlock()
	for _, e := range ready {
		e.bat.stop()
	}
}
