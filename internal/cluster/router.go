package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/data"
	"repro/internal/obs"
	"repro/internal/resilience"
	"repro/internal/serve"
)

// Options configures a Router. The zero value is unusable (no backends);
// every other unset field takes the default documented on it.
type Options struct {
	// Backends are the base URLs of the `knowtrans serve` fleet
	// ("http://10.0.0.7:8080"). Required.
	Backends []string
	// Replication is how many distinct backends own each key (primary +
	// replicas, default 2, clamped to len(Backends)). Replicas are the
	// hedging/failover targets and the takeover set when the primary dies.
	Replication int
	// ProbeInterval is the base period between /readyz probes per backend
	// (default 500ms).
	ProbeInterval time.Duration
	// HedgeDelay fixes the backup-request delay. Default 0: derive it per
	// request from the observed p95 router latency, clamped to
	// [hedgeMin, hedgeMax]. Negative disables hedging.
	HedgeDelay time.Duration
	// Seed drives probe jitter; same seed, same probe schedule.
	Seed int64
	// Rec threads observability through the router. Nil disables it.
	Rec *obs.Recorder
	// Client, when non-nil, overrides the backend HTTP client (tests).
	Client *http.Client
}

// Fixed policy: no caller ever chose any of these, so none is an option.
const (
	vnodes          = 64               // virtual nodes per backend on the ring
	failThreshold   = 2                // consecutive probe failures that eject a backend (it rejoins on its first success)
	hedgeMin        = time.Millisecond // clamp of the p95-derived hedge delay
	hedgeMax        = time.Second
	retryBudget     = 2                // extra attempts (hedges + failovers) per request: at most 1+retryBudget backend calls
	attemptTimeout  = 60 * time.Second // one backend HTTP call
	breakerCooldown = 8                // calls an open breaker counts off before a trial (resilience.BreakerConfig.Cooldown)
	warmReplicas    = 2                // owners one Warm call fans to, in attempt order: enough to survive a primary death without paying every owner's Transfer
	probeTimeout    = 2 * time.Second  // one /readyz probe, and one Snapshot fan-out
	latRefreshEvery = 32               // latencies between recomputations of the hedge delay's p95
)

// WithDefaults fills the unset fields with their documented defaults: the
// one place they are stated (the CLI's flag defaults are read from here).
func (o Options) WithDefaults() Options {
	if o.Replication <= 0 {
		o.Replication = 2
	}
	if len(o.Backends) > 0 && o.Replication > len(o.Backends) {
		o.Replication = len(o.Backends)
	}
	if o.ProbeInterval <= 0 {
		o.ProbeInterval = 500 * time.Millisecond
	}
	return o
}

// backendState is everything the router tracks per backend: membership
// (healthy flag driven by the probe loop), a circuit breaker fed by real
// request outcomes, and the counters Stats reports.
type backendState struct {
	url     string
	breaker *resilience.Breaker

	healthy    atomic.Bool
	probeFails int // owned by the probe loop goroutine

	requests atomic.Int64
	failures atomic.Int64
	resident atomic.Int64 // last /readyz resident reading
}

// Router consistent-hashes adapter keys onto the backend fleet and speaks
// the serve HTTP API to the owners, with hedging and failover. It
// implements serve.Resolver, so serve.NewServer(router, opts) exposes the
// exact same endpoints a single backend does.
type Router struct {
	opts   Options
	rec    *obs.Recorder
	ring   *Ring
	byURL  map[string]*backendState
	order  []*backendState
	client *http.Client
	stopc  chan struct{}
	wg     sync.WaitGroup

	lat latWindow

	hedges    atomic.Int64
	failovers atomic.Int64
	ejections atomic.Int64
	rejoins   atomic.Int64
	requests  atomic.Int64
}

var _ serve.Resolver = (*Router)(nil)
var _ serve.ReadyChecker = (*Router)(nil)

// New builds a router over opts.Backends and starts one health-probe loop
// per backend. Backends start optimistically healthy (requests fail over
// on contact anyway); the first probe round corrects the picture within
// ProbeInterval. Call Close to stop probing.
func New(opts Options) (*Router, error) {
	opts = opts.WithDefaults()
	if len(opts.Backends) == 0 {
		return nil, fmt.Errorf("cluster: no backends")
	}
	seen := map[string]bool{}
	for _, u := range opts.Backends {
		if u == "" || seen[u] {
			return nil, fmt.Errorf("cluster: empty or duplicate backend %q", u)
		}
		seen[u] = true
	}
	r := &Router{
		opts:   opts,
		rec:    opts.Rec,
		ring:   NewRing(opts.Backends, vnodes),
		byURL:  make(map[string]*backendState, len(opts.Backends)),
		client: opts.Client,
		stopc:  make(chan struct{}),
	}
	if r.client == nil {
		r.client = &http.Client{Timeout: attemptTimeout}
	}
	for _, u := range opts.Backends {
		b := &backendState{url: u}
		b.breaker = resilience.NewBreaker(resilience.BreakerConfig{
			Cooldown: breakerCooldown,
			OnState: func(s resilience.State) {
				r.rec.SetGauge("cluster.breaker_state/"+u, float64(s))
			},
			OnTrip: func() { r.rec.Count("cluster.breaker_trips", 1) },
		})
		b.healthy.Store(true)
		r.rec.SetGauge("cluster.backend_healthy/"+u, 1)
		r.byURL[u] = b
		r.order = append(r.order, b)
	}
	// Probes read r.order and r.byURL, so they start only once both are built.
	for i, b := range r.order {
		r.wg.Add(1)
		go r.probeLoop(b, opts.Seed+int64(i))
	}
	r.rec.SetGauge("cluster.backends_healthy", float64(len(r.order)))
	return r, nil
}

// Close stops the probe loops and closes the idle backend connections, so a
// drained router holds none of their goroutines. In-flight requests finish
// normally.
func (r *Router) Close() {
	close(r.stopc)
	r.wg.Wait()
	r.client.CloseIdleConnections()
}

// Ready implements serve.ReadyChecker: the router is ready while at least
// one backend is healthy.
func (r *Router) Ready() error {
	for _, b := range r.order {
		if b.healthy.Load() {
			return nil
		}
	}
	return fmt.Errorf("cluster: no healthy backends (%d total)", len(r.order))
}

// Owners returns key's owner set in ring order (primary first), health
// ignored — the static placement.
func (r *Router) Owners(key string) []string {
	return r.ring.Owners(key, r.opts.Replication)
}

// candidates returns key's owners in attempt order: healthy backends whose
// breaker isn't open first (ring order preserved), then the rest as last
// resorts — when every owner looks down, trying one beats failing without
// trying, and a success heals the breaker.
func (r *Router) candidates(key string) []*backendState {
	owners := r.ring.Owners(key, r.opts.Replication)
	var live, rest []*backendState
	for _, u := range owners {
		b := r.byURL[u]
		if b.healthy.Load() && b.breaker.State() != resilience.StateOpen {
			live = append(live, b)
		} else {
			rest = append(rest, b)
		}
	}
	return append(live, rest...)
}

// targets validates key and returns its owners in attempt order, at most
// budget of them (budget <= 0: all).
func (r *Router) targets(key string, budget int) ([]*backendState, error) {
	if err := serve.ValidateKey(key); err != nil {
		return nil, err
	}
	cands := r.candidates(key)
	if len(cands) == 0 {
		return nil, fmt.Errorf("cluster: no backends own %q", key)
	}
	if budget > 0 && budget < len(cands) {
		cands = cands[:budget]
	}
	return cands, nil
}

// Predict implements serve.Resolver over the owner set: attempt the first
// candidate, hedge to the next after the p95-derived delay, fail over on
// transient errors, first success wins, losers are cancelled. Terminal
// errors (unknown key, bad key) abort immediately — every replica would
// say the same thing.
func (r *Router) Predict(ctx context.Context, key string, in *data.Instance) (string, bool, error) {
	cands, err := r.targets(key, 1+retryBudget)
	if err != nil {
		return "", false, err
	}
	delay := r.hedgeDelay()
	r.requests.Add(1)
	start := time.Now()
	res, out, err := resilience.Hedge(ctx, len(cands), delay,
		func(actx context.Context, i int) (serve.PredictResponse, error) {
			return r.predictOn(actx, cands[i], key, in)
		})
	r.lat.add(float64(time.Since(start).Microseconds()))
	if out.Hedges > 0 {
		r.hedges.Add(int64(out.Hedges))
	}
	if out.Failovers > 0 {
		r.failovers.Add(int64(out.Failovers))
	}
	if err != nil {
		return "", false, err
	}
	return res.Answer, res.Cold, nil
}

// predictOn runs one attempt against one backend, unless its breaker says
// not to. Every attempt gets a cluster.attempt child span of the caller's
// request span and forwards its traceparent, so a hedged request renders
// as one trace with both attempts.
func (r *Router) predictOn(ctx context.Context, b *backendState, key string, in *data.Instance) (serve.PredictResponse, error) {
	var pr serve.PredictResponse
	if err := b.breaker.Allow(); err != nil {
		return pr, fmt.Errorf("cluster: backend %s: %w", b.url, err)
	}
	var span *obs.Span
	if parent := obs.SpanFromContext(ctx); parent != nil {
		span = parent.StartChild("cluster.attempt")
		span.SetAttr("backend", b.url)
		span.SetAttr("key", key)
		defer span.End()
	}
	err := r.call(ctx, b, span, http.MethodPost, "/v1/predict",
		serve.PredictRequest{Adapter: key, Instance: serve.WireFrom(in)}, &pr)
	return pr, err
}

// roundTrip is the only place the router issues an HTTP request: one
// serve.Call to b, forwarding span (when given) as the traceparent.
func (r *Router) roundTrip(ctx context.Context, b *backendState, span *obs.Span, method, path string, in, out any) error {
	var header http.Header
	if span != nil {
		header = http.Header{}
		header.Set(obs.TraceparentHeader, obs.FormatTraceparent(span.Context()))
	}
	return serve.Call(ctx, r.client, method, b.url+path, header, in, out)
}

// call is one round trip of request traffic — predict, warm, evict,
// snapshot — inside the per-backend request and failure accounts, and the
// only place a breaker verdict is decided:
//
//	answered, or refused for good (400, 404, any non-retryable status):
//	    the backend is fine — Success; a refusal is Terminal, since every
//	    replica would say the same
//	our own context ended (hedge loser, caller gone, caller's deadline):
//	    no verdict
//	anything else (transport error, 429/503/504/5xx, undecodable 2xx):
//	    Failure, retryable on a replica
//
// Health probes use roundTrip directly: membership and the breaker stay
// independent signals, so a backend that accepts probes but fails traffic
// still gets shed, and probes do not pass for traffic in the accounts.
func (r *Router) call(ctx context.Context, b *backendState, span *obs.Span, method, path string, in, out any) error {
	b.requests.Add(1)
	err := r.roundTrip(ctx, b, span, method, path, in, out)
	if err == nil {
		b.breaker.Success()
		return nil
	}
	var we *serve.WireError
	if errors.As(err, &we) && span != nil {
		span.SetAttr("status", we.Status)
	}
	switch {
	case we != nil && !we.Retryable:
		b.breaker.Success()
		return resilience.Terminal(fmt.Errorf("cluster: backend %s: %w", b.url, err))
	case ctx.Err() != nil:
		return ctx.Err()
	}
	b.breaker.Failure()
	b.failures.Add(1)
	if span != nil {
		span.SetAttr("error", true)
	}
	return fmt.Errorf("cluster: backend %s: %w", b.url, err)
}

// Warm implements serve.Resolver by fanning the warm out to the key's
// owners under the warmReplicas budget — replicas must be warm too, or the
// first hedge/failover after a primary death pays a cold start at the
// worst possible moment, but warming *every* owner of a wide replication
// factor just multiplies Transfer cost for owners that may never be
// contacted. Candidates are attempt-ordered (healthy first), so the budget
// lands on the backends that will actually field the traffic. Cold is
// reported if any warmed owner was cold; the first error is returned only
// when no owner succeeded.
func (r *Router) Warm(ctx context.Context, key string) (bool, error) {
	cands, err := r.targets(key, warmReplicas)
	if err != nil {
		return false, err
	}
	var cold, ok bool
	var firstErr error
	for _, b := range cands {
		var wr serve.WarmResponse
		if err := r.call(ctx, b, nil, http.MethodPost, "/v1/adapters", serve.WarmRequest{Key: key}, &wr); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		ok, cold = true, cold || wr.Cold
	}
	if !ok {
		return false, firstErr
	}
	return cold, nil
}

// Evict implements serve.Resolver by fanning DELETE /v1/adapters/{key} to
// every owner (no budget here: a partial eviction would leave stale
// replicas serving a key an operator asked to drop). Evicted is true if
// any owner dropped a resident adapter; ErrUnknownKey only when no owner
// failed and every one reported the key unseen.
func (r *Router) Evict(ctx context.Context, key string) (bool, error) {
	cands, err := r.targets(key, 0)
	if err != nil {
		return false, err
	}
	var evicted, ok bool
	var firstErr, unknown error
	for _, b := range cands {
		var er serve.EvictResponse
		switch err := r.call(ctx, b, nil, http.MethodDelete, "/v1/adapters/"+key, nil, &er); {
		case err == nil:
			ok, evicted = true, evicted || er.Evicted
		case errors.Is(err, serve.ErrUnknownKey):
			unknown = err
		case firstErr == nil:
			firstErr = err
		}
	}
	switch {
	case ok:
		return evicted, nil
	case firstErr != nil:
		return false, firstErr
	}
	return false, unknown
}

// Snapshot implements serve.Resolver: the union of every healthy backend's
// snapshot, counters summed per key (a key resident on two replicas counts
// both backends' traffic).
func (r *Router) Snapshot() []serve.KeyStats {
	ctx, cancel := context.WithTimeout(context.Background(), probeTimeout)
	defer cancel()
	merged := map[string]*serve.KeyStats{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, b := range r.order {
		if !b.healthy.Load() {
			continue
		}
		wg.Add(1)
		go func(b *backendState) {
			defer wg.Done()
			var ar serve.AdaptersResponse
			if r.call(ctx, b, nil, http.MethodGet, "/v1/adapters", nil, &ar) != nil {
				return
			}
			mu.Lock()
			defer mu.Unlock()
			for _, st := range ar.Adapters {
				m, ok := merged[st.Key]
				if !ok {
					c := st
					merged[st.Key] = &c
					continue
				}
				m.Resident = m.Resident || st.Resident
				m.Loading = m.Loading || st.Loading
				m.Transfers += st.Transfers
				m.Requests += st.Requests
				m.Hits += st.Hits
				m.Misses += st.Misses
				m.Errors += st.Errors
			}
		}(b)
	}
	wg.Wait()
	out := make([]serve.KeyStats, 0, len(merged))
	for _, st := range merged {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// Resident implements serve.Resolver: the fleet-wide resident count, from
// each backend's last /readyz probe reading (cheap, no fan-out).
func (r *Router) Resident() int {
	total := 0
	for _, b := range r.order {
		if b.healthy.Load() {
			total += int(b.resident.Load())
		}
	}
	return total
}

// BackendStat is one backend's live view in Stats.
type BackendStat struct {
	URL      string `json:"url"`
	Healthy  bool   `json:"healthy"`
	Requests int64  `json:"requests"`
	Failures int64  `json:"failures"`
	Resident int64  `json:"resident"`
	Breaker  string `json:"breaker"`
}

// RouterStats is the router's own counters — the route drill's evidence that
// hedging and failover actually happened.
type RouterStats struct {
	Requests  int64         `json:"requests"`
	Hedges    int64         `json:"hedges"`
	Failovers int64         `json:"failovers"`
	Ejections int64         `json:"ejections"`
	Rejoins   int64         `json:"rejoins"`
	Backends  []BackendStat `json:"backends"`
}

// Stats returns a snapshot of the router's counters and per-backend state.
func (r *Router) Stats() RouterStats {
	s := RouterStats{
		Requests:  r.requests.Load(),
		Hedges:    r.hedges.Load(),
		Failovers: r.failovers.Load(),
		Ejections: r.ejections.Load(),
		Rejoins:   r.rejoins.Load(),
	}
	for _, b := range r.order {
		s.Backends = append(s.Backends, BackendStat{
			URL:      b.url,
			Healthy:  b.healthy.Load(),
			Requests: b.requests.Load(),
			Failures: b.failures.Load(),
			Resident: b.resident.Load(),
			Breaker:  b.breaker.State().String(),
		})
	}
	return s
}

// latWindow is a fixed-size ring of recent request latencies with a
// cached p95, recomputed every refreshEvery inserts — cheap enough for the
// hot path, fresh enough to track load shifts.
type latWindow struct {
	mu     sync.Mutex
	buf    [512]float64
	n      int // total inserts
	cached float64
}

// add records one latency (µs) and occasionally recomputes the p95.
func (w *latWindow) add(us float64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf[w.n%len(w.buf)] = us
	w.n++
	if w.n%latRefreshEvery == 0 {
		sorted := append([]float64(nil), w.buf[:min(w.n, len(w.buf))]...)
		sort.Float64s(sorted)
		w.cached = obs.SampleQuantile(sorted, 0.95)
	}
}

// p95 returns the cached p95 in µs, or 0 while the window is too empty to
// trust (fewer than 2×refresh samples).
func (w *latWindow) p95() float64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.n < 2*latRefreshEvery {
		return 0
	}
	return w.cached
}

// hedgeDelay is the backup-request delay for one predict: the fixed
// HedgeDelay if set, else the observed p95 clamped to [hedgeMin, hedgeMax]
// — and hedgeMax while the window is still warming up (hedge late rather
// than double traffic on a cold estimate).
func (r *Router) hedgeDelay() time.Duration {
	if r.opts.HedgeDelay != 0 {
		if r.opts.HedgeDelay < 0 {
			return 0 // hedging disabled; failover still works
		}
		return r.opts.HedgeDelay
	}
	p95 := r.lat.p95()
	if p95 <= 0 {
		return hedgeMax
	}
	return min(max(time.Duration(p95)*time.Microsecond, hedgeMin), hedgeMax)
}
