// Package obs is the stdlib-only observability layer of the reproduction:
// a concurrency-safe metrics registry (counters, gauges, fixed-bucket
// histograms with quantile summaries), hierarchical span tracing serialized
// to JSONL, and a nil-safe Recorder that threads both through the
// SKC/AKB pipeline at zero cost when disabled.
//
// Everything the paper's evaluation reasons about — AKB's per-iteration
// candidate scores (Fig. 5/7), SKC's learned λ interpolation weights
// (Table VI), per-method latency and oracle cost (Table III) — is exposed
// here as named metrics and spans, so `knowtrans experiment ... -trace
// t.jsonl -metrics m.json` yields a machine-readable run record.
package obs

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing (well, signed-delta) counter safe
// for concurrent use.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by d.
func (c *Counter) Add(d int64) { c.v.Add(d) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a last-write-wins float64 value safe for concurrent use.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the last stored value (zero if never set).
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket histogram safe for concurrent use. Bucket i
// counts observations v <= bounds[i]; one overflow bucket counts the rest.
// Quantiles are estimated by linear interpolation within the bucket that
// crosses the requested rank, which is exact enough for latency summaries.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1, last = overflow
	exemp  []atomic.Pointer[string]

	count atomic.Int64
	sum   atomic.Uint64 // float64 bits, CAS-accumulated
	min   atomic.Uint64 // float64 bits
	max   atomic.Uint64 // float64 bits
	init  atomic.Bool   // min/max seeded
}

// newHistogram builds a histogram over sorted upper bounds.
func newHistogram(bounds []float64) *Histogram {
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	return &Histogram{
		bounds: bs,
		counts: make([]atomic.Int64, len(bs)+1),
		exemp:  make([]atomic.Pointer[string], len(bs)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	atomicAddFloat(&h.sum, v)
	h.updateMinMax(v)
}

// ObserveExemplar records one value like Observe and, when exemplar is
// non-empty, remembers it as the last exemplar of the bucket the value
// landed in. The serving layer stamps trace IDs here, so a latency bucket
// in /metrics.json always names a concrete recent trace to pull with
// `knowtrans obs trace -trace-id`.
func (h *Histogram) ObserveExemplar(v float64, exemplar string) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	atomicAddFloat(&h.sum, v)
	h.updateMinMax(v)
	if exemplar != "" {
		h.exemp[i].Store(&exemplar)
	}
}

func (h *Histogram) updateMinMax(v float64) {
	if h.init.CompareAndSwap(false, true) {
		h.min.Store(math.Float64bits(v))
		h.max.Store(math.Float64bits(v))
		return
	}
	for {
		old := h.min.Load()
		if v >= math.Float64frombits(old) || h.min.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
	for {
		old := h.max.Load()
		if v <= math.Float64frombits(old) || h.max.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
}

func atomicAddFloat(a *atomic.Uint64, d float64) {
	for {
		old := a.Load()
		if a.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

func (h *Histogram) loadCounts() []int64 {
	counts := make([]int64, len(h.counts))
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
	}
	return counts
}

// bucketRange returns the [lo, hi] value range of bucket i, clamped to the
// observed min/max so interpolation never invents values outside the data.
func (h *Histogram) bucketRange(i int) (lo, hi float64) {
	min := math.Float64frombits(h.min.Load())
	max := math.Float64frombits(h.max.Load())
	if i == 0 {
		lo = min
	} else {
		lo = h.bounds[i-1]
	}
	if i == len(h.bounds) {
		hi = max
	} else {
		hi = h.bounds[i]
	}
	if lo < min {
		lo = min
	}
	if hi > max {
		hi = max
	}
	if hi < lo {
		hi = lo
	}
	return lo, hi
}

// HistogramSnapshot is the serialized summary of one histogram.
type HistogramSnapshot struct {
	Count int64     `json:"count"`
	Sum   float64   `json:"sum"`
	Mean  float64   `json:"mean"`
	Min   float64   `json:"min"`
	Max   float64   `json:"max"`
	P50   float64   `json:"p50"`
	P95   float64   `json:"p95"`
	P99   float64   `json:"p99"`
	Le    []float64 `json:"le,omitempty"`     // bucket upper bounds
	Bkt   []int64   `json:"counts,omitempty"` // per-bucket counts incl. overflow
	// Exemplars holds the last exemplar (a trace ID, on the serve path)
	// recorded per bucket, aligned with Bkt; absent when none were stamped.
	Exemplars []string `json:"exemplars,omitempty"`
}

// Snapshot summarizes the histogram's current state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	bkt := h.loadCounts()
	s := HistogramSnapshot{
		Count: h.Count(),
		Sum:   h.Sum(),
		P50:   BucketQuantile(bkt, 0.50, h.bucketRange),
		P95:   BucketQuantile(bkt, 0.95, h.bucketRange),
		P99:   BucketQuantile(bkt, 0.99, h.bucketRange),
		Le:    append([]float64(nil), h.bounds...),
		Bkt:   bkt,
	}
	if s.Count > 0 {
		s.Mean = s.Sum / float64(s.Count)
		s.Min = math.Float64frombits(h.min.Load())
		s.Max = math.Float64frombits(h.max.Load())
	}
	var stamped bool
	ex := make([]string, len(h.exemp))
	for i := range h.exemp {
		if p := h.exemp[i].Load(); p != nil {
			ex[i] = *p
			stamped = true
		}
	}
	if stamped {
		s.Exemplars = ex
	}
	return s
}

// DefaultLatencyBounds are the default histogram bounds for durations in
// microseconds: 1-2-5 decades from 1µs to 100s. Call sites recording a
// latency share this one slice instead of building ad-hoc bounds per
// Observe call; Registry.Histogram also falls back to it when given nil
// bounds.
var DefaultLatencyBounds = func() []float64 {
	var out []float64
	for base := 1.0; base <= 1e8; base *= 10 {
		out = append(out, base, 2*base, 5*base)
	}
	return out
}()

// DefaultScoreBounds are the default bounds for metric scores on the
// 100-point scale used throughout the evaluation (AKB candidate scores,
// method accuracies).
var DefaultScoreBounds = []float64{0, 10, 20, 30, 40, 50, 60, 65, 70, 75, 80, 85, 90, 92.5, 95, 97.5, 99, 100}

// Registry is a named collection of metrics. Lookups are get-or-create and
// safe for concurrent use; metric instances are safe to retain and update
// without further locking.
type Registry struct {
	mu    sync.RWMutex
	ctrs  map[string]*Counter
	gaug  map[string]*Gauge
	hists map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		ctrs:  map[string]*Counter{},
		gaug:  map[string]*Gauge{},
		hists: map[string]*Histogram{},
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c, ok := r.ctrs[name]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok = r.ctrs[name]; !ok {
		c = &Counter{}
		r.ctrs[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g, ok := r.gaug[name]
	r.mu.RUnlock()
	if ok {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok = r.gaug[name]; !ok {
		g = &Gauge{}
		r.gaug[name] = g
	}
	return g
}

// DeleteGauge removes the named gauge so it no longer appears in snapshots
// or /metrics.json. Use it to retire per-key series whose key was evicted;
// a gauge that merely reads zero still occupies an entry there forever,
// and a long-running server churning through keys accumulates stale series
// without bound. Deleting a missing gauge is a no-op. Callers must not hold
// on to the *Gauge across deletion: a later Gauge(name) call creates a fresh
// series.
func (r *Registry) DeleteGauge(name string) {
	r.mu.Lock()
	delete(r.gaug, name)
	r.mu.Unlock()
}

// Histogram returns the named histogram, creating it with the given bounds
// on first use (DefaultLatencyBounds when bounds is nil). Bounds of an
// existing histogram are not changed.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	r.mu.RLock()
	h, ok := r.hists[name]
	r.mu.RUnlock()
	if ok {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok = r.hists[name]; !ok {
		if bounds == nil {
			bounds = DefaultLatencyBounds
		}
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// RegistrySnapshot is the JSON-serializable state of a registry.
type RegistrySnapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]float64           `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot captures every metric's current value.
func (r *Registry) Snapshot() RegistrySnapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := RegistrySnapshot{
		Counters:   make(map[string]int64, len(r.ctrs)),
		Gauges:     make(map[string]float64, len(r.gaug)),
		Histograms: make(map[string]HistogramSnapshot, len(r.hists)),
	}
	for name, c := range r.ctrs {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gaug {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.Snapshot()
	}
	return s
}

// WriteJSON serializes a snapshot of the registry as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// MountMetrics puts the live scrape of reg on mux: /metrics.json, a registry
// snapshot taken per request, so a long run can be watched while it
// executes. The services' API mux (serve.NewServer) and the -pprof telemetry
// mux mount through here.
func MountMetrics(mux *http.ServeMux, reg *Registry) {
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := reg.WriteJSON(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
}
