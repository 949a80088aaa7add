package profile

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Config configures a Sampler. The zero value is usable: a 100ms
// interval and no recorder.
type Config struct {
	// Interval between samples. Default 100ms; the floor is 1ms.
	Interval time.Duration
	// Rec receives the live gauge/counter/histogram feed and, when it has a
	// tracer, one EventSample per tick (nil disables both; the obs recorder
	// is nil-safe anyway).
	Rec *obs.Recorder
}

// Sampler polls runtime/metrics on a fixed interval, feeding the obs
// registry and writing one EventSample into the trace per tick. Start it
// with Start; Stop takes a final sample, waits for the loop goroutine to
// exit, and is idempotent — the clean start/stop contract the race tests
// pin.
type Sampler struct {
	cfg     Config
	samples atomic.Int64

	stopOnce sync.Once
	stopc    chan struct{}
	done     chan struct{}
}

// Start begins sampling and returns the running sampler. The first sample
// is taken immediately (so even a short-lived run has a baseline), then one
// per interval until Stop.
func Start(cfg Config) *Sampler {
	if cfg.Interval <= 0 {
		cfg.Interval = 100 * time.Millisecond
	}
	if cfg.Interval < time.Millisecond {
		cfg.Interval = time.Millisecond
	}
	s := &Sampler{
		cfg:   cfg,
		stopc: make(chan struct{}),
		done:  make(chan struct{}),
	}
	go s.run()
	return s
}

// Stop takes a final sample and waits for the sampling goroutine to exit.
// Safe to call more than once and on a nil sampler.
func (s *Sampler) Stop() {
	if s == nil {
		return
	}
	s.stopOnce.Do(func() { close(s.stopc) })
	<-s.done
}

// Samples returns how many samples have been taken so far.
func (s *Sampler) Samples() int64 {
	if s == nil {
		return 0
	}
	return s.samples.Load()
}

func (s *Sampler) run() {
	defer close(s.done)
	ticker := time.NewTicker(s.cfg.Interval)
	defer ticker.Stop()
	prev := s.take(nil, false)
	for {
		select {
		case <-ticker.C:
			prev = s.take(&prev, false)
		case <-s.stopc:
			// The final sample is the state at shutdown: the one the
			// end-of-run leak rule of `obs prof` reads.
			s.take(&prev, true)
			return
		}
	}
}

// take reads one Stats, feeds the registry and the trace, and returns the
// reading the next tick's deltas start from (prev is nil on the first).
func (s *Sampler) take(prev *Stats, final bool) Stats {
	st := ReadStats()
	seq := s.samples.Add(1)

	rec := s.cfg.Rec
	rec.SetGauge(MetricGoroutines, float64(st.Goroutines))
	rec.SetGauge(MetricHeapLiveBytes, float64(st.HeapLiveBytes))
	rec.SetGauge(MetricHeapObjects, float64(st.HeapObjects))
	rec.SetGauge(MetricGCCycles, float64(st.GCCycles))
	rec.SetGauge(MetricGCPauseP50US, st.GCPauseP50US)
	rec.SetGauge(MetricGCPauseP95US, st.GCPauseP95US)
	rec.SetGauge(MetricSchedLatP50US, st.SchedLatP50US)
	rec.SetGauge(MetricSchedLatP95US, st.SchedLatP95US)
	rec.SetGauge(MetricSamples, float64(seq))
	if prev != nil {
		rec.Count(MetricAllocBytes, int64(st.TotalAllocBytes-prev.TotalAllocBytes))
		s.feedPauseHist(*prev, st)
	}

	// The readings `obs prof` summarizes; the record's start_us is the time.
	args := []any{
		"goroutines", st.Goroutines,
		"heap_live_bytes", st.HeapLiveBytes,
		"total_alloc_bytes", st.TotalAllocBytes,
		"gc_cycles", st.GCCycles,
		"gc_pause_p50_us", st.GCPauseP50US,
		"gc_pause_p95_us", st.GCPauseP95US,
		"sched_lat_p95_us", st.SchedLatP95US,
	}
	if final {
		args = append(args, "final", true)
	}
	rec.Event(EventSample, args...)
	return st
}

// feedPauseHist turns the interval's new GC pauses (cumulative bucket
// count deltas) into observations on the obs pause histogram, so the
// /metrics exposition carries a real pause distribution, not just
// quantile gauges. GC cycles are rare relative to sampling intervals, so
// the per-bucket replay is bounded; a paranoid cap keeps a pathological
// interval from stalling the loop.
func (s *Sampler) feedPauseHist(prev, cur Stats) {
	if s.cfg.Rec == nil || len(cur.gcPauseCounts) == 0 || len(prev.gcPauseCounts) != len(cur.gcPauseCounts) {
		return
	}
	const maxReplay = 1024
	replayed := 0
	for i, c := range cur.gcPauseCounts {
		dc := int64(c) - int64(prev.gcPauseCounts[i])
		if dc <= 0 {
			continue
		}
		mid := bucketMid(cur.gcPauseBounds, i) * 1e6 // seconds → µs
		for j := int64(0); j < dc && replayed < maxReplay; j++ {
			s.cfg.Rec.Observe(MetricGCPauseHist, mid, nil)
			replayed++
		}
	}
}
