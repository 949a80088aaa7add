package profile

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Sample is one line of the runtime-metrics timeline: a point-in-time
// resource reading plus the deltas since the previous sample. The JSONL
// stream of these is what `knowtrans obs prof` loads and summarizes.
type Sample struct {
	// TMS is milliseconds since the sampler started.
	TMS int64 `json:"t_ms"`
	// Seq is the 1-based sample index; readers use it to detect truncation.
	Seq             int64   `json:"seq"`
	Goroutines      int64   `json:"goroutines"`
	HeapLiveBytes   uint64  `json:"heap_live_bytes"`
	HeapObjects     uint64  `json:"heap_objects"`
	TotalAllocBytes uint64  `json:"total_alloc_bytes"`
	AllocDeltaBytes uint64  `json:"alloc_delta_bytes"`
	GCCycles        uint64  `json:"gc_cycles"`
	GCPauseTotalUS  float64 `json:"gc_pause_total_us"`
	GCPauseP50US    float64 `json:"gc_pause_p50_us"`
	GCPauseP95US    float64 `json:"gc_pause_p95_us"`
	SchedLatP50US   float64 `json:"sched_lat_p50_us"`
	SchedLatP95US   float64 `json:"sched_lat_p95_us"`
}

// Config configures a Sampler. The zero value is usable: a 100ms
// interval, no registry feed, no timeline.
type Config struct {
	// Interval between samples. Default 100ms; the floor is 1ms.
	Interval time.Duration
	// Rec receives the live gauge/counter/histogram feed (nil disables;
	// the obs recorder is nil-safe anyway).
	Rec *obs.Recorder
	// W receives the JSONL timeline (nil disables). The sampler is the
	// only writer; callers own closing it after Stop returns.
	W io.Writer
}

// Sampler polls runtime/metrics on a fixed interval, feeding the obs
// registry and appending the JSONL timeline. Start it with Start; Stop
// takes a final sample, waits for the loop goroutine to exit, and is
// idempotent — the clean start/stop contract the race tests pin.
type Sampler struct {
	cfg   Config
	start time.Time

	samples    atomic.Int64
	writeErrMu sync.Mutex
	writeErr   error

	stopOnce sync.Once
	stopc    chan struct{}
	done     chan struct{}
}

// Start begins sampling and returns the running sampler. The first sample
// is taken immediately (so even a short-lived run has a baseline row),
// then one per interval until Stop.
func Start(cfg Config) *Sampler {
	if cfg.Interval <= 0 {
		cfg.Interval = 100 * time.Millisecond
	}
	if cfg.Interval < time.Millisecond {
		cfg.Interval = time.Millisecond
	}
	s := &Sampler{
		cfg:   cfg,
		start: time.Now(),
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

// Err returns the first timeline write error, if any (sampling itself
// cannot fail).
func (s *Sampler) Err() error {
	if s == nil {
		return nil
	}
	s.writeErrMu.Lock()
	defer s.writeErrMu.Unlock()
	return s.writeErr
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
	var prev Stats
	prev = s.take(prev, true)
	for {
		select {
		case <-ticker.C:
			prev = s.take(prev, false)
		case <-s.stopc:
			// Final sample so the timeline's last row reflects the state at
			// shutdown — the row leak detection and the end-state summary read.
			s.take(prev, false)
			return
		}
	}
}

// take reads one Stats, emits the timeline row and registry updates, and
// returns the reading for the next delta.
func (s *Sampler) take(prev Stats, first bool) Stats {
	st := ReadStats()
	seq := s.samples.Add(1)

	var d StatsDelta
	if !first {
		d = st.Delta(prev)
	}

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
	if !first {
		rec.Count(MetricAllocBytes, int64(d.AllocBytes))
		s.feedPauseHist(prev, st)
	}

	if s.cfg.W != nil {
		row := Sample{
			TMS:             time.Since(s.start).Milliseconds(),
			Seq:             seq,
			Goroutines:      st.Goroutines,
			HeapLiveBytes:   st.HeapLiveBytes,
			HeapObjects:     st.HeapObjects,
			TotalAllocBytes: st.TotalAllocBytes,
			AllocDeltaBytes: d.AllocBytes,
			GCCycles:        st.GCCycles,
			GCPauseTotalUS:  st.GCPauseTotalUS,
			GCPauseP50US:    st.GCPauseP50US,
			GCPauseP95US:    st.GCPauseP95US,
			SchedLatP50US:   st.SchedLatP50US,
			SchedLatP95US:   st.SchedLatP95US,
		}
		if line, err := json.Marshal(row); err == nil {
			if _, werr := s.cfg.W.Write(append(line, '\n')); werr != nil {
				s.setErr(fmt.Errorf("profile: write timeline: %w", werr))
			}
		} else {
			s.setErr(fmt.Errorf("profile: marshal sample: %w", err))
		}
	}
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

func (s *Sampler) setErr(err error) {
	s.writeErrMu.Lock()
	if s.writeErr == nil {
		s.writeErr = err
	}
	s.writeErrMu.Unlock()
}

// ReadTimeline parses a JSONL timeline back into samples, in file order,
// under obs.ReadJSONL's tail rule: a truncated last line (the process was
// killed mid-write) is dropped, garbage before the last line is an error.
func ReadTimeline(r io.Reader) ([]Sample, error) {
	rows, _, err := obs.ReadJSONL[Sample](r)
	return rows, err
}
