package profile

import (
	"sync"
	"time"

	"repro/internal/obs"
)

// Config configures a Sampler. The zero value is usable: a 100ms
// interval and no recorder.
type Config struct {
	// Interval between samples. Default 100ms; the floor is 1ms.
	Interval time.Duration
	// Rec receives one EventSample per tick when it has a tracer (nil
	// disables it; the obs recorder is nil-safe anyway).
	Rec *obs.Recorder
}

// Sampler polls runtime/metrics on a fixed interval, writing one
// EventSample into the trace per tick. Start it with Start; Stop takes a
// final sample, waits for the loop goroutine to exit, and is idempotent —
// the clean start/stop contract the race tests pin.
type Sampler struct {
	cfg Config

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

func (s *Sampler) run() {
	defer close(s.done)
	ticker := time.NewTicker(s.cfg.Interval)
	defer ticker.Stop()
	s.take(false)
	for {
		select {
		case <-ticker.C:
			s.take(false)
		case <-s.stopc:
			// The final sample is the state at shutdown: the one the
			// end-of-run leak rule of `obs prof` reads.
			s.take(true)
			return
		}
	}
}

// take reads one Stats and writes it to the trace as an EventSample, whose
// start_us is the time of the reading.
func (s *Sampler) take(final bool) {
	st := ReadStats()
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
	s.cfg.Rec.Event(EventSample, args...)
}
