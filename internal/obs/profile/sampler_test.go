package profile

import (
	"bytes"
	"context"
	"runtime"
	"runtime/pprof"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestSamplerTimelineAndRegistry runs the sampler over a busy interval
// and checks its two outputs: one runtime.sample event per sample in the
// trace, in time order, with final on Stop's only, and live runtime gauges
// in the registry.
func TestSamplerTimelineAndRegistry(t *testing.T) {
	reg := obs.NewRegistry()
	var buf bytes.Buffer
	tracer := obs.NewTracer(&buf)
	s := Start(Config{Interval: 2 * time.Millisecond, Rec: obs.NewRecorder(reg, tracer)})

	// Generate allocation traffic so the deltas are non-trivial.
	sink := make([][]byte, 0, 256)
	deadline := time.Now().Add(30 * time.Millisecond)
	for time.Now().Before(deadline) {
		sink = append(sink, make([]byte, 4096))
		if len(sink) > 128 {
			sink = sink[:0]
		}
	}
	_ = sink
	s.Stop()
	s.Stop() // idempotent
	if err := tracer.Close(); err != nil {
		t.Fatal(err)
	}

	recs, _, err := obs.ReadJSONL[obs.SpanRecord](&buf)
	if err != nil {
		t.Fatal(err)
	}
	var events []obs.SpanRecord
	for _, r := range recs {
		if r.IsEvent() && r.Name == EventSample {
			events = append(events, r)
		}
	}
	if len(events) < 2 || len(events) != len(recs) {
		t.Fatalf("trace holds %d records, %d of them %s events; want >= 2, all samples", len(recs), len(events), EventSample)
	}
	if int64(len(events)) != s.Samples() {
		t.Errorf("%d %s events != Samples() %d", len(events), EventSample, s.Samples())
	}
	for i, e := range events {
		if i > 0 && e.StartUS < events[i-1].StartUS {
			t.Errorf("sample %d: start_us went backwards (%d < %d)", i, e.StartUS, events[i-1].StartUS)
		}
		if final := e.Attrs["final"] == true; final != (i == len(events)-1) {
			t.Errorf("sample %d of %d: final = %v", i, len(events), final)
		}
		for _, key := range []string{"goroutines", "heap_live_bytes", "total_alloc_bytes"} {
			if v, _ := e.Attrs[key].(float64); v <= 0 {
				t.Errorf("sample %d: %s = %v", i, key, e.Attrs[key])
			}
		}
		for _, key := range []string{"gc_cycles", "gc_pause_p50_us", "gc_pause_p95_us", "sched_lat_p95_us"} {
			if _, ok := e.Attrs[key].(float64); !ok {
				t.Errorf("sample %d: %s = %v, want a number", i, key, e.Attrs[key])
			}
		}
		if i > 0 && e.Attrs["total_alloc_bytes"].(float64) < events[i-1].Attrs["total_alloc_bytes"].(float64) {
			t.Errorf("sample %d: cumulative allocs shrank", i)
		}
	}

	// The registry side, by the names a scrape sees (the Metric* constants
	// must keep spelling them): every gauge is published, the ones that
	// cannot be zero on a live process are not.
	snap := reg.Snapshot()
	for g, positive := range map[string]bool{
		"runtime.goroutines": true, "runtime.heap_live_bytes": true, "runtime.heap_objects": true, "runtime.samples": true,
		"runtime.gc_cycles": false, "runtime.gc_pause_p50_us": false, "runtime.gc_pause_p95_us": false,
		"runtime.sched_lat_p50_us": false, "runtime.sched_lat_p95_us": false,
	} {
		if v, ok := snap.Gauges[g]; !ok || (positive && v <= 0) {
			t.Errorf("gauge %s = %g (published = %v)", g, v, ok)
		}
	}
	if snap.Counters["runtime.alloc_bytes_total"] <= 0 {
		t.Errorf("counter runtime.alloc_bytes_total = %d, want > 0", snap.Counters["runtime.alloc_bytes_total"])
	}
}

// TestSamplerStopLeavesNoGoroutine pins the clean start/stop contract:
// after Stop returns, the sampling goroutine is gone.
func TestSamplerStopLeavesNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 8; i++ {
		s := Start(Config{Interval: time.Millisecond})
		time.Sleep(3 * time.Millisecond)
		s.Stop()
	}
	// Allow the runtime a beat to retire exited goroutines.
	var after int
	for i := 0; i < 50; i++ {
		after = runtime.NumGoroutine()
		if after <= before {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if after > before {
		t.Errorf("goroutines grew across 8 start/stop cycles: %d -> %d", before, after)
	}
}

func TestSamplerNilSafety(t *testing.T) {
	var s *Sampler
	s.Stop()
	if n := s.Samples(); n != 0 {
		t.Fatalf("nil Samples = %d", n)
	}
}

func TestReadStats(t *testing.T) {
	st := ReadStats()
	if st.Goroutines <= 0 {
		t.Errorf("Goroutines = %d", st.Goroutines)
	}
	if st.HeapLiveBytes == 0 || st.TotalAllocBytes == 0 {
		t.Errorf("zero memory readings: %+v", st)
	}
	// Allocate, read again: cumulative counters move forward.
	waste := make([]byte, 1<<20)
	_ = waste
	if d := ReadStats().TotalAllocBytes - st.TotalAllocBytes; d < 1<<20 {
		t.Errorf("alloc delta %d bytes after allocating 1MB", d)
	}
	g, h := QuickReadings()
	if g <= 0 || h == 0 {
		t.Errorf("QuickReadings = %d, %d", g, h)
	}
}

// TestDoAppliesLabels checks the pprof label helper attaches labels to
// the derived context (what call sites and CPU samples see).
func TestDoAppliesLabels(t *testing.T) {
	var route, key string
	Do(context.Background(), func(ctx context.Context) {
		route, _ = pprof.Label(ctx, LabelRoute)
		Do(ctx, func(ctx context.Context) {
			key, _ = pprof.Label(ctx, LabelKey)
			route, _ = pprof.Label(ctx, LabelRoute) // outer label survives nesting
		}, LabelKey, "EM/Walmart-Amazon")
	}, LabelRoute, "predict")
	if route != "predict" || key != "EM/Walmart-Amazon" {
		t.Errorf("labels = route %q key %q", route, key)
	}
}
