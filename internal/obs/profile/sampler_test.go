package profile

import (
	"bytes"
	"context"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// syncBuffer lets the test read the timeline while the sampler goroutine
// may still be writing — the race detector keeps us honest.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestSamplerTimelineAndRegistry runs the sampler over a busy interval
// and checks the two outputs agree: a parseable monotonic JSONL timeline
// and live runtime gauges in the registry.
func TestSamplerTimelineAndRegistry(t *testing.T) {
	reg := obs.NewRegistry()
	rec := obs.NewRecorder(reg, nil)
	var buf syncBuffer
	s := Start(Config{Interval: 2 * time.Millisecond, Rec: rec, W: &buf})

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
	if err := s.Err(); err != nil {
		t.Fatalf("sampler error: %v", err)
	}

	rows, err := ReadTimeline(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatalf("ReadTimeline: %v", err)
	}
	if len(rows) < 2 {
		t.Fatalf("want >= 2 samples, got %d", len(rows))
	}
	if int64(len(rows)) != s.Samples() {
		t.Errorf("timeline rows %d != Samples() %d", len(rows), s.Samples())
	}
	for i, r := range rows {
		if r.Seq != int64(i+1) {
			t.Fatalf("row %d: seq %d", i, r.Seq)
		}
		if i > 0 && r.TMS < rows[i-1].TMS {
			t.Errorf("row %d: t_ms went backwards (%d < %d)", i, r.TMS, rows[i-1].TMS)
		}
		if r.Goroutines <= 0 || r.HeapLiveBytes == 0 || r.TotalAllocBytes == 0 {
			t.Errorf("row %d: implausible reading %+v", i, r)
		}
		if i > 0 && r.TotalAllocBytes < rows[i-1].TotalAllocBytes {
			t.Errorf("row %d: cumulative allocs shrank", i)
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
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	if n := s.Samples(); n != 0 {
		t.Fatalf("nil Samples = %d", n)
	}
}

func TestReadStats(t *testing.T) {
	st := ReadStats()
	if st.Goroutines <= 0 {
		t.Errorf("Goroutines = %d", st.Goroutines)
	}
	if st.HeapLiveBytes == 0 || st.TotalAllocBytes == 0 || st.TotalAllocObjects == 0 {
		t.Errorf("zero memory readings: %+v", st)
	}
	// Allocate, read again: cumulative counters move forward.
	waste := make([]byte, 1<<20)
	_ = waste
	st2 := ReadStats()
	d := st2.Delta(st)
	if d.AllocBytes == 0 {
		t.Error("no alloc delta after allocating 1MB")
	}
	g, h := QuickReadings()
	if g <= 0 || h == 0 {
		t.Errorf("QuickReadings = %d, %d", g, h)
	}
}

func TestReadTimelineTruncatedTail(t *testing.T) {
	whole := `{"t_ms":1,"seq":1,"goroutines":5}` + "\n" + `{"t_ms":2,"seq":2,"gorou`
	rows, err := ReadTimeline(strings.NewReader(whole))
	if err != nil {
		t.Fatalf("truncated tail should be tolerated: %v", err)
	}
	if len(rows) != 1 || rows[0].Goroutines != 5 {
		t.Fatalf("rows = %+v", rows)
	}
	// Garbage with a line after it is corruption, not a tail (the old reader
	// returned the prefix and swallowed it).
	garbled := `{"t_ms":1,"seq":1}` + "\nnot json\n" + `{"t_ms":3,"seq":3}` + "\n"
	if _, err := ReadTimeline(strings.NewReader(garbled)); err == nil {
		t.Error("mid-stream garbage should be a hard error")
	}
	// A lone unparsable line is a tail with nothing before it: no rows,
	// which analyze.LoadTimeline reports as an empty timeline.
	if rows, err := ReadTimeline(strings.NewReader("not json")); err != nil || len(rows) != 0 {
		t.Errorf("lone malformed line = %d rows, %v; want 0 rows, nil", len(rows), err)
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
