package analyze

import (
	"fmt"
	"io"

	"repro/internal/obs/profile"
)

// Runtime-sample analysis: the consumption side of the runtime sampler
// (internal/obs/profile). NewProfReport reads the runtime.sample events a
// run traced with -trace and -sample leaves in its trace, summarizes them
// (heap growth slope, GC pauses, goroutine-leak detection, alloc rates per
// window), and Unhealthy is the verdict `knowtrans obs prof -gate` exits on.

// profWindowCount is how many equal-duration windows the leak detector
// splits a run into.
const profWindowCount = 4

// finalGoroutineSlack is how many goroutines a run's final sample may hold
// above its first before the run counts as leaking. A drain stops what the
// run started (serve.Registry.Close, cluster.Router.Close), so the serve
// drill ends 0–2 above its start at GOMAXPROCS 2 and 16 alike; one parked
// goroutine per request ends hundreds above.
const finalGoroutineSlack = 32

// profSample is one runtime.sample event's readings.
type profSample struct {
	TMS             int64 // milliseconds since the tracer started
	Goroutines      int64
	HeapLiveBytes   uint64
	TotalAllocBytes uint64
	GCCycles        uint64
	GCPauseP50US    float64
	GCPauseP95US    float64
	SchedLatP95US   float64
	Final           bool
}

// profSamples returns the trace's runtime.sample events in file order. A
// reading that is missing, not a number or negative loads as zero.
func profSamples(t *Trace) []profSample {
	var out []profSample
	for _, e := range t.Events {
		if e.Name != profile.EventSample {
			continue
		}
		num := func(key string) float64 {
			if v, ok := e.Attrs[key].(float64); ok && v > 0 {
				return v
			}
			return 0
		}
		final, _ := e.Attrs["final"].(bool)
		out = append(out, profSample{
			TMS:             e.StartUS / 1000,
			Goroutines:      int64(num("goroutines")),
			HeapLiveBytes:   uint64(num("heap_live_bytes")),
			TotalAllocBytes: uint64(num("total_alloc_bytes")),
			GCCycles:        uint64(num("gc_cycles")),
			GCPauseP50US:    num("gc_pause_p50_us"),
			GCPauseP95US:    num("gc_pause_p95_us"),
			SchedLatP95US:   num("sched_lat_p95_us"),
			Final:           final,
		})
	}
	return out
}

// ProfWindow summarizes one of the report's equal-duration windows; the
// windowed view is what monotonic-growth (leak) detection reads.
type ProfWindow struct {
	StartMS       int64   `json:"start_ms"`
	EndMS         int64   `json:"end_ms"`
	Samples       int     `json:"samples"`
	GoroutineMin  int64   `json:"goroutine_min"`
	GoroutineMax  int64   `json:"goroutine_max"`
	HeapMinBytes  uint64  `json:"heap_min_bytes"`
	HeapMaxBytes  uint64  `json:"heap_max_bytes"`
	AllocRateBPS  float64 `json:"alloc_rate_bps"`
	GCCyclesDelta uint64  `json:"gc_cycles_delta"`
}

// ProfReport is the summary of one run's runtime samples.
type ProfReport struct {
	Samples   int     `json:"samples"`
	DurationS float64 `json:"duration_s"`

	HeapStartBytes uint64 `json:"heap_start_bytes"`
	HeapEndBytes   uint64 `json:"heap_end_bytes"`
	HeapMaxBytes   uint64 `json:"heap_max_bytes"`
	// HeapSlopeBPS is the least-squares slope of live heap bytes over
	// time: the headline "is this process growing" number.
	HeapSlopeBPS float64 `json:"heap_slope_bps"`
	// HeapGrowth flags monotonic per-window growth of the heap floor —
	// every window's minimum live heap above the previous window's, with
	// total growth beyond noise. The shape of a leak, as opposed to a
	// sawtooth that the slope of a short capture can misread.
	HeapGrowth bool `json:"heap_growth"`

	GoroutineStart int64 `json:"goroutine_start"`
	GoroutineEnd   int64 `json:"goroutine_end"`
	GoroutineMax   int64 `json:"goroutine_max"`
	// GoroutineLeak flags either of two shapes, and GoroutineLeakRule names
	// the first that fired: the per-window goroutine floor rises window over
	// window (an accumulating leak, seen while it grows), or the final sample
	// Stop took holds more than finalGoroutineSlack goroutines above the
	// first (a leak that built during the load and then stayed flat).
	GoroutineLeak     bool   `json:"goroutine_leak"`
	GoroutineLeakRule string `json:"goroutine_leak_rule,omitempty"`

	AllocTotalBytes uint64  `json:"alloc_total_bytes"`
	AllocRateBPS    float64 `json:"alloc_rate_bps"`
	GCCycles        uint64  `json:"gc_cycles"`
	GCPauseP50US    float64 `json:"gc_pause_p50_us"`
	GCPauseP95US    float64 `json:"gc_pause_p95_us"`
	SchedLatP95US   float64 `json:"sched_lat_p95_us"`

	Windows []ProfWindow `json:"windows,omitempty"`
}

// NewProfReport summarizes the trace's runtime.sample events over
// profWindowCount analysis windows (fewer when a window would hold less than
// two samples). A trace without samples gives a report of zero Samples.
func NewProfReport(t *Trace) *ProfReport {
	rows := profSamples(t)
	r := &ProfReport{Samples: len(rows)}
	if len(rows) == 0 {
		return r
	}
	first, last := rows[0], rows[len(rows)-1]
	r.DurationS = float64(last.TMS-first.TMS) / 1e3
	r.HeapStartBytes = first.HeapLiveBytes
	r.HeapEndBytes = last.HeapLiveBytes
	r.GoroutineStart = first.Goroutines
	r.GoroutineEnd = last.Goroutines
	r.GCCycles = last.GCCycles - first.GCCycles
	r.GCPauseP50US = last.GCPauseP50US
	r.GCPauseP95US = last.GCPauseP95US
	r.SchedLatP95US = last.SchedLatP95US
	r.AllocTotalBytes = last.TotalAllocBytes - first.TotalAllocBytes
	if r.DurationS > 0 {
		r.AllocRateBPS = float64(r.AllocTotalBytes) / r.DurationS
	}
	for _, s := range rows {
		if s.HeapLiveBytes > r.HeapMaxBytes {
			r.HeapMaxBytes = s.HeapLiveBytes
		}
		if s.Goroutines > r.GoroutineMax {
			r.GoroutineMax = s.Goroutines
		}
	}
	r.HeapSlopeBPS = heapSlope(rows)
	r.Windows = profWindows(rows, profWindowCount)
	switch d := last.Goroutines - first.Goroutines; {
	case monotonicWindows(r.Windows,
		func(w ProfWindow) float64 { return float64(w.GoroutineMin) },
		func(w ProfWindow) float64 { return float64(w.GoroutineMax) }, 8, 0.10):
		r.GoroutineLeakRule = "per-window goroutine floor grows monotonically"
	case last.Final && d > finalGoroutineSlack:
		r.GoroutineLeakRule = fmt.Sprintf("the final sample holds %d goroutines above the first (slack %d)", d, finalGoroutineSlack)
	}
	r.GoroutineLeak = r.GoroutineLeakRule != ""
	r.HeapGrowth = monotonicWindows(r.Windows,
		func(w ProfWindow) float64 { return float64(w.HeapMinBytes) },
		func(w ProfWindow) float64 { return float64(w.HeapMaxBytes) }, 1<<20, 0.10)
	return r
}

// heapSlope fits live-heap bytes against time by least squares and
// returns bytes/second (0 for degenerate runs).
func heapSlope(rows []profSample) float64 {
	if len(rows) < 2 {
		return 0
	}
	var sx, sy, sxx, sxy float64
	n := float64(len(rows))
	for _, s := range rows {
		x := float64(s.TMS) / 1e3
		y := float64(s.HeapLiveBytes)
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return 0
	}
	return (n*sxy - sx*sy) / den
}

// profWindows splits the samples into up to n equal-duration windows.
func profWindows(rows []profSample, n int) []ProfWindow {
	for n > 1 && len(rows)/n < 2 {
		n--
	}
	span := rows[len(rows)-1].TMS - rows[0].TMS
	if span <= 0 {
		n = 1
	}
	out := make([]ProfWindow, 0, n)
	width := span/int64(n) + 1
	i := 0
	for w := 0; w < n && i < len(rows); w++ {
		lo := rows[0].TMS + int64(w)*width
		hi := lo + width
		win := ProfWindow{StartMS: lo, EndMS: hi}
		firstIdx := i
		for ; i < len(rows) && (rows[i].TMS < hi || w == n-1); i++ {
			s := rows[i]
			if win.Samples == 0 || s.Goroutines < win.GoroutineMin {
				win.GoroutineMin = s.Goroutines
			}
			if s.Goroutines > win.GoroutineMax {
				win.GoroutineMax = s.Goroutines
			}
			if win.Samples == 0 || s.HeapLiveBytes < win.HeapMinBytes {
				win.HeapMinBytes = s.HeapLiveBytes
			}
			if s.HeapLiveBytes > win.HeapMaxBytes {
				win.HeapMaxBytes = s.HeapLiveBytes
			}
			win.Samples++
		}
		if win.Samples == 0 {
			continue
		}
		firstS, lastS := rows[firstIdx], rows[i-1]
		win.GCCyclesDelta = lastS.GCCycles - firstS.GCCycles
		if dt := float64(lastS.TMS-firstS.TMS) / 1e3; dt > 0 {
			win.AllocRateBPS = float64(lastS.TotalAllocBytes-firstS.TotalAllocBytes) / dt
		}
		out = append(out, win)
	}
	return out
}

// monotonicWindows reports whether a metric's per-window floor AND
// ceiling both rise across every consecutive window pair, with the total
// floor rise clearing an absolute slack and a relative fraction of the
// starting value — the monotonic-growth shape of a leak, with noise
// guards. Requiring the ceiling too is what separates a leak from a
// warmup phase: building retained state raises floors until retention
// plateaus, but its ceilings subside once the transient build garbage is
// collected, while a leak lifts both forever. A floor counts as risen
// only when it climbs by more than one pair's share of both slacks: on a
// plateau the floor moves a fraction of a percent either way with GC
// timing, and reading that as a rise makes the verdict a coin flip.
func monotonicWindows(ws []ProfWindow, lo, hi func(ProfWindow) float64, absSlack, relSlack float64) bool {
	if len(ws) < 3 {
		return false
	}
	pairs := float64(len(ws) - 1)
	for i := 1; i < len(ws); i++ {
		prev := lo(ws[i-1])
		if lo(ws[i])-prev <= max(absSlack, relSlack*prev)/pairs || hi(ws[i]) <= hi(ws[i-1]) {
			return false
		}
	}
	first, last := lo(ws[0]), lo(ws[len(ws)-1])
	growth := last - first
	return growth > absSlack && (first == 0 || growth/first > relSlack)
}

func fmtBytes(b float64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.2fGiB", b/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.2fMiB", b/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKiB", b/(1<<10))
	default:
		return fmt.Sprintf("%.0fB", b)
	}
}

// WriteText renders the report for operators.
func (r *ProfReport) WriteText(w io.Writer) error {
	var out []byte
	add := func(format string, args ...any) { out = append(out, fmt.Sprintf(format, args...)...) }
	add("runtime samples: %d over %.2fs\n", r.Samples, r.DurationS)
	add("heap live: start %s, end %s, max %s, slope %s/s\n",
		fmtBytes(float64(r.HeapStartBytes)), fmtBytes(float64(r.HeapEndBytes)),
		fmtBytes(float64(r.HeapMaxBytes)), fmtBytes(r.HeapSlopeBPS))
	add("goroutines: start %d, end %d, max %d\n", r.GoroutineStart, r.GoroutineEnd, r.GoroutineMax)
	add("alloc: %s total, %s/s\n", fmtBytes(float64(r.AllocTotalBytes)), fmtBytes(r.AllocRateBPS))
	add("gc: %d cycles, pause p50 %s p95 %s; sched latency p95 %s\n",
		r.GCCycles, fmtUSf(r.GCPauseP50US), fmtUSf(r.GCPauseP95US), fmtUSf(r.SchedLatP95US))
	if r.GoroutineLeak {
		add("WARNING: goroutine leak suspected — %s\n", r.GoroutineLeakRule)
	}
	if r.HeapGrowth {
		add("WARNING: unbounded heap growth suspected — per-window heap floor grows monotonically\n")
	}
	if len(r.Windows) > 1 {
		add("windows:\n")
		for i, win := range r.Windows {
			add("  [%d] %5.1fs-%5.1fs  goroutines %d-%d  heap %s-%s  alloc %s/s  gc +%d\n",
				i, float64(win.StartMS)/1e3, float64(win.EndMS)/1e3,
				win.GoroutineMin, win.GoroutineMax,
				fmtBytes(float64(win.HeapMinBytes)), fmtBytes(float64(win.HeapMaxBytes)),
				fmtBytes(win.AllocRateBPS), win.GCCyclesDelta)
		}
	}
	// Gate verdict summary, mirrored by the -gate exit code.
	if r.Unhealthy() {
		add("verdict: UNHEALTHY\n")
	} else {
		add("verdict: ok\n")
	}
	_, err := w.Write(out)
	return err
}

// Unhealthy reports whether the standalone gate (-gate) should fail: a
// suspected goroutine leak or unbounded heap growth.
func (r *ProfReport) Unhealthy() bool { return r.GoroutineLeak || r.HeapGrowth }
