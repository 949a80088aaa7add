package analyze

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/profile"
)

// sampleTrace writes rows as the runtime.sample events of a JSONL trace, the
// way the sampler's tracer would, and loads it back.
func sampleTrace(t *testing.T, rows []profSample) *Trace {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for i, s := range rows {
		attrs := map[string]any{
			"goroutines": s.Goroutines, "heap_live_bytes": s.HeapLiveBytes,
			"total_alloc_bytes": s.TotalAllocBytes, "gc_cycles": s.GCCycles,
			"gc_pause_p50_us": s.GCPauseP50US, "gc_pause_p95_us": s.GCPauseP95US,
			"sched_lat_p95_us": s.SchedLatP95US,
		}
		if s.Final {
			attrs["final"] = true
		}
		rec := obs.SpanRecord{Span: uint64(i + 1), Kind: obs.KindEvent, Name: profile.EventSample, StartUS: s.TMS * 1000, Attrs: attrs}
		if err := enc.Encode(rec); err != nil {
			t.Fatal(err)
		}
	}
	tr, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// steadySamples fabricates a healthy run: flat goroutine count, sawtooth
// heap around a stable floor, steady allocation.
func steadySamples(n int) []profSample {
	rows := make([]profSample, n)
	for i := range rows {
		heap := uint64(8 << 20)
		if i%4 == 1 {
			heap += 2 << 20 // sawtooth peak, floor unchanged
		}
		rows[i] = profSample{
			TMS:             int64(i * 100),
			Goroutines:      20 + int64(i%3),
			HeapLiveBytes:   heap,
			TotalAllocBytes: uint64(1<<20) * uint64(i+1),
			GCCycles:        uint64(i / 4),
			GCPauseP50US:    50,
			GCPauseP95US:    200,
			SchedLatP95US:   80,
		}
	}
	return rows
}

// leakySamples fabricates a leak: goroutines and heap floor both grow
// monotonically and substantially.
func leakySamples(n int) []profSample {
	rows := steadySamples(n)
	for i := range rows {
		rows[i].Goroutines = 20 + int64(i*8)
		rows[i].HeapLiveBytes = uint64(8<<20) + uint64(i)*(1<<20)
		rows[i].TotalAllocBytes = uint64(4<<20) * uint64(i+1)
	}
	return rows
}

func TestProfReportSteady(t *testing.T) {
	r := NewProfReport(sampleTrace(t, steadySamples(40)))
	if r.Samples != 40 {
		t.Fatalf("Samples = %d", r.Samples)
	}
	if r.GoroutineLeak {
		t.Error("steady run flagged as goroutine leak")
	}
	if r.HeapGrowth {
		t.Error("steady run flagged as heap growth")
	}
	if r.Unhealthy() {
		t.Error("steady run unhealthy")
	}
	if r.DurationS <= 0 || r.AllocRateBPS <= 0 {
		t.Errorf("duration %g rate %g", r.DurationS, r.AllocRateBPS)
	}
	if len(r.Windows) != 4 {
		t.Errorf("windows = %d, want 4", len(r.Windows))
	}
	// Slope of a flat-floor sawtooth should be near zero relative to heap size.
	if r.HeapSlopeBPS > 1<<20 || r.HeapSlopeBPS < -(1<<20) {
		t.Errorf("steady slope = %g B/s", r.HeapSlopeBPS)
	}
	var text bytes.Buffer
	if err := r.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text.String(), "verdict: ok") {
		t.Errorf("text missing ok verdict:\n%s", text.String())
	}
	// `obs prof -json` is the same report, field for field.
	var blob bytes.Buffer
	if err := r.WriteJSON(&blob); err != nil {
		t.Fatal(err)
	}
	var back ProfReport
	if err := json.Unmarshal(blob.Bytes(), &back); err != nil || !reflect.DeepEqual(&back, r) {
		t.Errorf("-json round trip = %+v, %v; want %+v", back, err, *r)
	}
}

// warmupSamples fabricates a warmup-then-plateau run: building retained
// state (adapters, artifact zoo) raises the heap floor early, then
// retention plateaus and the ceilings subside as the transient build
// garbage is collected. Not a leak.
func warmupSamples(n int) []profSample {
	rows := steadySamples(n)
	for i := range rows {
		switch {
		case i < n/2: // warmup: floor climbs, churn spikes the ceiling
			rows[i].HeapLiveBytes = uint64(8<<20) + uint64(i)*(8<<20)
			if i%3 == 1 {
				rows[i].HeapLiveBytes += 64 << 20
			}
		default: // plateau: retention drifts up mildly, ceilings subside
			rows[i].HeapLiveBytes = uint64(8<<20) + uint64(n/2)*(8<<20) +
				uint64(i)*(1<<17) + uint64(i%4)<<20
		}
	}
	return rows
}

func TestProfReportWarmupIsNotALeak(t *testing.T) {
	r := NewProfReport(sampleTrace(t, warmupSamples(40)))
	if r.HeapGrowth {
		t.Error("warmup-then-plateau run flagged as heap growth")
	}
	if r.Unhealthy() {
		t.Error("warmup-then-plateau run unhealthy")
	}
}

// A plateau whose floor jitters upward by a fraction of a percent between
// two windows is not a rise, even when the windows around it climb and every
// ceiling does: the shape of the serve drill once a zoo build stops
// holding dead training state (floors 1 → 46 → 46 → 55 MiB).
func TestProfReportPlateauJitterIsNotALeak(t *testing.T) {
	const mib = 1 << 20
	floors := []uint64{1 * mib, 45*mib + 860<<10, 45*mib + 930<<10, 55 * mib}
	ceils := []uint64{88 * mib, 127 * mib, 134 * mib, 204 * mib}
	rows := steadySamples(40)
	for i := range rows {
		w := i / 10
		rows[i].HeapLiveBytes = floors[w]
		if i%10 == 5 {
			rows[i].HeapLiveBytes = ceils[w]
		}
	}
	if r := NewProfReport(sampleTrace(t, rows)); r.HeapGrowth {
		t.Error("plateau with sub-percent floor jitter flagged as heap growth")
	}
}

func TestProfReportDetectsLeaks(t *testing.T) {
	r := NewProfReport(sampleTrace(t, leakySamples(40)))
	if !r.GoroutineLeak {
		t.Error("goroutine leak not detected")
	}
	if !r.HeapGrowth {
		t.Error("heap growth not detected")
	}
	if !r.Unhealthy() {
		t.Error("leaky run reported healthy")
	}
	if r.HeapSlopeBPS <= 0 {
		t.Errorf("leaky slope = %g, want > 0", r.HeapSlopeBPS)
	}
	var text bytes.Buffer
	if err := r.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	out := text.String()
	if !strings.Contains(out, "goroutine leak suspected") || !strings.Contains(out, "UNHEALTHY") {
		t.Errorf("text missing leak warnings:\n%s", out)
	}
}

// A leak that builds during the load and then stays flat never raises a
// window's floor after the first, so only the end-of-run rule sees it: the
// final sample Stop took still holds the parked goroutines. Its controls: a
// final sample back within slack is a healthy drain, and a high last sample
// that is not final is a killed run's truncated trace, which proves nothing.
func TestProfReportFinalSampleRule(t *testing.T) {
	burst := func(final bool, end int64) []profSample {
		rows := steadySamples(40)
		for i := range rows {
			if i >= 5 {
				rows[i].Goroutines = 20 + 268 // the load parks them early
			}
		}
		rows[len(rows)-1].Goroutines = end
		rows[len(rows)-1].Final = final
		return rows
	}
	for _, tc := range []struct {
		name  string
		final bool
		end   int64
		leak  bool
	}{
		{"burst leak stays high at the final sample", true, 20 + 268, true},
		{"final sample back within slack", true, 20 + finalGoroutineSlack, false},
		{"high last sample not final (truncated trace)", false, 20 + 268, false},
	} {
		r := NewProfReport(sampleTrace(t, burst(tc.final, tc.end)))
		if r.GoroutineLeak != tc.leak {
			t.Errorf("%s: GoroutineLeak = %v (%q), want %v", tc.name, r.GoroutineLeak, r.GoroutineLeakRule, tc.leak)
		}
		var text bytes.Buffer
		if err := r.WriteText(&text); err != nil {
			t.Fatal(err)
		}
		if named := strings.Contains(text.String(), "WARNING: goroutine leak suspected — the final sample holds 268 goroutines above the first"); named != tc.leak {
			t.Errorf("%s: the warning names the final-sample rule = %v, want %v:\n%s", tc.name, named, tc.leak, text.String())
		}
	}
}

func TestProfReportDegenerate(t *testing.T) {
	if r := NewProfReport(&Trace{}); r.Samples != 0 || r.Unhealthy() {
		t.Errorf("empty trace report: %+v", r)
	}
	one := steadySamples(1)
	one[0].Final = true
	if r := NewProfReport(sampleTrace(t, one)); r.Unhealthy() || r.Samples != 1 {
		t.Errorf("single-sample report: %+v", r)
	}
	// Few samples: windows clamp rather than divide by zero.
	r := NewProfReport(sampleTrace(t, steadySamples(3)))
	if len(r.Windows) == 0 {
		t.Error("no windows for a short run")
	}
}

// TestProfSamplesFromTrace: NewProfReport reads only runtime.sample events,
// a malformed reading loads as zero and never panics, and the readings a
// real sampler writes into a real trace are the ones it reads.
func TestProfSamplesFromTrace(t *testing.T) {
	trace := strings.Join([]string{
		`{"span":1,"kind":"event","name":"runtime.sample","start_us":1000,"attrs":{"goroutines":"many","heap_live_bytes":-5,"gc_cycles":3}}`,
		`{"span":2,"kind":"event","name":"akb.candidate","start_us":1500,"attrs":{"goroutines":999,"heap_live_bytes":999}}`,
		`{"span":3,"name":"runtime.sample","start_us":1800,"dur_us":5,"attrs":{"goroutines":999}}`,
		`{"span":4,"kind":"event","name":"runtime.sample","start_us":2000,"attrs":{"goroutines":7,"final":"yes"}}`,
		`{"span":5,"kind":"event","name":"runtime.sample","start_us":3000}`,
	}, "\n")
	tr, err := Load(strings.NewReader(trace))
	if err != nil {
		t.Fatal(err)
	}
	rows := profSamples(tr)
	want := []profSample{{TMS: 1, GCCycles: 3}, {TMS: 2, Goroutines: 7}, {TMS: 3}}
	if len(rows) != len(want) {
		t.Fatalf("samples = %+v, want %+v", rows, want)
	}
	for i := range want {
		if rows[i] != want[i] {
			t.Errorf("sample %d = %+v, want %+v", i, rows[i], want[i])
		}
	}
	if r := NewProfReport(tr); r.Samples != 3 || r.GoroutineMax != 7 || r.Unhealthy() {
		t.Errorf("report over malformed samples: %+v", r)
	}

	var buf bytes.Buffer
	tracer := obs.NewTracer(&buf)
	s := profile.Start(profile.Config{Interval: time.Millisecond, Rec: obs.NewRecorder(nil, tracer)})
	s.Stop() // the first sample and the final one, at least
	if err := tracer.Close(); err != nil {
		t.Fatal(err)
	}
	if tr, err = Load(&buf); err != nil {
		t.Fatal(err)
	}
	rows = profSamples(tr)
	if int64(len(rows)) != s.Samples() || len(rows) < 2 || !rows[len(rows)-1].Final {
		t.Fatalf("a real sampler's trace reads as %d samples (sampler took %d), last final = %v", len(rows), s.Samples(), len(rows) > 0 && rows[len(rows)-1].Final)
	}
	for i, row := range rows {
		if row.Goroutines <= 0 || row.HeapLiveBytes == 0 || row.TotalAllocBytes == 0 {
			t.Errorf("sample %d reads implausibly: %+v", i, row)
		}
	}
}
