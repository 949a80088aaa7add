package analyze

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs/profile"
)

// steadyTimeline fabricates a healthy run: flat goroutine count, sawtooth
// heap around a stable floor, steady allocation.
func steadyTimeline(n int) []profile.Sample {
	rows := make([]profile.Sample, n)
	for i := range rows {
		heap := uint64(8 << 20)
		if i%4 == 1 {
			heap += 2 << 20 // sawtooth peak, floor unchanged
		}
		rows[i] = profile.Sample{
			TMS:             int64(i * 100),
			Seq:             int64(i + 1),
			Goroutines:      20 + int64(i%3),
			HeapLiveBytes:   heap,
			HeapObjects:     10000,
			TotalAllocBytes: uint64(1<<20) * uint64(i+1),
			GCCycles:        uint64(i / 4),
			GCPauseP50US:    50,
			GCPauseP95US:    200,
			SchedLatP50US:   10,
			SchedLatP95US:   80,
		}
	}
	return rows
}

// leakyTimeline fabricates a leak: goroutines and heap floor both grow
// monotonically and substantially.
func leakyTimeline(n int) []profile.Sample {
	rows := steadyTimeline(n)
	for i := range rows {
		rows[i].Goroutines = 20 + int64(i*8)
		rows[i].HeapLiveBytes = uint64(8<<20) + uint64(i)*(1<<20)
		rows[i].TotalAllocBytes = uint64(4<<20) * uint64(i+1)
	}
	return rows
}

func TestProfReportSteady(t *testing.T) {
	r := NewProfReport(steadyTimeline(40), 4)
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
}

// warmupTimeline fabricates a warmup-then-plateau run: building retained
// state (adapters, artifact zoo) raises the heap floor early, then
// retention plateaus and the ceilings subside as the transient build
// garbage is collected. Not a leak.
func warmupTimeline(n int) []profile.Sample {
	rows := steadyTimeline(n)
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
	r := NewProfReport(warmupTimeline(40), 4)
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
	rows := steadyTimeline(40)
	for i := range rows {
		w := i / 10
		rows[i].HeapLiveBytes = floors[w]
		if i%10 == 5 {
			rows[i].HeapLiveBytes = ceils[w]
		}
	}
	if r := NewProfReport(rows, 4); r.HeapGrowth {
		t.Error("plateau with sub-percent floor jitter flagged as heap growth")
	}
}

func TestProfReportDetectsLeaks(t *testing.T) {
	r := NewProfReport(leakyTimeline(40), 4)
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

func TestProfReportDegenerate(t *testing.T) {
	if r := NewProfReport(nil, 4); r.Samples != 0 || r.Unhealthy() {
		t.Errorf("empty timeline report: %+v", r)
	}
	one := steadyTimeline(1)
	if r := NewProfReport(one, 4); r.Unhealthy() || r.Samples != 1 {
		t.Errorf("single-sample report: %+v", r)
	}
	// Few samples: windows clamp rather than divide by zero.
	r := NewProfReport(steadyTimeline(3), 8)
	if len(r.Windows) == 0 {
		t.Error("no windows for short timeline")
	}
}

func TestLoadTimeline(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "runtime.jsonl")
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, s := range steadyTimeline(5) {
		if err := enc.Encode(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	rows, err := LoadTimeline(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	if _, err := LoadTimeline(filepath.Join(dir, "missing.jsonl")); err == nil {
		t.Error("missing file did not error")
	}
	empty := filepath.Join(dir, "empty.jsonl")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadTimeline(empty); err == nil {
		t.Error("empty timeline did not error")
	}
}
