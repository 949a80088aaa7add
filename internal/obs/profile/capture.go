package profile

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// ErrCaptureActive reports that a CPU capture was requested while another
// one (this package's or the process-wide -cpuprofile) is running; the Go
// runtime supports exactly one CPU profile at a time.
var ErrCaptureActive = errors.New("profile: a CPU capture is already active")

var cpuMu sync.Mutex

// CaptureCPU records a CPU profile of duration d to w. It serializes
// against other CaptureCPU calls and fails fast with ErrCaptureActive
// when the runtime already has a CPU profile running (e.g. a whole-run
// -cpuprofile).
func CaptureCPU(w io.Writer, d time.Duration) error {
	cpuMu.Lock()
	defer cpuMu.Unlock()
	if err := pprof.StartCPUProfile(w); err != nil {
		return fmt.Errorf("%w: %v", ErrCaptureActive, err)
	}
	time.Sleep(d)
	pprof.StopCPUProfile()
	return nil
}

// WriteHeap writes the current heap profile to w, after a forced GC so
// the profile reflects live objects rather than garbage awaiting
// collection.
func WriteHeap(w io.Writer) error {
	runtime.GC()
	return pprof.Lookup("heap").WriteTo(w, 0)
}

// Trigger captures CPU and heap profiles to files when poked — the
// serving layer pokes it when a request crosses the slow threshold, so
// "why was that slow" arrives with the profile of the moment it happened.
// Captures are one-at-a-time with a cooldown, so a burst of slow requests
// costs one capture, not a capture per request.
type Trigger struct {
	// Dir receives the profile files (cpu-<n>-<reason>.pprof,
	// heap-<n>-<reason>.pprof). Required.
	Dir string
	// CPUDuration is how long the triggered CPU capture runs. Default 1s.
	CPUDuration time.Duration
	// Cooldown is the minimum time between captures. Default 30s.
	Cooldown time.Duration
	// Rec counts captures (profile.captures / profile.capture_errors) and
	// records a capture event naming the files. Optional.
	Rec *obs.Recorder

	seq    atomic.Int64
	active atomic.Bool
	lastNS atomic.Int64
}

// Capture requests a capture attributed to reason (e.g. the route of the
// slow request). It returns immediately; the capture runs on its own
// goroutine. The return reports whether a capture was started (false:
// another is active, the cooldown has not elapsed, or the trigger is
// nil/unconfigured).
func (t *Trigger) Capture(reason string) bool {
	if t == nil || t.Dir == "" {
		return false
	}
	cooldown := t.Cooldown
	if cooldown <= 0 {
		cooldown = 30 * time.Second
	}
	now := time.Now().UnixNano()
	last := t.lastNS.Load()
	if last != 0 && time.Duration(now-last) < cooldown {
		return false
	}
	if !t.active.CompareAndSwap(false, true) {
		return false
	}
	t.lastNS.Store(now)
	n := t.seq.Add(1)
	go t.run(n, reason)
	return true
}

func (t *Trigger) run(n int64, reason string) {
	defer t.active.Store(false)
	dur := t.CPUDuration
	if dur <= 0 {
		dur = time.Second
	}
	base := fmt.Sprintf("%d-%s", n, sanitizeReason(reason))
	heapPath := filepath.Join(t.Dir, "heap-"+base+".pprof")
	cpuPath := filepath.Join(t.Dir, "cpu-"+base+".pprof")

	// The event is written before the counter moves, so a reader that saw
	// the count finds the event in the trace.
	fail := func(err error) {
		t.Rec.Event("profile.capture_failed", "reason", reason, "error", err.Error())
		t.Rec.Count("profile.capture_errors", 1)
	}
	hf, err := os.Create(heapPath)
	if err != nil {
		fail(err)
		return
	}
	if err := WriteHeap(hf); err != nil {
		hf.Close()
		fail(err)
		return
	}
	if err := hf.Close(); err != nil {
		fail(err)
		return
	}
	cf, err := os.Create(cpuPath)
	if err != nil {
		fail(err)
		return
	}
	cerr := CaptureCPU(cf, dur)
	if err := cf.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		// A whole-run -cpuprofile already owns the CPU profiler; the heap
		// snapshot above still landed, so count the partial capture.
		if !errors.Is(err, ErrCaptureActive) {
			fail(err)
			return
		}
		os.Remove(cpuPath)
		cpuPath = ""
	}
	t.Rec.Event("profile.captured", "reason", reason, "heap", heapPath, "cpu", cpuPath)
	t.Rec.Count("profile.captures", 1)
}

// sanitizeReason keeps capture file names shell- and filesystem-safe.
func sanitizeReason(reason string) string {
	if reason == "" {
		return "manual"
	}
	out := make([]byte, 0, len(reason))
	for i := 0; i < len(reason) && len(out) < 32; i++ {
		c := reason[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_':
			out = append(out, c)
		default:
			out = append(out, '_')
		}
	}
	return string(out)
}
