package profile

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// syncBuffer lets a test read the trace while a capture goroutine may still
// be writing — the race detector keeps us honest.
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

func TestWriteHeapAndCaptureCPU(t *testing.T) {
	var heap bytes.Buffer
	if err := WriteHeap(&heap); err != nil {
		t.Fatalf("WriteHeap: %v", err)
	}
	if heap.Len() == 0 {
		t.Fatal("empty heap profile")
	}
	var cpu bytes.Buffer
	if err := CaptureCPU(&cpu, 10*time.Millisecond); err != nil {
		t.Fatalf("CaptureCPU: %v", err)
	}
	if cpu.Len() == 0 {
		t.Fatal("empty cpu profile")
	}
}

func TestTriggerCapturesOnceWithCooldown(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	var trace syncBuffer
	tr := &Trigger{
		Dir:         dir,
		CPUDuration: 5 * time.Millisecond,
		Cooldown:    time.Hour,
		Rec:         obs.NewRecorder(reg, obs.NewTracer(&trace)),
	}
	if !tr.Capture("predict") {
		t.Fatal("first capture refused")
	}
	// Cooldown: immediate retriggers are refused without blocking.
	if tr.Capture("predict") {
		t.Error("capture inside cooldown accepted")
	}
	// Wait for the async capture to land.
	deadline := time.Now().Add(2 * time.Second)
	var files []string
	for time.Now().Before(deadline) {
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		files = files[:0]
		for _, e := range ents {
			files = append(files, e.Name())
		}
		if reg.Counter("profile.captures").Value() > 0 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if reg.Counter("profile.captures").Value() != 1 {
		t.Fatalf("captures counter = %d (errors %d), files %v",
			reg.Counter("profile.captures").Value(),
			reg.Counter("profile.capture_errors").Value(), files)
	}
	var haveHeap, haveCPU bool
	for _, f := range files {
		full := filepath.Join(dir, f)
		fi, err := os.Stat(full)
		if err != nil || fi.Size() == 0 {
			t.Errorf("capture file %s missing or empty", f)
		}
		if len(f) > 4 && f[:4] == "heap" {
			haveHeap = true
		}
		if len(f) > 3 && f[:3] == "cpu" {
			haveCPU = true
		}
	}
	if !haveHeap || !haveCPU {
		t.Errorf("capture files = %v, want heap-* and cpu-*", files)
	}
	// The trace says where the capture went: the handle from a slow request's
	// timeline to the profile of that moment.
	ev := onlyEvent(t, tr, &trace, "profile.captured")
	if heap, _ := ev.Attrs["heap"].(string); filepath.Dir(heap) != dir || ev.Attrs["reason"] != "predict" {
		t.Errorf("profile.captured attrs = %v, want the heap path under %s and the reason", ev.Attrs, dir)
	}
}

// TestTriggerReportsFailure: a capture that cannot write is counted, and the
// trace carries the error — nothing else records why it failed.
func TestTriggerReportsFailure(t *testing.T) {
	reg := obs.NewRegistry()
	var trace syncBuffer
	tr := &Trigger{
		Dir: filepath.Join(t.TempDir(), "never-created"),
		Rec: obs.NewRecorder(reg, obs.NewTracer(&trace)),
	}
	if !tr.Capture("predict") {
		t.Fatal("capture refused")
	}
	for deadline := time.Now().Add(2 * time.Second); reg.Counter("profile.capture_errors").Value() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("profile.capture_errors never moved")
		}
	}
	if n := reg.Counter("profile.captures").Value(); n != 0 {
		t.Errorf("profile.captures = %d for a failed capture", n)
	}
	if ev := onlyEvent(t, tr, &trace, "profile.capture_failed"); ev.Attrs["error"] == nil || ev.Attrs["reason"] != "predict" {
		t.Errorf("profile.capture_failed attrs = %v, want the error and the reason", ev.Attrs)
	}
}

// onlyEvent closes the trigger's tracer and returns the one record named name.
func onlyEvent(t *testing.T, tr *Trigger, trace *syncBuffer, name string) obs.SpanRecord {
	t.Helper()
	if err := tr.Rec.Tracer.Close(); err != nil {
		t.Fatal(err)
	}
	recs, _, err := obs.ReadJSONL[obs.SpanRecord](strings.NewReader(trace.String()))
	if err != nil {
		t.Fatal(err)
	}
	var found []obs.SpanRecord
	for _, r := range recs {
		if r.Name == name {
			found = append(found, r)
		}
	}
	if len(found) != 1 {
		t.Fatalf("trace holds %d %s events, want 1 (records: %+v)", len(found), name, recs)
	}
	return found[0]
}

func TestTriggerNilAndUnconfigured(t *testing.T) {
	var tr *Trigger
	if tr.Capture("x") {
		t.Error("nil trigger captured")
	}
	if (&Trigger{}).Capture("x") {
		t.Error("dirless trigger captured")
	}
}

func TestSanitizeReason(t *testing.T) {
	if got := sanitizeReason("EM/Walmart-Amazon"); got != "EM_Walmart-Amazon" {
		t.Errorf("sanitizeReason = %q", got)
	}
	if got := sanitizeReason(""); got != "manual" {
		t.Errorf("empty reason = %q", got)
	}
}
