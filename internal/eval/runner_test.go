package eval

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/analyze"
)

// --- Zoo.memo concurrency -----------------------------------------------------

func TestMemoPanicDoesNotWedgeLaterCalls(t *testing.T) {
	z := NewZoo(1, 0.5)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("builder panic must propagate to the memo caller")
			}
		}()
		z.memo("k", func() interface{} { panic("boom") })
	}()
	// The in-flight marker must have been cleared: a retry on another
	// goroutine must run its builder instead of waiting forever.
	done := make(chan interface{}, 1)
	go func() { done <- z.memo("k", func() interface{} { return 42 }) }()
	select {
	case v := <-done:
		if v != 42 {
			t.Fatalf("retry returned %v, want 42", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("memo wedged after a builder panic (leaked in-flight marker)")
	}
}

func TestMemoPanicWakesConcurrentWaiter(t *testing.T) {
	z := NewZoo(1, 0.5)
	entered := make(chan struct{})
	release := make(chan struct{})
	go func() {
		defer func() { recover() }()
		z.memo("k", func() interface{} {
			close(entered)
			<-release
			panic("boom")
		})
	}()
	<-entered
	done := make(chan interface{}, 1)
	go func() { done <- z.memo("k", func() interface{} { return "rebuilt" }) }()
	// Let the second goroutine reach the wait on the in-flight marker, then
	// panic the first builder; the broadcast must wake the waiter, which
	// retries the build itself.
	time.Sleep(20 * time.Millisecond)
	close(release)
	select {
	case v := <-done:
		if v != "rebuilt" {
			t.Fatalf("waiter got %v, want rebuilt", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter wedged after the in-flight builder panicked")
	}
}

func TestMemoBuildsOnceUnderContention(t *testing.T) {
	z := NewZoo(1, 0.5)
	var builds atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v := z.memo("k", func() interface{} {
				builds.Add(1)
				time.Sleep(5 * time.Millisecond)
				return "v"
			})
			if v != "v" {
				t.Errorf("memo returned %v", v)
			}
		}()
	}
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Fatalf("builder ran %d times under contention, want 1", n)
	}
}

// --- runCells ------------------------------------------------------------------

func TestRunCellsPreservesDeclarationOrder(t *testing.T) {
	z := NewZoo(1, 0.5)
	z.Workers = 4
	var jobs []cellJob[int]
	for i := 0; i < 32; i++ {
		jobs = append(jobs, cellJob[int]{
			Label: "j",
			Run: func(_ *obs.Recorder) int {
				// Stagger finish times so a schedule-dependent assembly
				// would scramble the slice.
				time.Sleep(time.Duration(i%5) * time.Millisecond)
				return i
			},
		})
	}
	out := runCells(z, jobs)
	for i, v := range out {
		if v != i {
			t.Fatalf("out[%d] = %d: results not in declaration order", i, v)
		}
	}
}

func TestRunCellsSerialPathUsesCallingGoroutine(t *testing.T) {
	z := NewZoo(1, 0.5) // Workers zero value: serial
	ran := 0
	out := runCells(z, []cellJob[int]{{Label: "a", Run: func(_ *obs.Recorder) int { ran++; return 7 }}})
	if ran != 1 || out[0] != 7 {
		t.Fatalf("serial path ran=%d out=%v", ran, out)
	}
}

func TestRunCellsPropagatesWorkerPanic(t *testing.T) {
	z := NewZoo(1, 0.5)
	z.Workers = 2
	jobs := []cellJob[int]{
		{Label: "ok", Run: func(_ *obs.Recorder) int { return 1 }},
		{Label: "bad", Run: func(_ *obs.Recorder) int { panic("cell exploded") }},
		{Label: "ok2", Run: func(_ *obs.Recorder) int { return 3 }},
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("runCells swallowed a worker panic")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "cell exploded") {
			t.Fatalf("panic %v does not carry the cell's message", r)
		}
	}()
	runCells(z, jobs)
}

func TestRunCellsRecordsWorkerTelemetry(t *testing.T) {
	z := NewZoo(1, 0.5)
	z.Workers = 3
	var buf strings.Builder
	tracer := obs.NewTracer(&buf)
	reg := obs.NewRegistry()
	z.Rec = obs.NewRecorder(reg, tracer)
	jobs := make([]cellJob[int], 6)
	for i := range jobs {
		jobs[i] = cellJob[int]{Label: "cell", Run: func(_ *obs.Recorder) int { return i }}
	}
	runCells(z, jobs)
	if err := tracer.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := obs.ReadTrace(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	workers, cells := 0, 0
	workerIDs := map[uint64]bool{}
	for _, r := range recs {
		switch r.Name {
		case "eval.worker":
			workers++
			workerIDs[r.Span] = true
		case "eval.cell":
			cells++
		}
	}
	if workers != 3 {
		t.Fatalf("trace has %d eval.worker spans, want 3", workers)
	}
	if cells != len(jobs) {
		t.Fatalf("trace has %d eval.cell spans, want %d", cells, len(jobs))
	}
	// Every cell span must be parented to a worker span so obs trace
	// self-time accounting attributes cell work to its worker.
	for _, r := range recs {
		if r.Name == "eval.cell" && !workerIDs[r.Parent] {
			t.Fatalf("eval.cell span %d has non-worker parent %d", r.Span, r.Parent)
		}
	}
	snap := reg.Snapshot()
	if v, ok := snap.Gauges["eval.workers"]; !ok || v != 3 {
		t.Fatalf("eval.workers gauge = %v (present=%v), want 3", v, ok)
	}
	if h, ok := snap.Histograms["eval.cell_queue_us"]; !ok || h.Count != int64(len(jobs)) {
		t.Fatalf("eval.cell_queue_us count = %d (present=%v), want %d", h.Count, ok, len(jobs))
	}
}

// tracedTable6 runs the small Table VI grid under one root span, the way
// `knowtrans experiment` wraps each experiment, and returns the table with
// the trace's self-time coverage (Σ self time / root duration).
func tracedTable6(t *testing.T, z *Zoo, workers int, keys []string) (*Table, float64) {
	t.Helper()
	var buf bytes.Buffer
	tracer := obs.NewTracer(&buf)
	rec, span := obs.NewRecorder(obs.NewRegistry(), tracer).StartSpan("experiment")
	z.Rec, z.Workers = rec, workers
	tab := runTable6On(z, 1, keys)
	span.End()
	if err := tracer.Close(); err != nil {
		t.Fatal(err)
	}
	// One adapt+evaluate latency per cell repetition, by method column.
	for _, col := range tab.Columns {
		if h := rec.Metrics.Snapshot().Histograms["eval.cell_us/"+col]; h.Count != int64(len(keys)) {
			t.Errorf("eval.cell_us/%s holds %d observations, want one per dataset (%d)", col, h.Count, len(keys))
		}
	}
	tr, err := analyze.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return tab, analyze.NewReport(tr, 0).Coverage
}

// TestTable6SerialParallelDeterminism is the determinism gate: the same seed
// gives the same Table VI grid bit for bit — every cell and every average
// row compared with math.Float64bits — serial and traced, serial and
// untraced, and on four workers. The two traced runs also pin the span
// tree's accounting: per-stage self times must add up to the root span (a
// serial trace has one timeline, so coverage is bounded both ways; worker
// spans overlap, so four workers only have the lower bound).
func TestTable6SerialParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a zoo (~8 s)")
	}
	z := zooForTest()
	keys := []string{"ED/Flights", "EM/Abt-Buy"}
	prevRec, prevWorkers := z.Rec, z.Workers
	defer func() { z.Rec, z.Workers = prevRec, prevWorkers }()

	serial, scov := tracedTable6(t, z, 1, keys)
	if scov < 0.95 || scov > 1.05 {
		t.Errorf("serial self-time coverage %.3f outside [0.95, 1.05]", scov)
	}
	z.Rec, z.Workers = nil, 1
	requireSameBits(t, "serial untraced", serial, runTable6On(z, 1, keys))
	parallel, pcov := tracedTable6(t, z, 4, keys)
	if pcov < 0.95 {
		t.Errorf("4-worker self-time coverage %.3f below 0.95", pcov)
	}
	requireSameBits(t, "4 workers", serial, parallel)
	t.Logf("self-time coverage: serial %.3f, 4 workers %.3f", scov, pcov)
}

// requireSameBits fails unless got holds exactly want's rows and cells.
func requireSameBits(t *testing.T, name string, want, got *Table) {
	t.Helper()
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("%s: %d rows, want %d", name, len(got.Rows), len(want.Rows))
	}
	for i, w := range want.Rows {
		g := got.Rows[i]
		if g.Task != w.Task || g.Dataset != w.Dataset || len(g.Cells) != len(w.Cells) {
			t.Fatalf("%s: row %d is %s/%s with %d cells, want %s/%s with %d",
				name, i, g.Task, g.Dataset, len(g.Cells), w.Task, w.Dataset, len(w.Cells))
		}
		for col, wv := range w.Cells {
			if gv, ok := g.Cells[col]; !ok || math.Float64bits(gv) != math.Float64bits(wv) {
				t.Errorf("%s: %s/%s %s = %v (%#x), want %v (%#x)", name, w.Task, w.Dataset, col,
					gv, math.Float64bits(gv), wv, math.Float64bits(wv))
			}
		}
	}
}
