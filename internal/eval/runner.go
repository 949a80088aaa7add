package eval

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/obs/profile"
)

// cellJob is one independent unit of experiment work — typically a
// (dataset × method) cell of a result table, averaged over its repetitions
// inside Run so the floating-point summation order never depends on the
// schedule. Label names the cell in worker spans; Run receives the recorder
// its telemetry should attach to: the cell's own, under its eval.cell span.
type cellJob[T any] struct {
	Label string
	Run   func(rec *obs.Recorder) T
}

// cellPanic carries a worker goroutine's panic back to the caller.
type cellPanic struct {
	val   interface{}
	stack []byte
}

// runCells evaluates jobs on min(max(z.Workers, 1), len(jobs)) goroutines
// and returns the results in declaration order; one worker runs them in
// order. Determinism does not depend on scheduling: every job derives its
// randomness from content-addressed keys (fewShotRNG / repSeed over cellKey
// strings), reads only immutable zoo artifacts, and writes only its own
// output slot — so tables assembled from the returned slice are
// byte-identical at any worker count.
//
// The pool is instrumented through the obs layer: an eval.workers gauge,
// an eval.cell_queue_us histogram (delay from pool start to each cell's
// dispatch), one eval.worker span per goroutine with eval.cell child spans
// per job. A panicking job does not wedge the pool — the remaining
// workers drain and the first panic is re-raised on the calling goroutine
// with the worker's stack.
func runCells[T any](z *Zoo, jobs []cellJob[T]) []T {
	out := make([]T, len(jobs))
	workers := min(max(z.Workers, 1), len(jobs))
	z.Rec.SetGauge("eval.workers", float64(workers))
	start := z.Rec.Now()
	var next atomic.Int64
	panics := make(chan cellPanic, 1)
	var wg sync.WaitGroup
	for wi := 0; wi < workers; wi++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					select {
					case panics <- cellPanic{val: r, stack: debug.Stack()}:
					default: // another worker's panic is already pending
					}
				}
			}()
			wrec, wspan := z.Rec.StartSpan("eval.worker")
			wspan.SetAttr("worker", wi)
			defer wspan.End()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				z.Rec.ObserveSince("eval.cell_queue_us", start)
				crec, cspan := wrec.StartSpan("eval.cell")
				cspan.SetAttr("cell", jobs[i].Label)
				// The cell runs under a pprof label so CPU profiles of a
				// table build attribute samples to the (dataset ×
				// method) cell that burned them.
				profile.Do(context.Background(), func(context.Context) {
					out[i] = jobs[i].Run(crec)
				}, profile.LabelCell, jobs[i].Label)
				cspan.End()
			}
		}()
	}
	wg.Wait()
	select {
	case p := <-panics:
		panic(fmt.Sprintf("eval: experiment cell panicked: %v\n%s", p.val, p.stack))
	default:
	}
	return out
}
