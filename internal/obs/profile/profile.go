// Package profile is the resource-accounting half of the observability
// layer: where internal/obs answers "where does wall time go", this
// package answers "where do CPU, allocations, and GC time go" — the
// questions every hot-path optimization PR must answer before and after.
//
// It provides three instruments:
//
//   - Sampler: a background poller over runtime/metrics (live heap bytes,
//     cumulative allocations, GC pause distribution, goroutine count,
//     scheduler latency) that writes one runtime.sample event per tick into
//     the span trace — the resource record `knowtrans obs prof` analyzes.
//   - pprof label plumbing (Do): the serve path runs request handling,
//     batches, and cold-start Transfers under pprof labels (route, key,
//     batch, phase) and eval labels its worker cells, so a captured CPU
//     profile segments by adapter and pipeline stage instead of melting
//     into one anonymous flame.
//   - Capture: on-demand CPU/heap profile writes plus a slow-request
//     Trigger that snapshots the process when latency crosses the
//     operator's threshold.
//
// Everything is stdlib-only (runtime/metrics, runtime/pprof) and follows
// the obs conventions: nil-safe methods, zero cost when disabled.
package profile

import (
	"context"
	"runtime/pprof"
)

// EventSample is the trace event the Sampler writes on every tick. Its
// attributes are the readings `obs prof` summarizes (goroutines,
// heap_live_bytes, total_alloc_bytes, gc_cycles, gc_pause_p50_us,
// gc_pause_p95_us, sched_lat_p95_us); the sample Stop takes also carries
// final=true.
const EventSample = "runtime.sample"

// Label keys of the serving and eval paths. A CPU profile captured during
// a load (`-cpuprofile`, /debug/pprof/profile, or a slow-request capture)
// can be cut along these with `go tool pprof -tags`:
//
//	route  HTTP route handling the request (predict, warm, adapters, healthz)
//	key    adapter registry key ("EM/Walmart-Amazon") — per-adapter cost
//	batch  micro-batch size the prediction rode in
//	phase  serve lifecycle phase (transfer = cold-start adaptation)
//	cell   experiment cell label in eval worker pools
const (
	LabelRoute = "route"
	LabelKey   = "key"
	LabelBatch = "batch"
	LabelPhase = "phase"
	LabelCell  = "cell"
)

// Do runs fn with the given pprof labels (alternating key/value pairs)
// applied to both the derived context and the current goroutine, so CPU
// samples taken while fn runs are attributable. It is a thin veneer over
// runtime/pprof.Do that keeps call sites to one line and one import.
func Do(ctx context.Context, fn func(ctx context.Context), kv ...string) {
	pprof.Do(ctx, pprof.Labels(kv...), fn)
}
