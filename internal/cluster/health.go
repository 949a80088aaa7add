package cluster

import (
	"context"
	"math/rand"
	"net/http"
	"time"

	"repro/internal/serve"
)

// probeLoop is one backend's health checker: GET /readyz every
// ProbeInterval (with seeded jitter so a fleet of probes never beats in
// lockstep), exponential backoff while the backend is failing, ejection
// after failThreshold consecutive failures, rejoin on the first success.
// Probing /readyz — not /healthz — is what makes a drain graceful: a
// draining backend flips to 503 and leaves the rotation while the process
// stays alive to finish its in-flight batches.
func (r *Router) probeLoop(b *backendState, seed int64) {
	defer r.wg.Done()
	rng := rand.New(rand.NewSource(seed))
	for {
		r.probe(b)
		iv := r.opts.ProbeInterval
		if b.probeFails > 0 {
			// Exponential backoff while failing, capped at 8× the base: a
			// dead backend gets probed often enough to rejoin promptly
			// without being hammered.
			shift := b.probeFails
			if shift > 3 {
				shift = 3
			}
			iv <<= shift
		}
		// Seeded jitter in [iv/2, 3iv/2): deterministic per (Seed, backend).
		d := iv/2 + time.Duration(rng.Int63n(int64(iv)))
		select {
		case <-time.After(d):
		case <-r.stopc:
			return
		}
	}
}

// probe runs one /readyz round trip and applies the verdict.
func (r *Router) probe(b *backendState) {
	ctx, cancel := context.WithTimeout(context.Background(), probeTimeout)
	defer cancel()
	var rr serve.ReadyResponse
	ok := r.roundTrip(ctx, b, nil, http.MethodGet, "/readyz", nil, &rr) == nil && rr.OK
	if ok {
		b.resident.Store(int64(rr.Resident))
		b.probeFails = 0
		if !b.healthy.Swap(true) {
			r.rejoins.Add(1)
			r.rec.SetGauge("cluster.backend_healthy/"+b.url, 1)
		}
	} else {
		b.probeFails++
		if b.probeFails >= failThreshold && b.healthy.Swap(false) {
			r.ejections.Add(1)
			r.rec.Count("cluster.ejections", 1)
			r.rec.SetGauge("cluster.backend_healthy/"+b.url, 0)
		}
	}
	healthy := 0
	for _, bb := range r.order {
		if bb.healthy.Load() {
			healthy++
		}
	}
	r.rec.SetGauge("cluster.backends_healthy", float64(healthy))
}
