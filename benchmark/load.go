package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

// request is one generated predict: which key, which test row of it.
type request struct {
	key string
	row int
}

// generator maps a request index to its request. Generators are stateless
// hashes of (seed, index), so the sequence is the same on every run of a
// seed however the clients interleave.
type generator func(i int) request

// cyclic cycles over keys in order; the seed picks only the row.
func cyclic(e *env, keys []string, seed int64) generator {
	return func(i int) request {
		key := keys[i%len(keys)]
		return request{key, int(draw(seed, i, 1) % uint64(len(e.refs[key].test)))}
	}
}

// uniform draws the key uniformly from keys.
func uniform(e *env, keys []string, seed int64) generator {
	return func(i int) request {
		key := keys[draw(seed, i, 2)%uint64(len(keys))]
		return request{key, int(draw(seed, i, 1) % uint64(len(e.refs[key].test)))}
	}
}

// mixedEvery: one serve_mixed request in this many goes to a cold key.
const mixedEvery = 20

// mixed sends 95% of requests uniformly over hot and 5%, at fixed positions
// of the sequence, round-robin over cold from a key the seed picks. With
// more cold keys than spare registry slots every one of those is a miss, so
// the number of Transfers per request — which at ~58 MiB and ~0.2 s each
// decides alloc_kb_per_op and ops_per_s — does not depend on the seed's luck.
func mixed(e *env, hot, cold []string, seed int64) generator {
	first := int(draw(seed, 0, 3) % uint64(len(cold)))
	return func(i int) request {
		var key string
		if i%mixedEvery == mixedEvery-1 {
			key = cold[(first+i/mixedEvery)%len(cold)]
		} else {
			key = hot[draw(seed, i, 2)%uint64(len(hot))]
		}
		return request{key, int(draw(seed, i, 1) % uint64(len(e.refs[key].test)))}
	}
}

// window is one measured phase: what was sent, how it went, what it cost.
type window struct {
	Name      string    `json:"name"`
	Sent      int       `json:"sent"`
	Succeeded int       `json:"succeeded"`
	Failed    int       `json:"failed"`
	Cold      int       `json:"cold"`
	WallS     float64   `json:"wall_s"`
	Units     int       `json:"units"` // correct rows on job_bulk, correct ops elsewhere
	AllocB    uint64    `json:"alloc_bytes"`
	HeapLiveB uint64    `json:"heap_live_bytes"`
	FirstErr  string    `json:"first_error,omitempty"`
	LatMS     []float64 `json:"-"`
}

func (w *window) fail(err string) {
	w.Failed++
	if w.FirstErr == "" {
		w.FirstErr = err
	}
}

// measure brackets run with the memory readings of the window: TotalAlloc
// across it, and HeapAlloc after a forced collection at its end, with the
// rig still alive so that caches and stores that grow are counted.
func measure(name string, run func(w *window)) *window {
	w := &window{Name: name}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run(w)
	runtime.ReadMemStats(&after)
	w.AllocB = after.TotalAlloc - before.TotalAlloc
	runtime.GC()
	runtime.ReadMemStats(&after)
	w.HeapLiveB = after.HeapAlloc
	return w
}

// httpLoad is a closed loop of clients over keep-alive connections, one
// connection each: every client sends its next request only when the
// previous reply is in.
type httpLoad struct {
	url     string
	clients int
	gen     generator
	e       *env
	tr      *tracing
	// cycle > 1 stops the window only at a multiple of cycle, so that every
	// run of adapt_cold measures whole rounds over its keys and the mix of
	// per-key Transfer costs is the same on every run. With one client only.
	cycle int
	// minOps keeps the window open past its deadline until this many
	// requests were sent; with no time at all it is an exact count.
	minOps int
}

type opOutcome struct {
	latMS float64
	cold  bool
	err   string
}

// run sends requests for at least d and fills w. Requests in flight at the
// deadline complete and count.
func (l *httpLoad) run(w *window, d time.Duration) {
	transport := &http.Transport{MaxIdleConnsPerHost: l.clients, MaxConnsPerHost: l.clients}
	defer transport.CloseIdleConnections()
	client := &http.Client{Transport: transport, Timeout: 120 * time.Second}
	cycle := l.cycle
	if cycle < 1 {
		cycle = 1
	}
	var next atomic.Int64
	outs := make([][]opOutcome, l.clients)
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < l.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			// Sized for the fastest workload so the log does not grow, and
			// show up in the allocation reading, inside the window.
			out := make([]opOutcome, 0, 1<<14)
			for {
				i := int(next.Add(1)) - 1
				if i >= l.minOps && i%cycle == 0 && !time.Now().Before(deadline) {
					break
				}
				out = append(out, l.one(client, l.gen(i)))
			}
			outs[c] = out
		}(c)
	}
	wg.Wait()
	w.WallS = time.Since(start).Seconds()
	for _, out := range outs {
		for _, o := range out {
			w.Sent++
			w.LatMS = append(w.LatMS, o.latMS)
			if o.err != "" {
				w.fail(o.err)
				continue
			}
			w.Succeeded++
			if o.cold {
				w.Cold++
			}
		}
	}
	w.Units = w.Succeeded
}

// one sends one predict and checks the answer against the direct path.
func (l *httpLoad) one(client *http.Client, rq request) opOutcome {
	ref := l.e.refs[rq.key]
	req, err := http.NewRequest(http.MethodPost, l.url+"/v1/predict", bytes.NewReader(ref.bodies[rq.row]))
	if err != nil {
		return opOutcome{err: err.Error()}
	}
	req.Header.Set("Content-Type", "application/json")
	span := l.tr.startOp("op")
	if span != nil {
		req.Header.Set(obs.TraceparentHeader, obs.FormatTraceparent(span.Context()))
	}
	start := time.Now()
	resp, err := client.Do(req)
	var payload []byte
	if err == nil {
		payload, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	var pr serve.PredictResponse
	if err == nil && resp.StatusCode == http.StatusOK {
		err = json.Unmarshal(payload, &pr)
	}
	out := opOutcome{latMS: float64(time.Since(start)) / float64(time.Millisecond), cold: pr.Cold}
	span.End()
	switch {
	case err != nil:
		out.err = fmt.Sprintf("%s row %d: %v", rq.key, rq.row, err)
	case resp.StatusCode != http.StatusOK:
		out.err = fmt.Sprintf("%s row %d: HTTP %d: %.200s", rq.key, rq.row, resp.StatusCode, payload)
	case pr.Answer != ref.want[rq.row]:
		out.err = fmt.Sprintf("%s row %d: served %q, direct path %q", rq.key, rq.row, pr.Answer, ref.want[rq.row])
	}
	return out
}
