// Package loadgen is the closed-loop HTTP load generator the drills aim at a
// running server: a fixed pool of workers posts predicts, checks each answer
// against the direct path, and counts what went wrong. It is a conformance
// checker, not a client — it reads raw bodies and the echoed traceparent
// instead of going through serve.Call. No binary links it (a test in this
// package pins that); latency and throughput are benchmark/'s to measure.
package loadgen

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

// Item is one request of a load run: the adapter key, the instance, and
// (optionally) the answer the direct Adapted.Predict path produced at the
// same seed — when non-empty, the generator asserts byte-identity.
type Item struct {
	Key  string
	In   serve.WireInstance
	Want string
}

// Options configures Run. Trace IDs are not an option: every request sends
// a `traceparent` in a fresh random trace (obs.NewTraceID), and Run checks
// the echo against the ID it sent.
type Options struct {
	// Concurrency is the number of in-flight requests the generator keeps
	// open. Default 64.
	Concurrency int
	// Timeout bounds one HTTP request. Default 120s (a cold adapter pays
	// for a full Transfer on its first predict).
	Timeout time.Duration
	// AtCount/OnCount inject a mid-load event: OnCount fires exactly once,
	// as soon as AtCount requests have completed. The cluster drill uses it
	// to SIGKILL a backend while the remaining requests are in flight.
	AtCount int
	OnCount func()
}

func (o Options) withDefaults() Options {
	if o.Concurrency <= 0 {
		o.Concurrency = 64
	}
	if o.Timeout <= 0 {
		o.Timeout = 120 * time.Second
	}
	return o
}

// Report is what a verdict reads of one load run: counts, never timings.
type Report struct {
	Requests    int `json:"requests"`
	Non2xx      int `json:"non_2xx"`
	Mismatches  int `json:"mismatches"`
	ColdHits    int `json:"cold_hits"`
	Concurrency int `json:"concurrency"`
	// TraceEchoMisses counts 2xx responses whose traceparent echo did not
	// carry the trace ID the generator sent — i.e. propagation broke.
	TraceEchoMisses int `json:"trace_echo_misses"`
	// ErrorCodes tallies non-2xx responses by their envelope code;
	// EnvelopeMisses counts non-2xx bodies that were NOT the versioned
	// error envelope — any value above zero is an API-shape regression.
	ErrorCodes     map[string]int `json:"error_codes,omitempty"`
	EnvelopeMisses int            `json:"envelope_misses,omitempty"`
	// SampleTrace is the trace ID of the slowest request of the run: the
	// one to pull first with `knowtrans obs trace -trace-id`.
	SampleTrace string `json:"sample_trace,omitempty"`

	// FirstError keeps the first failure verbatim for diagnostics.
	FirstError string `json:"first_error,omitempty"`
}

// Run drives items against a running server at baseURL with a fixed pool
// of workers, so up to Concurrency predicts are in flight at once. It never
// aborts on a failed request — failures are counted (Non2xx, Mismatches)
// and the first one is kept verbatim — so a chaos-mode run reports
// degradation instead of dying on it.
func Run(ctx context.Context, baseURL string, items []Item, opts Options) (*Report, error) {
	opts = opts.withDefaults()
	if len(items) == 0 {
		return nil, fmt.Errorf("loadgen: load run needs items")
	}
	client := &http.Client{Timeout: opts.Timeout}
	workers := opts.Concurrency
	if workers > len(items) {
		workers = len(items)
	}

	var (
		next       atomic.Int64
		completed  atomic.Int64
		non2xx     atomic.Int64
		mismatches atomic.Int64
		cold       atomic.Int64
		echoMiss   atomic.Int64

		envMiss atomic.Int64

		mu         sync.Mutex
		latUs      = make([]float64, len(items))
		traces     = make([]obs.TraceID, len(items))
		firstErr   string
		errorCodes map[string]int
	)
	fail := func(msg string) {
		mu.Lock()
		if firstErr == "" {
			firstErr = msg
		}
		mu.Unlock()
	}

	doItem := func(i int) {
		it := items[i]
		sent := remoteParent()
		traces[i] = sent.Trace
		body, _ := json.Marshal(serve.PredictRequest{Adapter: it.Key, Instance: it.In})
		t0 := time.Now()
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, baseURL+"/v1/predict", bytes.NewReader(body))
		if err != nil {
			non2xx.Add(1)
			fail(fmt.Sprintf("build request %d: %v", i, err))
			return
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(obs.TraceparentHeader, obs.FormatTraceparent(sent))
		resp, err := client.Do(req)
		latUs[i] = float64(time.Since(t0).Microseconds())
		if err != nil {
			non2xx.Add(1)
			fail(fmt.Sprintf("request %d (%s): %v", i, it.Key, err))
			return
		}
		payload, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode/100 != 2 {
			non2xx.Add(1)
			if eb, ok := serve.ParseErrorEnvelope(payload); ok {
				mu.Lock()
				if errorCodes == nil {
					errorCodes = map[string]int{}
				}
				errorCodes[eb.Code]++
				mu.Unlock()
				fail(fmt.Sprintf("request %d (%s): HTTP %d [%s, retryable=%v]: %s",
					i, it.Key, resp.StatusCode, eb.Code, eb.Retryable, eb.Message))
			} else {
				envMiss.Add(1)
				fail(fmt.Sprintf("request %d (%s): HTTP %d (not the error envelope): %s",
					i, it.Key, resp.StatusCode, bytes.TrimSpace(payload)))
			}
			return
		}
		if echo, perr := obs.ParseTraceparent(resp.Header.Get(obs.TraceparentHeader)); perr != nil || echo.Trace != sent.Trace {
			echoMiss.Add(1)
			fail(fmt.Sprintf("request %d (%s): traceparent not echoed (sent trace %s, got %q)",
				i, it.Key, sent.Trace, resp.Header.Get(obs.TraceparentHeader)))
		}
		var pr serve.PredictResponse
		if err := json.Unmarshal(payload, &pr); err != nil {
			non2xx.Add(1)
			fail(fmt.Sprintf("request %d (%s): bad response body: %v", i, it.Key, err))
			return
		}
		if pr.Cold {
			cold.Add(1)
		}
		if it.Want != "" && pr.Answer != it.Want {
			mismatches.Add(1)
			fail(fmt.Sprintf("request %d (%s): served %q, direct path produced %q", i, it.Key, pr.Answer, it.Want))
		}
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(items) || ctx.Err() != nil {
					return
				}
				doItem(i)
				if n := completed.Add(1); opts.OnCount != nil && int(n) == opts.AtCount {
					opts.OnCount()
				}
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	slowest := 0
	for i, l := range latUs {
		if l > latUs[slowest] {
			slowest = i
		}
	}
	return &Report{
		Requests:        len(items),
		Non2xx:          int(non2xx.Load()),
		Mismatches:      int(mismatches.Load()),
		ColdHits:        int(cold.Load()),
		Concurrency:     workers,
		TraceEchoMisses: int(echoMiss.Load()),
		ErrorCodes:      errorCodes,
		EnvelopeMisses:  int(envMiss.Load()),
		SampleTrace:     traces[slowest].String(),
		FirstError:      firstErr,
	}, nil
}

// remoteParent is the traceparent Run sends with one item: a fresh random
// trace ID under a span ID taken from that ID's low half — high-entropy, so
// it cannot collide with the small sequential span IDs a server's Tracer
// assigns.
func remoteParent() obs.SpanContext {
	trace := obs.NewTraceID()
	return obs.SpanContext{Trace: trace, Span: binary.BigEndian.Uint64(trace[8:]) | 1}
}
