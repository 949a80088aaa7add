package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/analyze"
)

// lockedBuffer serializes writes so the slog JSON handler and the test's
// reader never race (run under -race).
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) Bytes() []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]byte(nil), b.buf.Bytes()...)
}

// TestConcurrentTracing is the end-to-end observability gate: 64 concurrent
// predicts over 4 adapters through real HTTP with tracing, metrics, and the
// access log all wired. Every 2xx predict must produce exactly one
// well-formed access-log line carrying its trace ID, every serve.batch span
// must link at least one request span, and both output streams must be
// valid line-JSON (no interleaving corruption).
func TestConcurrentTracing(t *testing.T) {
	traceBuf := &lockedBuffer{}
	logBuf := &lockedBuffer{}
	tracer := obs.NewTracer(traceBuf)
	rec := obs.NewRecorder(obs.NewRegistry(), tracer)
	opts := Options{
		MaxBatch:  8,
		Rec:       rec,
		AccessLog: slog.New(slog.NewJSONHandler(logBuf, nil)),
	}
	reg := NewRegistry(newStubTransferer(time.Millisecond).transfer, opts)
	srv := httptest.NewServer(NewServer(reg, opts))
	defer srv.Close()

	// 64 predicts at once over 4 adapters. Request i carries traces[i] as
	// its remote parent, so the test knows every trace it sent; the slowest
	// request is followed end to end below.
	keys := []string{"EM/A", "EM/B", "ED/C", "ED/D"}
	const n = 64
	traces := make([]obs.TraceID, n)
	for i := range traces {
		traces[i] = obs.NewTraceID()
	}
	lat := make([]time.Duration, n)
	errs := make(chan error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			key, id := keys[i%len(keys)], fmt.Sprint(i)
			body, _ := json.Marshal(PredictRequest{Adapter: key, Instance: WireInstance{ID: id, Candidates: []string{"yes", "no"}}})
			req, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/predict", bytes.NewReader(body))
			if err != nil {
				errs <- err
				return
			}
			// A high span ID cannot collide with the tracer's sequential ones.
			sent := obs.SpanContext{Trace: traces[i], Span: 1<<40 + uint64(i)}
			req.Header.Set(obs.TraceparentHeader, obs.FormatTraceparent(sent))
			t0 := time.Now()
			resp, err := srv.Client().Do(req)
			lat[i] = time.Since(t0)
			if err != nil {
				errs <- fmt.Errorf("request %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			var pr PredictResponse
			if resp.StatusCode != http.StatusOK || json.NewDecoder(resp.Body).Decode(&pr) != nil || pr.Answer != key+":"+id {
				errs <- fmt.Errorf("request %d: status %d, answer %q, want %q", i, resp.StatusCode, pr.Answer, key+":"+id)
				return
			}
			if echo, err := obs.ParseTraceparent(resp.Header.Get(obs.TraceparentHeader)); err != nil || echo.Trace != sent.Trace {
				errs <- fmt.Errorf("request %d: traceparent not echoed (sent trace %s, got %q)",
					i, sent.Trace, resp.Header.Get(obs.TraceparentHeader))
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	slowest := 0
	for i := range lat {
		if lat[i] > lat[slowest] {
			slowest = i
		}
	}
	sampleTrace := traces[slowest].String()
	srv.Close() // drain handlers so every request span and log line has flushed

	// A batch span ends moments *after* its last member's response is
	// delivered, so give the batcher goroutines a beat to flush before
	// freezing the stream. A read that catches a line mid-write just retries.
	deadline := time.Now().Add(5 * time.Second)
	for {
		recs, truncated, err := obs.ReadJSONL[obs.SpanRecord](bytes.NewReader(traceBuf.Bytes()))
		ok := err == nil && !truncated
		var nreq, nbat int
		for _, r := range recs {
			switch r.Name {
			case "serve.request":
				nreq++
			case "serve.batch":
				nbat++
			}
		}
		if ok && nreq == n && nbat > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("trace never settled: err=%v requests=%d batches=%d", err, nreq, nbat)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := tracer.Close(); err != nil {
		t.Fatal(err)
	}

	// Access log: exactly one valid JSON line per request, each with a
	// non-empty trace ID, and the set of trace IDs matches what the load
	// test sent.
	sentTraces := map[string]bool{}
	for _, id := range traces {
		sentTraces[id.String()] = true
	}
	var logLines int
	seenTraces := map[string]bool{}
	sc := bufio.NewScanner(bytes.NewReader(logBuf.Bytes()))
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var entry struct {
			Msg    string `json:"msg"`
			Trace  string `json:"trace"`
			Route  string `json:"route"`
			Status int    `json:"status"`
			Batch  int    `json:"batch"`
			Key    string `json:"key"`
		}
		if err := json.Unmarshal(line, &entry); err != nil {
			t.Fatalf("corrupt access-log line %q: %v", line, err)
		}
		logLines++
		if entry.Msg != "request" || entry.Route != "predict" || entry.Status != 200 {
			t.Fatalf("unexpected access-log entry: %s", line)
		}
		if entry.Trace == "" || !sentTraces[entry.Trace] {
			t.Fatalf("access-log trace %q was never sent", entry.Trace)
		}
		if seenTraces[entry.Trace] {
			t.Fatalf("trace %s logged twice", entry.Trace)
		}
		seenTraces[entry.Trace] = true
		if entry.Batch < 1 {
			t.Fatalf("access-log entry without batch size: %s", line)
		}
		if entry.Key == "" {
			t.Fatalf("access-log entry without adapter key: %s", line)
		}
	}
	if logLines != n {
		t.Fatalf("got %d access-log lines, want exactly %d", logLines, n)
	}

	// Trace stream: parses whole (no interleaving corruption), every
	// serve.batch span links >= 1 request span, and every request span is
	// in the trace the client minted for it.
	recs, _, err := obs.ReadJSONL[obs.SpanRecord](bytes.NewReader(traceBuf.Bytes()))
	if err != nil {
		t.Fatalf("trace stream corrupt: %v", err)
	}
	var requests, batches, transfers, predicts int
	for _, r := range recs {
		switch r.Name {
		case "serve.transfer":
			// A cold start is shared work too: its span links the request
			// that triggered it.
			transfers++
			if len(r.Links) != 1 || !sentTraces[r.Links[0].Trace] {
				t.Fatalf("serve.transfer span does not link the request that caused it: %+v", r)
			}
		case "serve.predict":
			predicts++
		case "serve.request":
			requests++
			if !sentTraces[r.Trace] {
				t.Fatalf("serve.request span in unexpected trace %q", r.Trace)
			}
			if !r.Remote {
				t.Fatalf("serve.request span not marked remote-parented: %+v", r)
			}
		case "serve.batch":
			batches++
			if len(r.Links) == 0 {
				t.Fatalf("serve.batch span with no request links: %+v", r)
			}
			for _, l := range r.Links {
				if !sentTraces[l.Trace] {
					t.Fatalf("serve.batch links unknown trace %q", l.Trace)
				}
			}
		}
	}
	if requests != n {
		t.Fatalf("got %d serve.request spans, want %d", requests, n)
	}
	if batches == 0 || predicts != batches {
		t.Fatalf("%d serve.batch spans with %d serve.predict children, want one forward per batch", batches, predicts)
	}
	if transfers != len(keys) {
		t.Fatalf("got %d serve.transfer spans, want one per key (%d)", transfers, len(keys))
	}

	// One request end to end, the way an operator follows a slow one: the
	// slowest request's trace ID must reassemble (what `knowtrans obs
	// trace -trace-id` prints) into its own serve.request span plus the
	// linked serve.batch that answered it.
	tr, err := analyze.Load(bytes.NewReader(traceBuf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	path := tr.FilterTrace(sampleTrace)
	var text bytes.Buffer
	if err := path.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	hasSpan := func(roots []*analyze.Node, name string) bool {
		for _, n := range roots {
			if n.Rec.Name == name {
				return true
			}
		}
		return false
	}
	if !hasSpan(path.Direct, "serve.request") || !hasSpan(path.Linked, "serve.batch") {
		t.Fatalf("slowest request %s does not reconstruct to serve.request + linked serve.batch:\n%s",
			sampleTrace, text.String())
	}

	// The registry metrics side: inflight settled back to zero and the
	// latency histogram stamped trace-ID exemplars.
	snap := rec.Metrics.Snapshot()
	if v := snap.Gauges["serve.inflight"]; v != 0 {
		t.Fatalf("inflight gauge = %v after drain", v)
	}
	h := snap.Histograms["serve.request_us"]
	var stamped bool
	for _, ex := range h.Exemplars {
		if ex != "" {
			stamped = true
			if !sentTraces[ex] {
				t.Fatalf("exemplar %q is not a sent trace", ex)
			}
		}
	}
	if !stamped {
		t.Fatal("latency histogram carries no trace exemplars")
	}
}

// TestTraceparentEchoWithoutTracer pins the degraded mode: a server with no
// tracer still echoes the caller's traceparent verbatim, so propagation
// stays observable even when tracing is off.
func TestTraceparentEchoWithoutTracer(t *testing.T) {
	srv, _ := newTestServer(t, newStubTransferer(0), Options{})
	body, _ := json.Marshal(PredictRequest{
		Adapter:  "EM/A",
		Instance: WireInstance{ID: "1", Candidates: []string{"y", "n"}},
	})
	hreq, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/predict", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	const tp = "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"
	hreq.Header.Set(obs.TraceparentHeader, tp)
	resp, err := srv.Client().Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(obs.TraceparentHeader); got != tp {
		t.Fatalf("echo = %q, want the inbound header verbatim", got)
	}
}
