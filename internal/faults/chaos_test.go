// Chaos tests: the full oracle chain — real simulated GPT → fault injector
// → resilient client → degradation-aware AKB search — under sustained fault
// rates. These run with -race in tier 1 (script/check.sh); the concurrency
// test exercises the shared-recorder path the parallel experiment harness
// uses.
package faults_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/akb"
	"repro/internal/data"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/oracle"
	"repro/internal/resilience"
	"repro/internal/tasks"
)

// chaosInstances is an ED validation set with a learnable but noisy signal
// (percent signs in a numeric column are the errors, with a few flipped
// labels): the real oracle induces non-trivial candidates, yet no candidate
// scores 100, so the search never converges early and every iteration —
// hence many oracle calls — runs.
func chaosInstances(n int) []*data.Instance {
	var out []*data.Instance
	for i := 0; i < n; i++ {
		v, gold := "0.05", 1
		if i%2 == 0 {
			v, gold = "0.05%", 0
		}
		if i%7 == 3 {
			gold = 1 - gold
		}
		out = append(out, &data.Instance{
			Fields:     []data.Field{{Name: "abv", Value: v}},
			Target:     "abv",
			Candidates: []string{tasks.AnswerYes, tasks.AnswerNo},
			Gold:       gold,
		})
	}
	return out
}

// hintPredictor answers with the candidate the knowledge weighs highest —
// enough model for Evaluate to rank candidates.
type hintPredictor struct{}

func (hintPredictor) PredictBatchWith(spec tasks.Spec, ins []*data.Instance, k *tasks.Knowledge) []string {
	out := make([]string, len(ins))
	for n, in := range ins {
		hints := k.Hints(in)
		best, bestH := -1, 0.0
		for i, h := range hints {
			if h > bestH {
				best, bestH = i, h
			}
		}
		out[n] = tasks.AnswerNo
		if best >= 0 {
			out[n] = in.Candidates[best]
		}
	}
	return out
}

// chaosChain builds the production fault chain (the same shape
// eval.(*Zoo).fallibleOracle assembles): simulated GPT → injector →
// resilient client with elided sleeps.
func chaosChain(rate float64, seed int64, kinds []faults.Kind, rec *obs.Recorder) akb.FallibleOracle {
	inj := faults.Wrap(oracle.New(seed+771), faults.Config{Rate: rate, Seed: seed, Kinds: kinds, Rec: rec})
	return resilience.New(inj, resilience.Policy{
		Seed:        seed + 1,
		Sleep:       func(time.Duration) {},
		CallTimeout: -1,
		Rec:         rec,
	})
}

func runChaosSearch(t *testing.T, rate float64, seed int64, rec *obs.Recorder) *akb.Result {
	t.Helper()
	chain := chaosChain(rate, seed, nil, rec)
	res := akb.SearchFallible(context.Background(), hintPredictor{}, chain,
		tasks.ED, chaosInstances(20), nil, akb.DefaultConfig(seed))
	if res == nil {
		t.Fatalf("seed %d: nil result under faults", seed)
	}
	if res.BestScore < 0 || res.BestScore > 100 || math.IsNaN(res.BestScore) {
		t.Fatalf("seed %d: score %v outside [0,100]", seed, res.BestScore)
	}
	if res.Best != nil {
		for _, r := range res.Best.Rules {
			if math.IsNaN(r.Weight) || math.IsInf(r.Weight, 0) || r.Weight < 0 || r.Weight > 1 {
				t.Fatalf("seed %d: unsanitized weight %v survived to Best", seed, r.Weight)
			}
		}
		if len(res.Best.Text) > akb.MaxKnowledgeText {
			t.Fatalf("seed %d: oversized text survived to Best (%d bytes)", seed, len(res.Best.Text))
		}
	}
	return res
}

// TestChaosSearchSurvives drives full searches at a 30% fault rate across
// many seeds: never a panic, never a nil result, never a malformed winner.
// Degradation is NOT asserted here — at 30% with three attempts per call
// the retry layer absorbs nearly every transient fault, which is the point;
// the dead-oracle test below covers the degradation path.
func TestChaosSearchSurvives(t *testing.T) {
	rec := obs.NewRecorder(obs.NewRegistry(), nil)
	for seed := int64(1); seed <= 10; seed++ {
		runChaosSearch(t, 0.3, seed, rec)
	}
	injected := rec.Metrics.Snapshot().Counters["faults.injected"]
	if injected == 0 {
		t.Fatal("30% faults over 10 seeds injected nothing — injection not reaching the search")
	}
}

// TestChaosSearchSurvivesConcurrently runs chains in parallel against one
// shared recorder, the shape of a -workers grid under -faults; with -race
// this is the data-race gate on the whole fault path.
func TestChaosSearchSurvivesConcurrently(t *testing.T) {
	rec := obs.NewRecorder(obs.NewRegistry(), nil)
	var wg sync.WaitGroup
	for seed := int64(1); seed <= 4; seed++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			runChaosSearch(t, 0.3, seed, rec)
		}(seed)
	}
	wg.Wait()
	if rec.Metrics.Snapshot().Counters["faults.injected"] == 0 {
		t.Fatal("no injections recorded on the shared registry")
	}
}

// TestChaosSeedReproducible pins determinism end to end: two runs with the
// same fault seed produce the identical fault schedule, the identical
// result, and byte-identical canonical traces.
func TestChaosSeedReproducible(t *testing.T) {
	run := func(seed int64) ([]string, *akb.Result, []byte) {
		var buf bytes.Buffer
		tr := obs.NewTracer(&buf)
		rec := obs.NewRecorder(nil, tr)
		chain := chaosChain(0.5, seed, nil, rec)
		cfg := akb.DefaultConfig(seed)
		cfg.Rec = rec
		res := akb.SearchFallible(context.Background(), hintPredictor{}, chain,
			tasks.ED, chaosInstances(20), nil, cfg)
		if err := tr.Close(); err != nil {
			t.Fatal(err)
		}
		recs, _, err := obs.ReadJSONL[obs.SpanRecord](&buf)
		if err != nil {
			t.Fatal(err)
		}
		canon, err := json.Marshal(canonicalTrace(recs))
		if err != nil {
			t.Fatal(err)
		}
		return faults.InjectionsOf(recs), res, canon
	}
	schedA, resA, traceA := run(3)
	schedB, resB, traceB := run(3)
	if len(schedA) == 0 {
		t.Fatal("rate 0.5 injected nothing")
	}
	if !reflect.DeepEqual(schedA, schedB) {
		t.Fatalf("same seed, different fault schedules:\n%+v\n%+v", schedA, schedB)
	}
	if resA.BestScore != resB.BestScore || resA.DegradedRounds != resB.DegradedRounds ||
		resA.Rejected != resB.Rejected || !reflect.DeepEqual(resA.Best, resB.Best) {
		t.Fatalf("same seed, different results: %+v vs %+v", resA, resB)
	}
	if !bytes.Equal(traceA, traceB) {
		t.Fatalf("same seed, canonical traces differ:\n%s\n%s", traceA, traceB)
	}
	if _, _, traceC := run(4); bytes.Equal(traceA, traceC) {
		t.Fatal("different seeds produced identical canonical traces")
	}
}

// TestChaosDeadOracleDegrades pins the worst case: every call fails
// permanently at the transport. The breaker trips, the search completes,
// and the result owns up to full degradation.
func TestChaosDeadOracleDegrades(t *testing.T) {
	rec := obs.NewRecorder(obs.NewRegistry(), nil)
	chain := chaosChain(1, 6, []faults.Kind{faults.KindServerError}, rec)
	cfg := akb.DefaultConfig(6)
	cfg.Rec = rec
	res := akb.SearchFallible(context.Background(), hintPredictor{}, chain,
		tasks.ED, chaosInstances(10), nil, cfg)
	if res == nil || !res.Degraded() {
		t.Fatalf("dead oracle must degrade, got %+v", res)
	}
	if res.Best != nil {
		t.Fatalf("dead oracle cannot have produced knowledge: %+v", res.Best)
	}
	snap := rec.Metrics.Snapshot()
	if snap.Counters["resilience.breaker_trips"] == 0 {
		t.Fatalf("breaker never tripped under a dead oracle: %+v", snap.Counters)
	}
	if snap.Counters["akb.degraded_rounds"] != int64(res.DegradedRounds) {
		t.Fatalf("degraded-round counter (%d) disagrees with the result (%d)",
			snap.Counters["akb.degraded_rounds"], res.DegradedRounds)
	}
}

// canonicalTrace rewrites trace records into a timing-free canonical form
// for byte-comparison across runs: StartUS and DurUS are zeroed,
// wall-clock-valued attributes (key suffix "_us" or "_s") are dropped, and
// trace IDs — whose raw values depend on the mint seed and order — are
// remapped to "t1", "t2", ... in order of first appearance, both on the
// records and inside their links (links are also sorted, since batch
// membership order races under concurrency). Span ids, parentage, names,
// and the remaining attributes are untouched — for a seeded serial
// workload they are deterministic, so two runs produce byte-identical
// canonical traces even though every raw timestamp and trace ID differs.
// TestChaosSeedReproducible pins fault-schedule reproducibility with it.
// The input is not mutated.
func canonicalTrace(recs []obs.SpanRecord) []obs.SpanRecord {
	out := make([]obs.SpanRecord, len(recs))
	canon := map[string]string{}
	canonID := func(tr string) string {
		if tr == "" {
			return ""
		}
		c, ok := canon[tr]
		if !ok {
			c = fmt.Sprintf("t%d", len(canon)+1)
			canon[tr] = c
		}
		return c
	}
	for i, r := range recs {
		r.StartUS, r.DurUS = 0, 0
		r.Trace = canonID(r.Trace)
		if len(r.Links) > 0 {
			links := make([]obs.SpanLink, len(r.Links))
			for j, l := range r.Links {
				l.Trace = canonID(l.Trace)
				links[j] = l
			}
			sort.Slice(links, func(a, b int) bool {
				if links[a].Trace != links[b].Trace {
					return links[a].Trace < links[b].Trace
				}
				return links[a].Span < links[b].Span
			})
			r.Links = links
		}
		if len(r.Attrs) > 0 {
			attrs := make(map[string]any, len(r.Attrs))
			for k, v := range r.Attrs {
				if strings.HasSuffix(k, "_us") || strings.HasSuffix(k, "_s") {
					continue
				}
				attrs[k] = v
			}
			if len(attrs) == 0 {
				attrs = nil
			}
			r.Attrs = attrs
		}
		out[i] = r
	}
	return out
}

func TestCanonicalTraceZeroesTiming(t *testing.T) {
	in := []obs.SpanRecord{
		{Span: 1, Name: "root", StartUS: 100, DurUS: 5000,
			Attrs: map[string]any{"kind": "ED", "wall_s": 1.5, "backoff_us": int64(300), "attempts": 2}},
		{Span: 2, Parent: 1, Kind: obs.KindEvent, Name: "evt", StartUS: 7, DurUS: 0,
			Attrs: map[string]any{"step_us": 9}},
		{Span: 3, Parent: 1, Name: "bare", StartUS: 42, DurUS: 1},
	}
	// Deep-copy to verify the input survives untouched.
	orig := make([]obs.SpanRecord, len(in))
	for i, r := range in {
		orig[i] = r
		if r.Attrs != nil {
			orig[i].Attrs = map[string]any{}
			for k, v := range r.Attrs {
				orig[i].Attrs[k] = v
			}
		}
	}

	out := canonicalTrace(in)
	want := []obs.SpanRecord{
		{Span: 1, Name: "root", Attrs: map[string]any{"kind": "ED", "attempts": 2}},
		{Span: 2, Parent: 1, Kind: obs.KindEvent, Name: "evt"},
		{Span: 3, Parent: 1, Name: "bare"},
	}
	if !reflect.DeepEqual(out, want) {
		t.Fatalf("canonical form wrong:\n got %+v\nwant %+v", out, want)
	}
	if !reflect.DeepEqual(in, orig) {
		t.Fatalf("canonicalTrace mutated its input: %+v", in)
	}
}

// TestCanonicalTraceRemapsTraceIDsAndLinks is the regression gate for the
// request-tracing fields: raw trace IDs (seed- and mint-order-dependent)
// must remap to stable placeholders in first-appearance order, links must
// follow the same remapping and come out sorted, and the input must not be
// mutated — otherwise the same-seed byte-identity gates in check.sh would
// break the moment a trace carries serving spans.
func TestCanonicalTraceRemapsTraceIDsAndLinks(t *testing.T) {
	in := []obs.SpanRecord{
		{Span: 10, Name: "serve.request", Trace: "aaaa0000aaaa0000aaaa0000aaaa0000", StartUS: 5, DurUS: 90},
		{Span: 11, Name: "serve.request", Trace: "bbbb0000bbbb0000bbbb0000bbbb0000", StartUS: 6, DurUS: 80},
		{Span: 12, Name: "serve.batch", Trace: "cccc0000cccc0000cccc0000cccc0000", DurUS: 40,
			Links: []obs.SpanLink{
				{Trace: "bbbb0000bbbb0000bbbb0000bbbb0000", Span: 11},
				{Trace: "aaaa0000aaaa0000aaaa0000aaaa0000", Span: 10},
			},
			Attrs: map[string]any{"size": 2, "batch_us": 40}},
	}
	orig := make([]obs.SpanRecord, len(in))
	copy(orig, in)
	origLinks := append([]obs.SpanLink(nil), in[2].Links...)

	out := canonicalTrace(in)
	want := []obs.SpanRecord{
		{Span: 10, Name: "serve.request", Trace: "t1"},
		{Span: 11, Name: "serve.request", Trace: "t2"},
		{Span: 12, Name: "serve.batch", Trace: "t3",
			Links: []obs.SpanLink{{Trace: "t1", Span: 10}, {Trace: "t2", Span: 11}},
			Attrs: map[string]any{"size": 2}},
	}
	if !reflect.DeepEqual(out, want) {
		t.Fatalf("canonical form wrong:\n got %+v\nwant %+v", out, want)
	}
	if !reflect.DeepEqual(in[2].Links, origLinks) || in[0].Trace != orig[0].Trace {
		t.Fatalf("canonicalTrace mutated its input: %+v", in)
	}

	// Same records, different raw IDs (another seed): identical canonical form.
	re := make([]obs.SpanRecord, len(in))
	copy(re, in)
	for i := range re {
		re[i].Trace = "ffff" + re[i].Trace[4:]
	}
	re[2].Links = []obs.SpanLink{
		{Trace: "ffff0000bbbb0000bbbb0000bbbb0000", Span: 11},
		{Trace: "ffff0000aaaa0000aaaa0000aaaa0000", Span: 10},
	}
	if got := canonicalTrace(re); !reflect.DeepEqual(got, want) {
		t.Fatalf("reseeded trace canonicalized differently:\n got %+v\nwant %+v", got, want)
	}
}
