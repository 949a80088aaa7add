package main

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"repro/internal/data"
	"repro/internal/obs"
)

// These tests pin the harness's own arithmetic and its registry; none of
// them builds a zoo, so the package tests in well under five seconds.

func TestPercentileIsNearestRank(t *testing.T) {
	vs := make([]float64, 100)
	for i := range vs {
		vs[i] = float64(i + 1)
	}
	for _, c := range []struct {
		p      int
		v      float64
		beyond int
	}{{50, 50, 50}, {90, 90, 10}, {99, 99, 1}, {100, 100, 0}} {
		v, beyond := percentile(vs, c.p)
		if v != c.v || beyond != c.beyond {
			t.Errorf("p%d of 1..100 = %v with %d beyond, want %v with %d", c.p, v, beyond, c.v, c.beyond)
		}
	}
	if v, beyond := percentile(nil, 99); v != 0 || beyond != 0 {
		t.Errorf("percentile of nothing = %v, %d", v, beyond)
	}
}

// The tail is the highest percentile of the ladder with at least ten
// samples beyond it.
func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct{ n, want int }{
		{12000, 99}, {1000, 99}, {999, 95}, {200, 95}, {199, 90}, {100, 90}, {99, 80}, {52, 80}, {49, 75}, {44, 75}, {39, 50}, {5, 50},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = p%d, want p%d", c.n, got, c.want)
		}
		if p := tailPercentile(c.n); p > 50 && c.n-rank(p, c.n) < 10 {
			t.Errorf("tailPercentile(%d) = p%d leaves fewer than ten samples beyond", c.n, p)
		}
	}
	// A workload that stretches its window to MinOps does so to reach its
	// fixed percentile.
	for _, w := range workloads {
		if w.MinOps > 0 && tailPercentile(w.MinOps) != w.TailPct {
			t.Errorf("%s: MinOps %d supports p%d, the workload reports p%d", w.Name, w.MinOps, tailPercentile(w.MinOps), w.TailPct)
		}
	}
}

// quartiles must read as Python's statistics.quantiles(values, n=4) does:
// the driver computes spreads with it.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{3.1, 2.9, 3.4, 3.0, 2.8, 3.3, 3.2, 2.7, 3.6, 3.05})
	if math.Abs(q1-2.875) > 1e-12 || math.Abs(q3-3.325) > 1e-12 {
		t.Errorf("quartiles = %v, %v; python says 2.875, 3.325", q1, q3)
	}
	q1, q3 = quartiles([]float64{1, 2, 3, 4, 5})
	if q1 != 1.5 || q3 != 4.5 {
		t.Errorf("quartiles(1..5) = %v, %v; python says 1.5, 4.5", q1, q3)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v", m)
	}
}

// fakeEnv has references with test splits of the real sizes but no zoo.
func fakeEnv() *env {
	e := &env{refs: map[string]*reference{}}
	for i := 0; i < 13; i++ {
		key := fmt.Sprintf("T%d/K%d", i%7, i)
		e.keys = append(e.keys, key)
		e.refs[key] = &reference{key: key, test: make([]*data.Instance, 40+7*i)}
	}
	return e
}

func sequence(g generator, n int) []request {
	out := make([]request, n)
	for i := range out {
		out[i] = g(i)
	}
	return out
}

func TestSeedFixesTheRequestSequence(t *testing.T) {
	e := fakeEnv()
	hot, cold := e.keys[:6], e.keys[6:]
	for name, mk := range map[string]func(seed int64) generator{
		"cyclic":  func(seed int64) generator { return cyclic(e, e.keys, seed) },
		"uniform": func(seed int64) generator { return uniform(e, hot[:4], seed) },
		"mixed":   func(seed int64) generator { return mixed(e, hot, cold, seed) },
	} {
		a, b, c := sequence(mk(1), 500), sequence(mk(1), 500), sequence(mk(2), 500)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the same seed gave two different sequences", name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 1 and 2 gave the same sequence", name)
		}
		for i, rq := range a {
			if ref := e.refs[rq.key]; ref == nil || rq.row < 0 || rq.row >= len(ref.test) {
				t.Fatalf("%s: request %d = %+v is outside its key's test split", name, i, rq)
			}
		}
	}
	// adapt_cold's keys do not depend on the seed: every round is the same 13.
	for i, rq := range sequence(cyclic(e, e.keys, 9), 39) {
		if rq.key != e.keys[i%13] {
			t.Fatalf("cyclic request %d went to %s", i, rq.key)
		}
	}
}

func TestMixedColdShare(t *testing.T) {
	e := fakeEnv()
	hot, cold := e.keys[:6], e.keys[6:]
	isCold := map[string]bool{}
	for _, k := range cold {
		isCold[k] = true
	}
	for seed := int64(1); seed <= 5; seed++ {
		const n = 2000 // what a ten-second window sends, give or take
		hits, seen := 0, map[string]bool{}
		for _, rq := range sequence(mixed(e, hot, cold, seed), n) {
			seen[rq.key] = true
			if isCold[rq.key] {
				hits++
			}
		}
		if share := float64(hits) / n; share < 0.02 || share > 0.06 {
			t.Errorf("seed %d: cold-key share %.3f is outside 2-6%%", seed, share)
		}
		if len(seen) != 13 {
			t.Errorf("seed %d: %d of 13 keys were requested", seed, len(seen))
		}
	}
}

// synthetic builds a JSONL trace from span records.
func synthetic(recs ...obs.SpanRecord) *strings.Reader {
	var sb strings.Builder
	for _, r := range recs {
		if r.Trace == "" {
			r.Trace = "t1"
		}
		line, _ := json.Marshal(r)
		sb.Write(line)
		sb.WriteByte('\n')
	}
	return strings.NewReader(sb.String())
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestSelfTimeAndCoverageOnASyntheticTrace(t *testing.T) {
	rep, err := analyzeTrace(synthetic(
		// a warm request: 1000 us at the client, 900 in the server, 800 in the
		// resolver, of which the batch that answered it was busy 300.
		obs.SpanRecord{Span: 1, Name: "op", StartUS: 0, DurUS: 1000},
		obs.SpanRecord{Span: 2, Parent: 1, Name: "serve.http", StartUS: 50, DurUS: 900},
		obs.SpanRecord{Span: 3, Parent: 2, Name: "serve.resolve", StartUS: 100, DurUS: 800},
		obs.SpanRecord{Span: 4, Parent: 3, Name: "serve.adapter", StartUS: 500, DurUS: 300},
		// a cold request in another trace: 10 000 us, 9 000 of them Transfer.
		obs.SpanRecord{Span: 5, Trace: "t2", Name: "op", StartUS: 2000, DurUS: 10000},
		obs.SpanRecord{Span: 6, Trace: "t2", Parent: 5, Name: "serve.http", StartUS: 2100, DurUS: 9800},
		obs.SpanRecord{Span: 7, Trace: "t2", Parent: 6, Name: "serve.resolve", StartUS: 2200, DurUS: 9600},
		obs.SpanRecord{Span: 8, Trace: "t2", Parent: 7, Name: "core.transfer", StartUS: 2300, DurUS: 9000},
		obs.SpanRecord{Span: 9, Trace: "t2", Parent: 8, Name: "skc.fuse", StartUS: 2300, DurUS: 1000},
		obs.SpanRecord{Span: 10, Trace: "t2", Parent: 8, Name: "skc.fewshot_ft", StartUS: 3300, DurUS: 6000},
		obs.SpanRecord{Span: 11, Trace: "t2", Parent: 8, Name: "akb.search", StartUS: 9300, DurUS: 2000},
		obs.SpanRecord{Span: 12, Trace: "t2", Parent: 11, Name: "akb.eval", StartUS: 9400, DurUS: 700, Attrs: map[string]any{"rows": 20}},
		obs.SpanRecord{Span: 13, Trace: "t2", Parent: 11, Name: "akb.eval", StartUS: 10200, DurUS: 500, Attrs: map[string]any{"rows": 20}},
		obs.SpanRecord{Span: 14, Trace: "t2", Parent: 11, Name: "oracle.call", StartUS: 10800, DurUS: 300},
		obs.SpanRecord{Span: 15, Trace: "t2", Parent: 7, Name: "serve.adapter", StartUS: 11400, DurUS: 200},
	))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Spans != 15 || rep.Roots != 2 || rep.RootUS != 11000 {
		t.Fatalf("spans %d roots %d root time %d", rep.Spans, rep.Roots, rep.RootUS)
	}
	// Self time is a span's duration minus its children's: the two op roots
	// keep 100 and 200 us to themselves, so 10 700 of 11 000 us are attributed.
	if got := rep.ByName["op"].SelfUS; got != 300 {
		t.Errorf("op self time = %d, want 300", got)
	}
	if got := rep.ByName["akb.search"].SelfUS; got != 500 {
		t.Errorf("akb.search self time = %d, want 2000-700-500-300", got)
	}
	if want := 1 - 300.0/11000; !near(rep.Coverage, want) {
		t.Errorf("coverage = %v, want %v", rep.Coverage, want)
	}
	var self int64
	for _, s := range rep.ByName {
		self += s.SelfUS
	}
	if self != rep.RootUS {
		t.Errorf("self times sum to %d, the roots last %d", self, rep.RootUS)
	}
	for name, want := range map[string]float64{
		"serve.http_overhead_us": (100 + 100 + 200 + 200) / 2.0, // client + server share, per op
		"serve.batcher_wait_us":  500,                           // the warm request only
		"serve.miss_overhead_ms": 1,                             // 10 000 - 9 000 us
		"akb.eval_rows":          40,
		"oracle.calls":           1,
	} {
		if got := rep.Derived[name]; !near(got, want) {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	if got := rep.perTransferMS("akb.eval"); !near(got, 1.2) {
		t.Errorf("akb.eval per transfer = %v ms, want 1.2", got)
	}
	if got := rep.meanMS("core.transfer"); !near(got, 9) {
		t.Errorf("core.transfer mean = %v ms, want 9", got)
	}
}

func TestRouteOverheadUsesTheWinningAttempt(t *testing.T) {
	rep, err := analyzeTrace(synthetic(
		obs.SpanRecord{Span: 1, Name: "op", StartUS: 0, DurUS: 4000},
		obs.SpanRecord{Span: 2, Parent: 1, Name: "serve.http", StartUS: 100, DurUS: 3800},
		obs.SpanRecord{Span: 3, Parent: 2, Name: "cluster.route", StartUS: 200, DurUS: 3600},
		// the first attempt is slow and loses to the hedge, which is cancelled
		// bookkeeping aside the moment the winner returns.
		obs.SpanRecord{Span: 4, Parent: 3, Name: "cluster.attempt", StartUS: 250, DurUS: 3540, Attrs: map[string]any{"error": true}},
		obs.SpanRecord{Span: 5, Parent: 3, Name: "cluster.attempt", StartUS: 3000, DurUS: 700, Attrs: map[string]any{"status": 200}},
	))
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Derived["cluster.route_overhead_us"]; !near(got, 3600-700) {
		t.Errorf("route overhead = %v, want the route's 3600 minus the winner's 700", got)
	}
	if got := rep.Derived["cluster.attempts_per_op"]; !near(got, 2) {
		t.Errorf("attempts per op = %v, want 2", got)
	}
	// Overlapping children cannot push a parent's self time below zero.
	if got := rep.ByName["cluster.route"].SelfUS; got != 0 {
		t.Errorf("cluster.route self time = %d, want 0", got)
	}
}

// The contract's rules for a name and for a unit.
var (
	nameRule = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRule = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// BENCHMARK.json and the harness's registry name the same things, within
// the contract's limits.
func TestBenchmarkFileMatchesTheRegistry(t *testing.T) {
	bf, err := loadBenchmarkFile()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bf.Command, []string{"bash", "benchmark/run.sh"}) || !reflect.DeepEqual(bf.Paths, []string{"benchmark"}) {
		t.Errorf("command %v paths %v", bf.Command, bf.Paths)
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", bf.RunSeconds)
	}
	seen := map[string]bool{}
	name := func(kind, n string) {
		if !nameRule.MatchString(n) {
			t.Errorf("%s name %q breaks the [A-Za-z0-9_.-]+ rule", kind, n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		name("workload", w.Name)
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the harness %q", i, w.Name, workloads[i].Name)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	check := func(kind string, got, want []metricSpec, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in the harness", len(got), kind, len(want))
		}
		for i, m := range got {
			name(kind, m.Name)
			if m != want[i] {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the harness %+v", kind, i, m, want[i])
			}
			if !unitRule.MatchString(m.Unit) {
				t.Errorf("%s: unit %q", m.Name, m.Unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s: better %q", m.Name, m.Better)
			}
			if bounded && (m.Bound <= 0 || m.Bound > 0.25) {
				t.Errorf("%s: bound %v is outside (0, 0.25]", m.Name, m.Bound)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEnd, true)
	check("per_layer", bf.PerLayer, perLayer, false)
	if len(bf.PerLayer) > 128 || len(bf.EndToEnd) > 16 {
		t.Errorf("too many metrics: %d end to end, %d per layer", len(bf.EndToEnd), len(bf.PerLayer))
	}
	// setup_s is there, lower is better, and no bound is larger than its.
	for _, m := range bf.EndToEnd {
		if m.Bound > bf.EndToEnd[0].Bound {
			t.Errorf("%s has a larger bound than setup_s", m.Name)
		}
	}
	if s := bf.EndToEnd[0]; s.Name != "setup_s" || s.Unit != "s" || s.Better != "lower" {
		t.Errorf("the first end-to-end metric must be setup_s in s, lower better: %+v", s)
	}
}

func TestTraceFlagTakesBothForms(t *testing.T) {
	for _, c := range []struct{ in, want []string }{
		{[]string{"--workload", "x", "--trace", "1", "--seed", "3"}, []string{"--workload", "x", "-trace=1", "--seed", "3"}},
		{[]string{"-trace", "0"}, []string{"-trace=0"}},
		{[]string{"-workload", "x", "-trace"}, []string{"-workload", "x", "-trace"}},
		{[]string{"-trace", "-seed", "1"}, []string{"-trace", "-seed", "1"}},
	} {
		if got := normalizeArgs(c.in); !reflect.DeepEqual(got, c.want) {
			t.Errorf("normalizeArgs(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestRelDiff(t *testing.T) {
	for _, c := range []struct{ a, b, want float64 }{{100, 109, 0.09}, {100, 91, 0.09}, {0, 0, 0}, {0, 1, 1}} {
		if got := relDiff(c.a, c.b); !near(got, c.want) {
			t.Errorf("relDiff(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}
