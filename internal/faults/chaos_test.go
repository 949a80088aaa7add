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
	"math"
	"reflect"
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
func chaosChain(rate float64, seed int64, kinds []faults.Kind, rec *obs.Recorder) (*faults.Injector, akb.FallibleOracle) {
	inj := faults.Wrap(oracle.New(seed+771), faults.Config{Rate: rate, Seed: seed, Kinds: kinds, Rec: rec})
	return inj, resilience.New(inj, resilience.Policy{
		Seed:        seed + 1,
		Sleep:       func(time.Duration) {},
		CallTimeout: -1,
		Rec:         rec,
	})
}

func runChaosSearch(t *testing.T, rate float64, seed int64, rec *obs.Recorder) (*akb.Result, *faults.Injector) {
	t.Helper()
	inj, chain := chaosChain(rate, seed, nil, rec)
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
	return res, inj
}

// TestChaosSearchSurvives drives full searches at a 30% fault rate across
// many seeds: never a panic, never a nil result, never a malformed winner.
// Degradation is NOT asserted here — at 30% with three attempts per call
// the retry layer absorbs nearly every transient fault, which is the point;
// the dead-oracle test below covers the degradation path.
func TestChaosSearchSurvives(t *testing.T) {
	injected := 0
	for seed := int64(1); seed <= 10; seed++ {
		_, inj := runChaosSearch(t, 0.3, seed, nil)
		injected += len(inj.Schedule())
	}
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
	run := func(seed int64) ([]faults.Injected, *akb.Result, []byte) {
		var buf bytes.Buffer
		tr := obs.NewTracer(&buf)
		rec := obs.NewRecorder(nil, tr)
		inj, chain := chaosChain(0.5, seed, nil, rec)
		cfg := akb.DefaultConfig(seed)
		cfg.Rec = rec
		res := akb.SearchFallible(context.Background(), hintPredictor{}, chain,
			tasks.ED, chaosInstances(20), nil, cfg)
		if err := tr.Close(); err != nil {
			t.Fatal(err)
		}
		recs, err := obs.ReadTrace(&buf)
		if err != nil {
			t.Fatal(err)
		}
		canon, err := json.Marshal(obs.CanonicalTrace(recs))
		if err != nil {
			t.Fatal(err)
		}
		return inj.Schedule(), res, canon
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
	_, chain := chaosChain(1, 6, []faults.Kind{faults.KindServerError}, rec)
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
