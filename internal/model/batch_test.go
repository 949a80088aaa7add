package model

import (
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/data"
	"repro/internal/lora"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/tasks"
)

// patchedModel returns a model carrying a live LoRA patch on every layer, so
// the equivalence suite exercises the batched patch kernels too.
func patchedModel(t *testing.T) *Model {
	t.Helper()
	m := New(tinyConfig())
	rng := rand.New(rand.NewSource(21))
	coef := &nn.Scalar{Name: "lam", Val: 0.6}
	p := lora.Attach("test-patch", m.LoraLayers(), lora.Config{Rank: 3, Alpha: 1.5}, coef, rng)
	for _, at := range p.Attachments {
		at.A.W.FillGaussian(rng, 0.4)
	}
	m.Trust.Val = 0.3
	return m
}

// hintKnowledge compiles to non-zero hints on toyED instances with "%".
func hintKnowledge() *tasks.Knowledge {
	return &tasks.Knowledge{Rules: []tasks.Rule{{
		Cond:   tasks.Condition{Pred: tasks.PredFormat, Arg: tasks.FormatPercent},
		Answer: tasks.Answer{Literal: tasks.AnswerYes},
		Weight: 0.8,
	}}}
}

// disjointCandidates rewrites each instance to its own candidate set, so the
// batch-level dedup map sees no sharing.
func disjointCandidates(ins []*data.Instance) {
	for i, in := range ins {
		suffix := string(rune('a' + i%26))
		in.Candidates = []string{"value " + suffix, "other " + suffix}
	}
}

// fused12Model is the inference shape SKC produces: 12 loaded patches under
// their own λ plus the shared patch, on every layer.
func fused12Model(*testing.T) *Model {
	m, _ := fusedModel(12)
	m.Trust.Val = 0.3
	return m
}

// TestScoresBatchMatchesScores is the table-driven equivalence suite: batch
// sizes {1, 7, 8, MaxBatch(=64)}, shared vs disjoint candidate sets, with and
// without hint-carrying knowledge, on a one-patch and a fused 12-patch model —
// every score bit-identical to referenceScores, every argmax identical.
func TestScoresBatchMatchesScores(t *testing.T) {
	spec := tasks.SpecFor(tasks.ED)
	cases := []struct {
		name     string
		size     int
		disjoint bool
		know     *tasks.Knowledge
		model    func(*testing.T) *Model
	}{
		{"batch1-shared", 1, false, nil, patchedModel},
		{"batch7-shared", 7, false, nil, patchedModel},
		{"batch64-shared", 64, false, nil, patchedModel},
		{"batch1-disjoint", 1, true, nil, patchedModel},
		{"batch7-disjoint", 7, true, nil, patchedModel},
		{"batch64-disjoint", 64, true, nil, patchedModel},
		{"batch7-hints", 7, false, hintKnowledge(), patchedModel},
		{"batch64-hints", 64, false, hintKnowledge(), patchedModel},
		{"batch1-hints", 1, false, hintKnowledge(), patchedModel},
		{"batch1-fused12", 1, false, hintKnowledge(), fused12Model},
		{"batch8-fused12", 8, true, nil, fused12Model},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := tc.model(t)
			ins := toyED(tc.size, int64(100+tc.size))
			if tc.disjoint {
				disjointCandidates(ins)
			}
			exs := make([]*tasks.Example, len(ins))
			for i, in := range ins {
				exs[i] = example(spec, in, tc.know)
			}
			want := make([][]float64, len(exs))
			wantIdx := make([]int, len(exs))
			for i, ex := range exs {
				want[i] = referenceScores(m, ex)
				wantIdx[i], _ = Argmax(want[i])
			}
			got := m.ScoresBatch(exs)
			if len(got) != len(want) {
				t.Fatalf("batch returned %d rows, want %d", len(got), len(want))
			}
			for i := range want {
				if len(got[i]) != len(want[i]) {
					t.Fatalf("row %d: %d scores, want %d", i, len(got[i]), len(want[i]))
				}
				for k := range want[i] {
					if math.Float64bits(got[i][k]) != math.Float64bits(want[i][k]) {
						t.Fatalf("%s row %d cand %d: batched %x reference %x", tc.name, i, k,
							math.Float64bits(got[i][k]), math.Float64bits(want[i][k]))
					}
				}
			}
			for i, best := range m.PredictBatch(exs) {
				if best != wantIdx[i] {
					t.Fatalf("row %d: batched argmax %d, reference %d", i, best, wantIdx[i])
				}
			}
		})
	}
}

// TestPredictBatchWithMatchesPredictWith pins the full serve-path chain
// (BuildExampleInto + forward + argmax) across a chunk boundary (evalBatch+5
// instances): each answer equals the reference's, and equals what the n = 1
// wrapper PredictWith says for that instance alone.
func TestPredictBatchWithMatchesPredictWith(t *testing.T) {
	m := patchedModel(t)
	spec := tasks.SpecFor(tasks.ED)
	ins := toyED(evalBatch+5, 77)
	k := hintKnowledge()
	got := m.PredictBatchWith(spec, ins, k)
	if len(got) != len(ins) {
		t.Fatalf("got %d answers for %d instances", len(got), len(ins))
	}
	for i, in := range ins {
		best, _ := Argmax(referenceScores(m, example(spec, in, k)))
		if want := in.Candidates[best]; got[i] != want {
			t.Fatalf("instance %d: batched %q, reference %q", i, got[i], want)
		}
		if one := m.PredictWith(spec, in, k); got[i] != one {
			t.Fatalf("instance %d: batched %q, alone %q", i, got[i], one)
		}
	}
}

// TestScoresBatchFollowsCoefficientChanges is the MELD shape: the expert
// gate rewrites attachment coefficients between two n = 1 calls on the same
// model, so nothing the forward keeps across calls (candidate cache, pooled
// scratch) may depend on weights. Each call must match the reference under
// the coefficients in force, and the two must differ.
func TestScoresBatchFollowsCoefficientChanges(t *testing.T) {
	m := New(tinyConfig())
	rng := rand.New(rand.NewSource(31))
	var gates []*nn.Scalar
	for i := 0; i < 3; i++ {
		coef := &nn.Scalar{Name: "gate", Frozen: true}
		p := lora.Attach("expert", m.LoraLayers(), lora.Config{Rank: 2, Alpha: 1}, coef, rng)
		for _, at := range p.Attachments {
			at.A.W.FillGaussian(rng, 0.4)
		}
		gates = append(gates, coef)
	}
	ex := example(tasks.SpecFor(tasks.ED), toyED(1, 41)[0], nil)
	var seen [][]float64
	for _, route := range [][]float64{{0.7, 0.3, 0}, {0, 0.1, 0.9}} {
		for i, g := range gates {
			g.Val = route[i]
		}
		got := append([]float64(nil), m.ScoresBatch(one(ex))[0]...)
		want := referenceScores(m, ex)
		for k := range want {
			if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
				t.Fatalf("route %v cand %d: batched %x reference %x", route, k,
					math.Float64bits(got[k]), math.Float64bits(want[k]))
			}
		}
		seen = append(seen, got)
	}
	if seen[0][0] == seen[1][0] && seen[0][1] == seen[1][1] {
		t.Fatal("test setup: re-routing the experts did not move the scores")
	}
}

// TestPredictNaNSafe is the regression test for the NaN-blind argmax: a NaN
// in slot 0 used to make every comparison false and silently elect
// candidate 0.
func TestPredictNaNSafe(t *testing.T) {
	nan := math.NaN()
	cases := []struct {
		name   string
		scores []float64
		want   int
		nans   int
	}{
		{"nan-first", []float64{nan, 0.2, 0.9}, 2, 1},
		{"nan-middle", []float64{0.1, nan, 0.05}, 0, 1},
		{"all-nan", []float64{nan, nan}, 0, 2},
		{"no-nan-ties-low", []float64{0.5, 0.5, 0.1}, 0, 0},
		{"negatives", []float64{nan, -3, -1}, 2, 1},
	}
	for _, tc := range cases {
		best, nans := Argmax(tc.scores)
		if best != tc.want || nans != tc.nans {
			t.Fatalf("%s: Argmax = (%d, %d), want (%d, %d)", tc.name, best, nans, tc.want, tc.nans)
		}
	}
}

// TestPredictCountsNaNScores drives a real NaN through PredictBatch (via a
// poisoned hint on one candidate) and checks the model.nan_scores counter and
// that the argmax skips the NaN.
func TestPredictCountsNaNScores(t *testing.T) {
	reg := obs.NewRegistry()
	m := New(tinyConfig())
	m.Rec = &obs.Recorder{Metrics: reg}
	m.Trust.Val = 1
	in := toyED(1, 5)[0]
	in.Fields[0].Value = "0.07%"
	ex := example(tasks.SpecFor(tasks.ED), in, nil)
	ex.Hints = []float64{math.NaN(), 0} // poisons candidate 0 only
	if best := m.PredictBatch(one(ex))[0]; best != 1 {
		t.Fatalf("PredictBatch returned the NaN-scored candidate: %d", best)
	}
	if got := reg.Counter("model.nan_scores").Value(); got != 1 {
		t.Fatalf("model.nan_scores = %d after PredictBatch, want 1", got)
	}
}

// concurrentAnswers answers ins from four goroutines at once, each taking a
// disjoint quarter at its own batch size, through the one method any
// goroutine may call.
func concurrentAnswers(m *Model, spec tasks.Spec, ins []*data.Instance, k *tasks.Knowledge) []string {
	got := make([]string, len(ins))
	var wg sync.WaitGroup
	for q, size := range []int{1, 3, 8, 5} {
		lo, hi := q*len(ins)/4, (q+1)*len(ins)/4
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ; lo < hi; lo += size {
				copy(got[lo:hi], m.PredictBatchWith(spec, ins[lo:min(lo+size, hi)], k))
			}
		}()
	}
	wg.Wait()
	return got
}

// TestConcurrentPredictMatchesSerial is the zoo-free twin of the root
// package's test of the same name: on a patched model with live hints, four
// concurrent callers must reproduce the serial answers exactly. Under -race
// it is the check that inference shares nothing but weights.
func TestConcurrentPredictMatchesSerial(t *testing.T) {
	spec := tasks.SpecFor(tasks.ED)
	for _, mk := range []func(*testing.T) *Model{patchedModel, fused12Model} {
		m := mk(t)
		ins := toyED(123, 55)
		disjointCandidates(ins[:60]) // both a growing and a shared candidate memo
		k := hintKnowledge()
		want := m.PredictBatchWith(spec, ins, k)
		for round := 0; round < 2; round++ {
			for i, got := range concurrentAnswers(m, spec, ins, k) {
				if got != want[i] {
					t.Fatalf("round %d instance %d: concurrent %q, serial %q", round, i, got, want[i])
				}
			}
		}
	}
}

// TestScratchListBoundedByPeakCallers: the free list grows only when every
// scratch is checked out, so it never holds more than the peak number of
// concurrent callers — one for any amount of serial use, training included.
func TestScratchListBoundedByPeakCallers(t *testing.T) {
	m := patchedModel(t)
	spec := tasks.SpecFor(tasks.ED)
	ins := toyED(24, 9)
	ps := m.Params()
	Train(m, ExamplesFrom(tasks.ED, ins, nil), TrainConfig{Epochs: 1, LR: 0.01, Seed: 1}, &ps)
	for i := 0; i < 5; i++ {
		m.PredictBatchWith(spec, ins, nil)
	}
	if got := len(m.free); got != 1 {
		t.Fatalf("%d scratches after serial training and inference, want 1", got)
	}

	var inFlight, peak atomic.Int32
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				n := inFlight.Add(1)
				for {
					if hi := peak.Load(); n <= hi || peak.CompareAndSwap(hi, n) {
						break
					}
				}
				m.PredictBatchWith(spec, ins, nil)
				inFlight.Add(-1)
			}
		}()
	}
	wg.Wait()
	if got := len(m.free); got < 1 || got > int(peak.Load()) {
		t.Fatalf("%d scratches on the free list after a peak of %d concurrent callers", got, peak.Load())
	}
}
