package model

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/akb"
	"repro/internal/lora"
	"repro/internal/nn"
	"repro/internal/tasks"
)

func TestTrainEmptyExamples(t *testing.T) {
	m := New(tinyConfig())
	ps := m.Params()
	if loss := Train(m, nil, TrainConfig{Epochs: 3, LR: 0.02, Clip: 5, Seed: 1, WeightDecay: 1e-4}, &ps); loss != 0 {
		t.Fatalf("empty training should be a no-op, loss %v", loss)
	}
}

func TestTrainBatchSizesEquivalentDirection(t *testing.T) {
	// Different batch sizes take different optimization paths but both must
	// learn the separable toy task.
	for _, batch := range []int{1, 4, 16} {
		m := New(tinyConfig())
		tc := TrainConfig{Epochs: 6, LR: 0.05, Clip: 5, Seed: 7, BatchSize: batch}
		ps := m.Params()
		Train(m, ExamplesFrom(tasks.ED, toyED(60, 3), nil), tc, &ps)
		score := akb.Evaluate(m, tasks.SpecFor(tasks.ED), toyED(40, 4), nil)
		if score < 90 {
			t.Fatalf("batch=%d failed to learn: %v", batch, score)
		}
	}
}

func TestTrainDeterministicGivenSeed(t *testing.T) {
	run := func() *Snapshot {
		m := New(tinyConfig())
		tc := TrainConfig{Epochs: 3, LR: 0.02, Clip: 5, Seed: 11, BatchSize: 4}
		ps := m.Params()
		Train(m, ExamplesFrom(tasks.ED, toyED(50, 5), nil), tc, &ps)
		return m.Export()
	}
	a, b := run(), run()
	for name, w := range a.Mats {
		for i := range w {
			if b.Mats[name][i] != w[i] {
				t.Fatalf("training nondeterministic at %s[%d]", name, i)
			}
		}
	}
	if a.Trust != b.Trust {
		t.Fatal("trust nondeterministic")
	}
}

func TestTrainReportsDecreasingLoss(t *testing.T) {
	m := New(tinyConfig())
	examples := ExamplesFrom(tasks.ED, toyED(60, 6), nil)
	ps := m.Params()
	first := Train(m, examples, TrainConfig{Epochs: 1, LR: 0.03, Clip: 5, Seed: 2, BatchSize: 4}, &ps)
	later := Train(m, examples, TrainConfig{Epochs: 4, LR: 0.03, Clip: 5, Seed: 3, BatchSize: 4}, &ps)
	if later >= first {
		t.Fatalf("continued training should reduce loss: %v -> %v", first, later)
	}
}

// windowModel is a fused model carrying every case the backward must get
// right beside a trainable backbone and trust: patches under trainable λ, one
// whose B is frozen, and one switched off by a λ frozen at 0.
func windowModel() (*Model, nn.ParamSet) {
	m := New(tinyConfig())
	m.Trust.Val = 0.3
	rng := rand.New(rand.NewSource(9))
	var lambdas []*nn.Scalar
	for i := 0; i < 4; i++ {
		coef := &nn.Scalar{Name: fmt.Sprint("λ", i), Val: 0.3 * float64(i+1)}
		if i == 3 {
			coef.Val, coef.Frozen = 0, true
		}
		p := lora.Attach("p", m.LoraLayers(), lora.Config{Rank: 2, Alpha: 1}, coef, rng)
		for _, key := range []string{"cand.dense", "cand.emb", "in.dense", "in.emb"} {
			p.Attachments[key].A.W.FillGaussian(rng, 0.2)
			p.Attachments[key].B.Frozen = i == 2
		}
		if !coef.Frozen {
			lambdas = append(lambdas, coef)
		}
	}
	ps := m.Params()
	ps.AddScalar(lambdas...)
	return m, ps
}

// TestStepBatchMatchesOneExampleWindows is the window property: one
// StepBatch over a window leaves the bits that window's examples leave when
// passed to StepBatch one at a time — every gradient, the touched rows (read
// through an Adam step under weight decay, which moves a touched row even
// where its gradient is zero), λ and trust gradients, and the running loss.
// Seeded windows of 1–8 examples mix hints on and off and candidates shared
// across examples or not, over two steps each.
func TestStepBatchMatchesOneExampleWindows(t *testing.T) {
	spec := tasks.SpecFor(tasks.ED)
	for seed := int64(0); seed < 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		whole, wps := windowModel()
		alone, aps := windowModel()
		wopt, aopt := nn.NewAdam(0.05), nn.NewAdam(0.05)
		wopt.WeightDecay, aopt.WeightDecay = 0.01, 0.01
		var wloss, aloss float64 // running loss across both steps, as Train keeps it
		for step := 0; step < 2; step++ {
			when := fmt.Sprintf("seed %d step %d", seed, step)
			ins := toyED(1+rng.Intn(8), seed*10+int64(step))
			if rng.Intn(3) == 0 {
				disjointCandidates(ins)
			}
			var k *tasks.Knowledge
			if rng.Intn(2) == 0 {
				k = hintKnowledge()
			}
			exs := make([]*tasks.Example, len(ins))
			for i, in := range ins {
				exs[i] = example(spec, in, k)
			}
			wloss = whole.StepBatch(exs, wloss)
			for _, ex := range exs {
				aloss = alone.StepBatch(one(ex), aloss)
			}
			sameBits(t, when+": running loss", []float64{wloss}, []float64{aloss})
			for i, b := range wps.Mats {
				sameBits(t, fmt.Sprintf("%s: gradient of %s", when, b.P.Name), gradOf(b.P), gradOf(aps.Mats[i].P))
			}
			for i, s := range wps.Scalars {
				sameBits(t, fmt.Sprintf("%s: gradient of %s", when, s.Name), []float64{s.Grad}, []float64{aps.Scalars[i].Grad})
			}
			for _, run := range []struct {
				ps  *nn.ParamSet
				opt *nn.Adam
			}{{&wps, wopt}, {&aps, aopt}} {
				run.ps.ClipGradNorm(5)
				run.opt.Step(run.ps)
				run.ps.ZeroGrad()
			}
			for i, b := range wps.Mats {
				sameBits(t, fmt.Sprintf("%s: %s after Adam", when, b.P.Name), b.P.W.Data, aps.Mats[i].P.W.Data)
			}
			for i, s := range wps.Scalars {
				sameBits(t, fmt.Sprintf("%s: %s after Adam", when, s.Name), []float64{s.Val}, []float64{aps.Scalars[i].Val})
			}
		}
	}
}

func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v, want %v", what, i, got[i], want[i])
		}
	}
}
