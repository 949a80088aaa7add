package model

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/akb"
	"repro/internal/data"
	"repro/internal/lora"
	"repro/internal/nn"
	"repro/internal/tasks"
)

func tinyConfig() Config {
	return Config{Name: "test", Dim: 1 << 9, Hidden: 12, Seed: 1}
}

// toyED builds a separable ED-style dataset: values containing "%" are
// errors, plain decimals are not.
func toyED(n int, seed int64) []*data.Instance {
	rng := rand.New(rand.NewSource(seed))
	var out []*data.Instance
	for i := 0; i < n; i++ {
		v := "0.05"
		gold := 1 // no
		if rng.Intn(2) == 0 {
			v = "0.05%"
			gold = 0 // yes
		}
		out = append(out, &data.Instance{
			Fields:     []data.Field{{Name: "abv", Value: v}, {Name: "name", Value: "beer " + string(rune('a'+rng.Intn(26)))}},
			Target:     "abv",
			Candidates: []string{tasks.AnswerYes, tasks.AnswerNo},
			Gold:       gold,
		})
	}
	return out
}

func TestTrainLearnsSeparableTask(t *testing.T) {
	m := New(tinyConfig())
	train := toyED(60, 3)
	test := toyED(40, 4)
	spec := tasks.SpecFor(tasks.ED)
	before := akb.Evaluate(m, spec, test, nil)
	ps := m.Params()
	Train(m, ExamplesFrom(tasks.ED, train, nil), TrainConfig{Epochs: 6, LR: 0.05, Clip: 5, Seed: 7}, &ps)
	after := akb.Evaluate(m, spec, test, nil)
	if after < 95 {
		t.Fatalf("model failed to learn separable task: before=%v after=%v", before, after)
	}
}

// windowLoss is the summed referenceLoss of a window — the function whose
// gradient one StepBatch over the window accumulates.
func windowLoss(m *Model, exs []*tasks.Example) float64 {
	var l float64
	for _, ex := range exs {
		l += referenceLoss(m, ex)
	}
	return l
}

// checkWindowGradients compares every gradient StepBatch left in ps (every
// element, or three per block when sample is set) with central finite
// differences of windowLoss to within tol·(1+|numeric|), and the trust
// gradient to within 1e-6·(1+|numeric|).
func checkWindowGradients(t *testing.T, m *Model, ps nn.ParamSet, exs []*tasks.Example, sample bool, tol float64) {
	t.Helper()
	const eps = 1e-5
	for _, b := range ps.Mats {
		p := b.P
		ks := []int{0, b.NumParams() / 2, b.NumParams() - 1}
		if !sample {
			ks = ks[:0]
			for k := 0; k < b.NumParams(); k++ {
				ks = append(ks, k)
			}
		}
		for _, k := range ks {
			i := flatIndex(b, k)
			orig := p.W.Data[i]
			p.W.Data[i] = orig + eps
			lp := windowLoss(m, exs)
			p.W.Data[i] = orig - eps
			lm := windowLoss(m, exs)
			p.W.Data[i] = orig
			num := (lp - lm) / (2 * eps)
			if ana := gradOf(p)[i]; math.Abs(num-ana) > tol*(1+math.Abs(num)) {
				t.Fatalf("%s[%d]: analytic %g vs numeric %g", p.Name, i, ana, num)
			}
		}
	}
	if m.Trust.Frozen {
		return
	}
	orig := m.Trust.Val
	m.Trust.Val = orig + eps
	lp := windowLoss(m, exs)
	m.Trust.Val = orig - eps
	lm := windowLoss(m, exs)
	m.Trust.Val = orig
	if num := (lp - lm) / (2 * eps); math.Abs(num-m.Trust.Grad) > 1e-6*(1+math.Abs(num)) {
		t.Fatalf("trust: analytic %g vs numeric %g", m.Trust.Grad, num)
	}
}

// Gradient check through the full model, trust scalar and knowledge hints
// included, over a 3-example window.
func TestModelStepGradientCheck(t *testing.T) {
	m := New(tinyConfig())
	m.Trust.Val = 0.4
	k := &tasks.Knowledge{Rules: []tasks.Rule{{
		Cond:   tasks.Condition{Pred: tasks.PredFormat, Arg: tasks.FormatPercent},
		Answer: tasks.Answer{Literal: tasks.AnswerYes},
		Weight: 1,
	}}}
	ins := toyED(3, 9)
	ins[0].Fields[0].Value = "0.07%"
	ins[0].Gold = 0
	exs := make([]*tasks.Example, len(ins))
	for i, in := range ins {
		exs[i] = example(tasks.SpecFor(tasks.ED), in, k)
	}
	if exs[0].Hints[0] == 0 {
		t.Fatal("test setup: rule should fire")
	}
	ps := m.Params()
	ps.ZeroGrad()
	m.StepBatch(exs, 0)
	checkWindowGradients(t, m, ps, exs, true, 1e-5)
}

func TestTrustLearnsToFollowRules(t *testing.T) {
	// Instances where content features are useless (identical) and only the
	// rule hint separates classes: trust must grow positive.
	m := New(tinyConfig())
	k := &tasks.Knowledge{Rules: []tasks.Rule{{
		Cond:   tasks.Condition{Pred: tasks.PredFormat, Arg: tasks.FormatPercent},
		Answer: tasks.Answer{Literal: tasks.AnswerYes},
		Weight: 1,
	}}}
	var exs []TrainExample
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 40; i++ {
		v, gold := "0.05", 1
		if rng.Intn(2) == 0 {
			v, gold = "0.05%", 0
		}
		in := &data.Instance{
			Fields:     []data.Field{{Name: "x", Value: v}},
			Target:     "x",
			Candidates: []string{tasks.AnswerYes, tasks.AnswerNo},
			Gold:       gold,
		}
		exs = append(exs, TrainExample{Spec: tasks.SpecFor(tasks.ED), Instance: in, Knowledge: k})
	}
	ps := m.Params()
	Train(m, exs, TrainConfig{Epochs: 5, LR: 0.05, Clip: 5, Seed: 3}, &ps)
	if m.Trust.Val <= 0 {
		t.Fatalf("trust should become positive when rules are reliable, got %v", m.Trust.Val)
	}
}

func TestCloneIndependence(t *testing.T) {
	m := New(tinyConfig())
	c := m.Clone()
	// Same weights initially.
	ex := example(tasks.SpecFor(tasks.ED), toyED(1, 5)[0], nil)
	s1 := append([]float64(nil), m.ScoresBatch(one(ex))[0]...)
	s2 := c.ScoresBatch(one(ex))[0]
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatal("clone must score identically before training")
		}
	}
	// Training the clone must not affect the original.
	ps := c.Params()
	Train(c, ExamplesFrom(tasks.ED, toyED(30, 6), nil), TrainConfig{Epochs: 3, LR: 0.02, Clip: 5, Seed: 1, WeightDecay: 1e-4}, &ps)
	s3 := m.ScoresBatch(one(ex))[0]
	for i := range s1 {
		if s1[i] != s3[i] {
			t.Fatal("training a clone mutated the original")
		}
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	m := New(tinyConfig())
	ps := m.Params()
	Train(m, ExamplesFrom(tasks.ED, toyED(20, 8), nil), TrainConfig{Epochs: 3, LR: 0.02, Clip: 5, Seed: 2, WeightDecay: 1e-4}, &ps)
	blob, err := m.Export().Encode()
	if err != nil {
		t.Fatal(err)
	}
	snap, err := DecodeSnapshot(blob)
	if err != nil {
		t.Fatal(err)
	}
	m2 := New(tinyConfig())
	if err := m2.LoadSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	test := toyED(20, 9)
	spec := tasks.SpecFor(tasks.ED)
	for _, in := range test {
		ex := example(spec, in, nil)
		if m.PredictBatch(one(ex))[0] != m2.PredictBatch(one(ex))[0] {
			t.Fatal("snapshot round trip changed predictions")
		}
	}
}

func TestLoadSnapshotShapeMismatch(t *testing.T) {
	m := New(tinyConfig())
	other := New(Config{Dim: 1 << 8, Hidden: 10, Seed: 1})
	if err := other.LoadSnapshot(m.Export()); err == nil {
		t.Fatal("expected shape mismatch error")
	}
}

// backboneShapes is backbone's layout without a model: the names of the
// parameters a patch-free owner trains, and their lengths, in the same order,
// for any config newModel builds.
func TestBackboneShapes(t *testing.T) {
	for _, cfg := range []Config{tinyConfig(), {Dim: 1 << 8, Hidden: 10}, {}} {
		m := New(cfg)
		ps, mats, want := m.Params().Mats, m.backbone(), backboneShapes(m.Cfg)
		if len(ps) != len(want) || len(mats) != len(want) {
			t.Fatalf("%+v: %d parameters and %d backbone matrices, backboneShapes lists %d", m.Cfg, len(ps), len(mats), len(want))
		}
		for i, b := range ps {
			if b.P.Name != want[i].name || b.P.W != mats[i] || len(mats[i].Data) != want[i].n {
				t.Fatalf("%+v: parameter %d is %s with %d values, backboneShapes says %s with %d",
					m.Cfg, i, b.P.Name, len(mats[i].Data), want[i].name, want[i].n)
			}
		}
	}
}

// LoRA patch fine-tuning on a shared base must change predictions without
// changing base weights — the mechanics SKC stage 1 relies on.
func TestPatchOnlyFineTune(t *testing.T) {
	m := New(tinyConfig()).Share()
	base := m.Export()
	m.Trust.Frozen = true
	rng := rand.New(rand.NewSource(4))
	coef := &nn.Scalar{Name: "λ", Val: 1, Frozen: true}
	patch := lora.Attach("patch", m.LoraLayers(), lora.Config{Rank: 2, Alpha: 1}, coef, rng)

	var ps nn.ParamSet
	ps.Add(patch.Params()...)
	train := toyED(60, 11)
	Train(m, ExamplesFrom(tasks.ED, train, nil), TrainConfig{Epochs: 6, LR: 0.05, Clip: 5, Seed: 12}, &ps)

	spec := tasks.SpecFor(tasks.ED)
	score := akb.Evaluate(m, spec, toyED(40, 13), nil)
	if score < 90 {
		t.Fatalf("patch-only fine-tune failed to learn: %v", score)
	}
	// Base weights untouched.
	after := m.Export()
	for name, w := range base.Mats {
		for i := range w {
			if after.Mats[name][i] != w[i] {
				t.Fatalf("frozen base weight %s[%d] changed", name, i)
			}
		}
	}
	if after.Trust != base.Trust {
		t.Fatal("frozen trust changed")
	}
}

func TestPredictDeterministic(t *testing.T) {
	m := New(tinyConfig())
	in := toyED(1, 20)[0]
	ex := example(tasks.SpecFor(tasks.ED), in, nil)
	p1 := m.PredictBatch(one(ex))[0]
	for i := 0; i < 5; i++ {
		if m.PredictBatch(one(ex))[0] != p1 {
			t.Fatal("PredictBatch must be deterministic")
		}
	}
}

// The panic names the offending example by its index in the batch: the
// product builders leave no other label on an Example.
func TestScoresPanicsWithoutCandidates(t *testing.T) {
	m := New(tinyConfig())
	ok := example(tasks.SpecFor(tasks.ED), toyED(1, 5)[0], nil)
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "example 1 of a batch of 2 has no candidates") {
			t.Fatalf("panic %q does not name the empty example", msg)
		}
	}()
	m.ScoresBatch([]*tasks.Example{ok, {}})
}

// fusedModel builds what few-shot fine-tuning trains: a shared backbone with
// n loaded patches under trainable λ plus a fresh shared patch.
func fusedModel(n int) (*Model, nn.ParamSet) {
	m := New(tinyConfig()).Share()
	m.Trust.Frozen = true
	rng := rand.New(rand.NewSource(9))
	f := &lora.Fusion{}
	for i := 0; i < n; i++ {
		coef := &nn.Scalar{Val: 1 / float64(n)}
		p := lora.Attach("p", m.LoraLayers(), lora.Config{Rank: 2, Alpha: 1}, coef, rng)
		for _, at := range p.Attachments {
			at.A.W.FillGaussian(rng, 0.1)
		}
		f.Upstream = append(f.Upstream, p)
		f.Lambdas = append(f.Lambdas, coef)
	}
	f.Shared = lora.Attach("shared", m.LoraLayers(), lora.Config{Rank: 2, Alpha: 1}, &nn.Scalar{Val: 1, Frozen: true}, rng)
	return m, f.TrainableParams()
}

// A warm training window on a fused model — StepBatch, clip, Adam, zero —
// must not allocate: every buffer is pooled or scratch the model keeps.
func TestWarmStepAllocatesNothing(t *testing.T) {
	m, ps := fusedModel(3)
	spec := tasks.SpecFor(tasks.ED)
	var window []*tasks.Example
	for _, in := range toyED(4, 5) {
		window = append(window, example(spec, in, hintKnowledge()))
	}
	opt := nn.NewAdam(0.01)
	opt.WeightDecay = 3e-4
	step := func() {
		m.StepBatch(window, 0)
		ps.ClipGradNorm(0.01)
		opt.Step(&ps)
		ps.ZeroGrad()
	}
	step() // warm: gradient buffers, moments, pool, encoder
	if allocs := testing.AllocsPerRun(20, step); allocs != 0 {
		t.Fatalf("warm StepBatch+clip+Adam allocated %v times per run, want 0", allocs)
	}
}

// flatIndex maps element k of block b (row-major within the block) to its
// index in b.P's flat weight and gradient storage.
func flatIndex(b *nn.Block, k int) int {
	return k/b.Cols()*b.P.W.Cols + b.Lo + k%b.Cols()
}

// StepBatch must backprop each (example, candidate) pair through the
// activations of ITS forward row, not another's: with four candidates per
// example, some shared across the window and in different orders, on a fused
// model every analytic gradient still matches central finite differences.
func TestStepKeepsPerCandidateActivations(t *testing.T) {
	m, ps := fusedModel(2)
	ins := toyED(2, 5)
	ins[0].Candidates = []string{tasks.AnswerYes, tasks.AnswerNo, "maybe", "0.05"}
	ins[1].Candidates = []string{"0.05", "maybe", tasks.AnswerNo, "0.05%"}
	ins[1].Gold = 3
	exs := []*tasks.Example{
		example(tasks.SpecFor(tasks.ED), ins[0], nil),
		example(tasks.SpecFor(tasks.ED), ins[1], nil),
	}
	ps.ZeroGrad()
	m.StepBatch(exs, 0)
	checkWindowGradients(t, m, ps, exs, false, 1e-6)
}

// Clone copies the backbone — here a shared one — and nothing else: equal
// weights in independent storage, no patches, and an Export/LoadSnapshot
// round trip that still works.
func TestCloneCopiesBackboneOnly(t *testing.T) {
	m, _ := fusedModel(2)
	m.Trust.Val = 0.25
	c := m.Clone()
	names := backboneShapes(m.Cfg)
	cp := c.backbone()
	for i, w := range m.backbone() {
		if &w.Data[0] == &cp[i].Data[0] {
			t.Fatalf("%s shares storage with the original", names[i].name)
		}
		for j, v := range w.Data {
			if cp[i].Data[j] != v {
				t.Fatalf("%s[%d] = %v, want %v", names[i].name, j, cp[i].Data[j], v)
			}
		}
	}
	if c.Trust.Val != 0.25 {
		t.Fatalf("trust %v not copied", c.Trust.Val)
	}
	if got, want := len(c.Params().Mats), len(c.backbone()); got != want {
		t.Fatalf("clone carries %d matrices, want the %d backbone ones (no patches)", got, want)
	}
	viaSnapshot := New(m.Cfg)
	if err := viaSnapshot.LoadSnapshot(m.Export()); err != nil {
		t.Fatal(err)
	}
	sp := viaSnapshot.backbone()
	for i, w := range cp {
		for j, v := range w.Data {
			if sp[i].Data[j] != v {
				t.Fatalf("Clone and Export/LoadSnapshot disagree at %s[%d]", names[i].name, j)
			}
		}
	}
	cp[0].Data[0]++
	if m.backbone()[0].Data[0] == cp[0].Data[0] {
		t.Fatal("writing the clone changed the original")
	}
	if err := m.LoadSnapshot(m.Export()); err == nil {
		t.Fatal("a shared model loaded a snapshot into the backbone it reads")
	}
}

// gradOf is p's whole gradient as a dense row-major slice, read through
// GradRow: zero where no gradient reached a row.
func gradOf(p *nn.Param) []float64 {
	out := make([]float64, len(p.W.Data))
	for r := 0; r < p.W.Rows; r++ {
		copy(out[r*p.W.Cols:], p.GradRow(r))
	}
	return out
}
