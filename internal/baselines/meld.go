package baselines

import (
	"math"
	"math/rand"
	"sort"

	"repro/internal/data"
	"repro/internal/lora"
	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/skc"
	"repro/internal/tasks"
	"repro/internal/text"
)

// MELD reimplements the Mixture-of-Experts baseline [Yan et al., KDD 2024]
// in this substrate: the upstream per-dataset knowledge patches act as
// experts, combined per instance by a similarity gate over dataset
// centroids (top-k routing). Its defining limitation versus SKC — the one
// the paper calls out — is the *instance-level* expert combination: routing
// is recomputed per record and never learns a dataset-level weighting from
// the few-shot data. Only a small shared adapter is fine-tuned.
type MELD struct {
	Backbone  func() *model.Model
	Snaps     []*skc.NamedSnapshot
	Centroids []Centroid
	TopK      int
	Train     model.TrainConfig
}

// Centroid is the mean hashed-record vector of one upstream dataset.
type Centroid struct {
	Name string
	Vec  []float64
}

// CentroidOf computes a dataset centroid from sample instances.
func CentroidOf(m *model.Model, name string, ins []*data.Instance) Centroid {
	vec := make([]float64, m.Cfg.Dim)
	enc := text.NewEncoder(m.Hasher)
	for _, in := range ins {
		v := recordVec(enc, in)
		for i, idx := range v.Idx {
			vec[idx] += v.Val[i]
		}
	}
	var norm float64
	for _, x := range vec {
		norm += x * x
	}
	if norm > 0 {
		inv := 1 / math.Sqrt(norm)
		for i := range vec {
			vec[i] *= inv
		}
	}
	return Centroid{Name: name, Vec: vec}
}

// Name implements Method.
func (m *MELD) Name() string { return "MELD" }

// Adapt implements Method: attach the expert patches with gate-controlled
// coefficients, fine-tune only a fresh shared adapter on the few-shot data.
func (m *MELD) Adapt(ctx *AdaptContext) Predictor {
	host := m.Backbone()
	if ctx.Rec != nil {
		host.Rec = ctx.Rec
	}
	host.SetBaseFrozen(true)
	host.Trust.Frozen = true
	rng := rand.New(rand.NewSource(ctx.Seed + 333))
	cfg := lora.DefaultConfig()

	p := &meldPredictor{
		m:     host,
		enc:   text.NewEncoder(host.Hasher),
		spec:  ctx.Bundle.Spec(),
		topK:  m.TopK,
		cents: m.Centroids,
	}
	if p.topK == 0 {
		p.topK = 2
	}
	layers := host.LoraLayers()
	lora.Reserve(layers, len(m.Snaps)+1, cfg)
	patches := make([]*lora.Patch, len(m.Snaps))
	library := make([]*lora.Snapshot, len(m.Snaps))
	for i, ns := range m.Snaps {
		coef := &nn.Scalar{Name: "gate/" + ns.Name, Val: 0, Frozen: true}
		patches[i] = lora.AttachUnset(ns.Name, layers, cfg, coef, rng)
		patches[i].SetFrozen(true)
		library[i] = ns.Snap
		p.experts = append(p.experts, expert{name: ns.Name, coef: coef})
	}
	if err := lora.LoadAll(patches, library); err != nil {
		// Snapshots come from the same architecture; failure is a
		// programming error, surface it loudly.
		panic(err)
	}
	shared := lora.Attach("meld-shared", layers, cfg,
		&nn.Scalar{Name: "gate/shared", Val: 1, Frozen: true}, rng)

	// Fine-tune the shared adapter with the gate active (experts routed per
	// training instance too).
	tc := m.Train
	if tc.Epochs == 0 {
		tc = model.TrainConfig{Epochs: 10, LR: 0.02, Clip: 5, WeightDecay: 1e-4, BatchSize: 4}
	}
	tc.Seed = ctx.Seed
	var ps nn.ParamSet
	ps.Add(shared.Params()...)
	examples := model.ExamplesFrom(ctx.Bundle.Kind, ctx.FewShot, nil)
	// Route per example during training: the gate must be set before each
	// example's step, so the loop is manual — one-example StepBatch calls,
	// gradient-accumulated like model.Train.
	defer ps.ReleaseGrads()
	opt := nn.NewAdam(tc.LR)
	opt.WeightDecay = tc.WeightDecay
	order := rand.New(rand.NewSource(tc.Seed))
	batch := tc.BatchSize
	if batch <= 0 {
		batch = 4
	}
	var ex tasks.Example
	one := []*tasks.Example{&ex}
	for epoch := 0; epoch < tc.Epochs; epoch++ {
		perm := order.Perm(len(examples))
		ps.ZeroGrad()
		pending := 0
		for _, idx := range perm {
			te := examples[idx]
			p.route(te.Instance)
			tasks.BuildExampleInto(&ex, te.Spec, te.Instance, te.Knowledge)
			host.StepBatch(one, 0)
			if pending++; pending == batch {
				ps.ClipGradNorm(tc.Clip)
				opt.Step(&ps)
				ps.ZeroGrad()
				pending = 0
			}
		}
		if pending > 0 {
			ps.ClipGradNorm(tc.Clip)
			opt.Step(&ps)
			ps.ZeroGrad()
		}
	}
	return p
}

type expert struct {
	name string
	coef *nn.Scalar
}

type meldPredictor struct {
	m       *model.Model
	enc     *text.Encoder // routing-side hashing; the model keeps its own
	spec    tasks.Spec
	topK    int
	experts []expert
	cents   []Centroid
}

// route sets the expert gate coefficients for one instance: softmax over
// centroid similarities, truncated to the top-k experts.
func (p *meldPredictor) route(in *data.Instance) {
	v := recordVec(p.enc, in)
	sims := make([]float64, len(p.experts))
	for i := range p.experts {
		var s float64
		if i < len(p.cents) {
			for j, idx := range v.Idx {
				s += v.Val[j] * p.cents[i].Vec[idx]
			}
		}
		sims[i] = s
	}
	idx := make([]int, len(sims))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return sims[idx[a]] > sims[idx[b]] })
	// Softmax over the selected top-k, zero elsewhere.
	var z float64
	k := p.topK
	if k > len(idx) {
		k = len(idx)
	}
	for _, i := range idx[:k] {
		z += math.Exp(4 * sims[i])
	}
	for i := range p.experts {
		p.experts[i].coef.Val = 0
	}
	if z > 0 {
		for _, i := range idx[:k] {
			p.experts[i].coef.Val = math.Exp(4*sims[i]) / z
		}
	}
}

// PredictBatch implements Predictor, a row at a time: the gate is set per
// instance.
func (p *meldPredictor) PredictBatch(ins []*data.Instance) []string {
	return rowPredictor(p.Predict).PredictBatch(ins)
}

// Predict routes one instance and answers it under that gate.
func (p *meldPredictor) Predict(in *data.Instance) string {
	p.route(in)
	return p.m.PredictWith(p.spec, in, nil)
}
