package model

import (
	"math"
	"math/rand"

	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/tasks"
	"repro/internal/tensor"
)

// TrainConfig fixes a fine-tuning run.
type TrainConfig struct {
	Epochs int
	LR     float64
	Clip   float64
	Seed   int64
	// WeightDecay regularizes few-shot runs against overfitting 20 samples.
	WeightDecay float64
	// BatchSize is the gradient-accumulation batch (default 8, echoing the
	// paper's batch 4 × accumulation 4). Besides matching the recipe, the
	// batched optimizer step is what keeps dense-parameter training fast.
	BatchSize int
	// MetricTag names this run's metrics in the model's recorder (e.g.
	// "skc.fewshot" → gauge skc.fewshot.epoch_loss, histogram
	// skc.fewshot.step_us, one observation per window). Empty means "train".
	MetricTag string
}

// FewShotTrain returns the one schedule every method that fine-tunes on the
// few-shot labels runs: SKC's stage 3, KnowTrans without SKC and the
// fine-tuned baselines, so Table V's SKC / w/o-SKC comparison moves with it.
// It is gentle: even rank-constrained patches can memorize 20 examples if
// trained long, which trades upstream calibration for training-set fit.
func FewShotTrain(seed int64) TrainConfig {
	return TrainConfig{Epochs: 6, LR: 0.01, Clip: 5, Seed: seed, WeightDecay: 3e-4, BatchSize: 4}
}

// TrainExample pairs an instance with the knowledge active when it is
// serialized, letting one training stream mix datasets with different
// (or no) knowledge — exactly how upstream multi-task SFT mixes tasks.
type TrainExample struct {
	Spec      tasks.Spec
	Instance  *data.Instance
	Knowledge *tasks.Knowledge
}

// Train runs sample-level SGD (Adam) over the examples for the configured
// epochs, shuffling each epoch, updating exactly the unfrozen parameters in
// ps: one StepBatch per accumulation window, then clip and Adam. It returns
// the mean loss of the final epoch. Training state — the gradient buffers of
// ps and the optimizer's moments — lives only for the duration of the call.
func Train(m *Model, examples []TrainExample, tc TrainConfig, ps *nn.ParamSet) float64 {
	if len(examples) == 0 {
		return 0
	}
	defer ps.ReleaseGrads()
	rng := rand.New(rand.NewSource(tc.Seed))
	opt := nn.NewAdam(tc.LR)
	opt.WeightDecay = tc.WeightDecay
	batch := tc.BatchSize
	if batch <= 0 {
		batch = 8
	}
	order := make([]int, len(examples))
	for i := range order {
		order[i] = i
	}
	tag := tc.MetricTag
	if tag == "" {
		tag = "train"
	}
	stepMetric, lossMetric := tag+".step_us", tag+".epoch_loss"
	var lastEpochLoss float64
	exs := make([]tasks.Example, batch)
	window := make([]*tasks.Example, 0, batch)
	for epoch := 0; epoch < tc.Epochs; epoch++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		var total float64
		ps.ZeroGrad()
		for lo := 0; lo < len(order); lo += batch {
			window = window[:0]
			for i, idx := range order[lo:min(lo+batch, len(order))] {
				te := examples[idx]
				tasks.BuildExampleInto(&exs[i], te.Spec, te.Instance, te.Knowledge)
				window = append(window, &exs[i])
			}
			stepStart := m.Rec.Now()
			total = m.StepBatch(window, total)
			m.Rec.ObserveSince(stepMetric, stepStart)
			if tc.Clip > 0 {
				ps.ClipGradNorm(tc.Clip)
			}
			opt.Step(ps)
			ps.ZeroGrad()
		}
		lastEpochLoss = total / float64(len(examples))
		m.Rec.SetGauge(lossMetric, lastEpochLoss)
	}
	return lastEpochLoss
}

// pair is one (example, candidate) of a training window whose softmax
// gradient is not zero: one row of the candidate tower's backward.
type pair struct {
	ex, row int     // the example; the candidate's row in the forward's union
	scale   float64 // d·inv, the factor on the example's f in dL/dg
}

// StepBatch runs forward and backward over one accumulation window, adds
// every example's gradients to whatever parameters are unfrozen (backbone,
// patches, λ, trust), and returns loss plus the window's loss, each example's
// added in turn — so a running total over windows sums one example at a time.
// The caller owns ZeroGrad and the optimizer step.
//
// The weights do not change inside a window, so its examples share one
// forward — the one inference runs, which computes every row as that example
// alone would. The backward then walks the (example, candidate) pairs in
// order, skipping a pair whose softmax gradient is exactly zero, and the input
// rows in order, so each gradient element receives its terms in the order a
// window of one-example steps adds them. λ needs one more step: a patch's
// four layers share one coefficient, so each layer's backward leaves its λ
// terms in scratch and they are folded below, example by example.
func (m *Model) StepBatch(exs []*tasks.Example, loss float64) float64 {
	m.Rec.Count("model.train_step", int64(len(exs)))
	b := m.checkout()
	defer m.checkin(b)
	defer b.release()
	scores := m.scores(b, exs, m.forward(b, exs))
	n, h, pool, a := len(exs), m.Cfg.Hidden, &b.pool, &b.acts
	inv := 1 / math.Sqrt(float64(h))

	// Per example, softmax cross-entropy gives d = dL/dscores. The input
	// tower's output gradient sums d_k·inv·g_k over its candidates; each
	// candidate with d_k ≠ 0 is a pair whose output gradient is d_k·inv·f.
	dF := b.hold(n, h)
	b.pairs = b.pairs[:0]
	for i, ex := range exs {
		d := pool.GetVec(len(scores[i]))
		loss += nn.SoftmaxCE(scores[i], ex.Gold, d)
		df := dF.Row(i)
		df.Zero()
		for k, c := range ex.Candidates {
			df.Axpy(d[k]*inv, a.g.Row(b.uniq[c]))
			if d[k] == 0 {
				continue // contributes nothing, trust included
			}
			b.pairs = append(b.pairs, pair{ex: i, row: b.uniq[c], scale: d[k] * inv})
			if ex.Hints != nil && !m.Trust.Frozen {
				m.Trust.Grad += d[k] * ex.Hints[k]
			}
		}
		pool.PutVec(d)
	}

	// Candidate tower, one row per pair: the forward's union rows copied out
	// per pair, so a candidate two examples share is backpropagated twice.
	np := len(b.pairs)
	dG := b.hold(np, h)
	b.xs = b.xs[:0]
	for j, p := range b.pairs {
		row := dG.Row(j)
		copy(row, a.f.Row(p.ex))
		row.Scale(p.scale)
		b.xs = append(b.xs, b.cands[p.row])
	}
	G, CH := b.perPair(a.g), b.perPair(a.ch)
	dCH := b.hold(np, h)
	lamCD, lamCE := b.hold(np, len(m.candDense.Patches)), b.hold(np, len(m.candEmb.Patches))
	nn.TanhBackward(dG, G)
	m.candDense.BackwardBatch(CH, b.perPair(a.tapes[3]), dG, dCH, lamCD, pool)
	nn.TanhBackward(dCH, CH)
	m.candEmb.BackwardBatch(b.xs, b.perPair(a.tapes[2]), dCH, lamCE, pool)

	// Input tower, one row per example.
	dH := b.hold(n, h)
	lamID, lamIE := b.hold(n, len(m.inDense.Patches)), b.hold(n, len(m.inEmb.Patches))
	nn.TanhBackward(dF, a.f)
	m.inDense.BackwardBatch(a.h, a.tapes[1], dF, dH, lamID, pool)
	nn.TanhBackward(dH, a.h)
	m.inEmb.BackwardBatch(b.encs[:n], a.tapes[0], dH, lamIE, pool)

	// λ in the order one-example steps add it: per example, each candidate's
	// dense term then its embedding term, then the input tower's two.
	j := 0
	for i := range exs {
		for ; j < np && b.pairs[j].ex == i; j++ {
			m.candDense.AddCoefGrads(lamCD.Row(j))
			m.candEmb.AddCoefGrads(lamCE.Row(j))
		}
		m.inDense.AddCoefGrads(lamID.Row(i))
		m.inEmb.AddCoefGrads(lamIE.Row(i))
	}
	return loss
}

// perPair copies row pairs[j].row of src into row j of a held matrix.
func (b *batchScratch) perPair(src *tensor.Mat) *tensor.Mat {
	m := b.hold(len(b.pairs), src.Cols)
	for j, p := range b.pairs {
		copy(m.Row(j), src.Row(p.row))
	}
	return m
}

// ExamplesFrom builds TrainExamples for a dataset's instances under one
// knowledge value.
func ExamplesFrom(kind tasks.Kind, ins []*data.Instance, k *tasks.Knowledge) []TrainExample {
	spec := tasks.SpecFor(kind)
	out := make([]TrainExample, 0, len(ins))
	for _, in := range ins {
		out = append(out, TrainExample{Spec: spec, Instance: in, Knowledge: k})
	}
	return out
}
