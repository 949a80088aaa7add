package model

import (
	"math/rand"

	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/tasks"
)

// TrainConfig fixes a fine-tuning run. The defaults mirror the paper's
// Section VII-A recipe scaled to the substrate: 3 epochs, small learning
// rate, gradient clipping.
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
	// skc.fewshot.step_us). Empty means "train".
	MetricTag string
}

// DefaultTrain returns the standard fine-tuning configuration.
func DefaultTrain(seed int64) TrainConfig {
	return TrainConfig{Epochs: 3, LR: 0.02, Clip: 5, Seed: seed, WeightDecay: 1e-4}
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
// ps. It returns the mean loss of the final epoch. Training state — the
// gradient buffers of ps and the optimizer's moments — lives only for the
// duration of the call.
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
	var ex tasks.Example
	for epoch := 0; epoch < tc.Epochs; epoch++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		var total float64
		ps.ZeroGrad()
		pending := 0
		for _, idx := range order {
			te := examples[idx]
			tasks.BuildExampleInto(&ex, te.Spec, te.Instance, te.Knowledge)
			stepStart := m.Rec.Now()
			total += m.Step(&ex)
			m.Rec.ObserveSince(stepMetric, stepStart)
			pending++
			if pending == batch {
				if tc.Clip > 0 {
					ps.ClipGradNorm(tc.Clip)
				}
				opt.Step(ps)
				ps.ZeroGrad()
				pending = 0
			}
		}
		if pending > 0 {
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
