// Package baselines implements every comparison method of the paper's
// Section VII-A: the non-LLM per-task methods (Raha-, IPM-, SMAT-, Ditto-,
// Doduo-, MAVE-, Baran-style), the open-source DP-LLM tiers (Mistral,
// TableLLaMA, MELD, Jellyfish, Jellyfish-ICL), and the closed-source GPT
// tiers used with in-context learning. Each method adapts to a downstream
// dataset from the same few-shot budget KnowTrans gets.
package baselines

import (
	"context"
	"fmt"

	"repro/internal/data"
	"repro/internal/datagen"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/tasks"
)

// Predictor answers instances of one downstream dataset, a slice at a time
// and one answer per instance in order. It is the serving tier's Adapter
// shape, so the *core.Adapted that serve holds is scored as it is.
// Model-backed methods answer through the backbone's batched forward; per-row
// methods through rowPredictor. The methods here ignore the context.
type Predictor interface {
	PredictBatch(ctx context.Context, ins []*data.Instance) []string
}

// rowPredictor is the one row loop of the methods that answer an instance at
// a time (the non-LLM learners, ICL's per-query retrieval, MELD's per-instance
// gate): their predict method, as a Predictor.
type rowPredictor func(in *data.Instance) string

func (predict rowPredictor) PredictBatch(_ context.Context, ins []*data.Instance) []string {
	out := make([]string, len(ins))
	for i, in := range ins {
		out[i] = predict(in)
	}
	return out
}

// AdaptContext is everything a method may use to adapt: the dataset bundle
// (for its task kind and seed knowledge — never its test labels), the
// few-shot labeled sample, and a seed.
type AdaptContext struct {
	Bundle  *datagen.Bundle
	FewShot []*data.Instance
	Seed    int64
	// Rec, when non-nil, is the recorder of the enclosing experiment cell;
	// methods thread it into the models they adapt so telemetry nests
	// under the cell's span (the parallel harness derives one recorder per
	// cell). Nil leaves each model's inherited recorder alone.
	Rec *obs.Recorder
}

// Method is one comparison system.
type Method interface {
	Name() string
	Adapt(ctx *AdaptContext) Predictor
}

// Evaluate runs a predictor over a test set with the task's metric. A
// predictor that answers a different number of rows than it was asked is a
// bug in the method, not a score: it panics.
func Evaluate(p Predictor, kind tasks.Kind, test []*data.Instance) float64 {
	metric := tasks.NewMetric(tasks.SpecFor(kind).Metric)
	got := p.PredictBatch(context.Background(), test)
	if len(got) != len(test) {
		panic(fmt.Sprintf("baselines: predictor answered %d of %d instances", len(got), len(test)))
	}
	for i, g := range got {
		metric.Add(g, test[i].GoldText())
	}
	return metric.Score()
}

// modelPredictor wraps a DP-LM, prompted without knowledge, as a Predictor.
type modelPredictor struct {
	m    *model.Model
	spec tasks.Spec
}

// PredictBatch answers the slice through the model's batched forward.
func (p *modelPredictor) PredictBatch(_ context.Context, ins []*data.Instance) []string {
	return p.m.PredictBatchWith(p.spec, ins, nil)
}

// FineTuned is the standard "fine-tune the whole model on the few-shot
// data" method applied to any backbone: the paper's Mistral, TableLLaMA and
// Jellyfish rows all follow this protocol.
type FineTuned struct {
	MethodName string
	// Backbone returns a fresh clone of the backbone to fine-tune.
	Backbone func() *model.Model
}

// Name implements Method.
func (f *FineTuned) Name() string { return f.MethodName }

// Adapt implements Method: full fine-tuning of the clone on the few-shot
// examples, under the few-shot schedule KnowTrans's own fine-tuning runs.
func (f *FineTuned) Adapt(ctx *AdaptContext) Predictor {
	m := f.Backbone()
	if ctx.Rec != nil {
		m.Rec = ctx.Rec
	}
	ps := m.Params()
	model.Train(m, model.ExamplesFrom(ctx.Bundle.Kind, ctx.FewShot, nil), model.FewShotTrain(ctx.Seed), &ps)
	return &modelPredictor{m: m, spec: ctx.Bundle.Spec()}
}
