// Package core is the public face of the reproduction: the KnowTrans
// framework of Section IV, wiring Selective Knowledge Concentration
// (internal/skc, training time) and Automatic Knowledge Bridging
// (internal/akb, inference time) into a single few-shot transfer pipeline.
//
// Typical use:
//
//	kt := &core.KnowTrans{
//		Upstream: upstreamModel, Patches: patchLibrary,
//		UseSKC: true, UseAKB: true,
//		Oracle: oracle.New(seed), // the simulated GPT-4o
//	}
//	ad, err := kt.Transfer(ctx, tasks.EM, fewshot, seed)
//	...
//	answer := ad.Predict(ctx, instance)
package core

import (
	"context"
	"fmt"

	"repro/internal/akb"
	"repro/internal/data"
	"repro/internal/faults"
	"repro/internal/lora"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/resilience"
	"repro/internal/skc"
	"repro/internal/tasks"
)

// KnowTrans configures the framework: a struct literal is the one way to
// build it (eval.Zoo's knowTrans is the one site outside tests and examples).
// UseSKC/UseAKB are the ablation switches of Table V; the full framework
// sets both.
type KnowTrans struct {
	Upstream *model.Model
	Patches  []*skc.NamedSnapshot

	// Strategy is how SKC weighs the upstream patches (Table VI); its zero
	// value is the adaptive λ of SKC proper.
	Strategy lora.WeightStrategy

	UseSKC bool
	UseAKB bool

	// Oracle is what the AKB search consults: an infallible in-process one
	// (the simulated GPT of internal/oracle, or a test stub). Transfer lifts
	// it into the akb.FallibleOracle seam per seed (OracleChain) — through
	// the injector/resilience chain when Faults is set, through the thin
	// akb.AsFallible adapter otherwise. Required when UseAKB is set.
	Oracle akb.Oracle
	// Faults, when non-nil, arms seeded chaos injection on the oracle path.
	Faults *faults.Config

	// Rec, when non-nil, wraps every Transfer in a root span and threads
	// observability down into the SKC and AKB stages.
	Rec *obs.Recorder
}

// OracleChain wraps a plain in-process oracle for the error-aware search
// path. With a nil fault spec it is the thin infallible adapter —
// byte-for-byte the production path. With one, the chain is
//
//	plain oracle → faults.Injector → resilience.ResilientOracle
//
// with the injector's schedule seeded from (spec.Seed, cellSeed) —
// content-addressed like every other seed in the repo, so chaos runs
// reproduce exactly regardless of concurrency. The client retries at once:
// the simulated oracle cannot hang, so injected timeouts arrive as
// instantaneous errors and a wait between retries would change no decision
// the chain makes.
func OracleChain(g akb.Oracle, spec *faults.Config, cellSeed int64, rec *obs.Recorder) akb.FallibleOracle {
	if spec == nil {
		return akb.AsFallible(g)
	}
	fcfg := *spec
	fcfg.Seed = faults.DeriveSeed(spec.Seed, cellSeed)
	fcfg.Rec = rec
	return resilience.New(faults.Wrap(g, fcfg), rec)
}

// Adapted is a model transferred to one downstream dataset: the fine-tuned
// model, the fusion module (when SKC ran), and the searched knowledge (when
// AKB ran).
type Adapted struct {
	Kind      tasks.Kind
	Model     *model.Model
	Fusion    *lora.Fusion
	Knowledge *tasks.Knowledge
	AKBResult *akb.Result
}

// Predict answers one instance with the searched knowledge in the prompt: a
// batch of one through PredictBatch. A canceled or expired context
// short-circuits to the empty string; callers without a deadline pass
// context.Background() and always get a real answer.
func (a *Adapted) Predict(ctx context.Context, in *data.Instance) string {
	if out := a.PredictBatch(ctx, []*data.Instance{in}); len(out) == 1 {
		return out[0]
	}
	return ""
}

// PredictBatch answers a whole micro-batch, one answer per instance in
// order, with the searched knowledge in the prompt. It is safe for
// concurrent calls on one Adapted (model.Model.PredictBatchWith runs each on
// its own scratch) and the returned slice belongs to the caller. A context
// already dead when the call starts gets nil and no forward. The serving
// batcher sheds expired rows before it calls and passes a context derived
// from context.Background(); the experiment harness passes
// context.Background() itself.
func (a *Adapted) PredictBatch(ctx context.Context, ins []*data.Instance) []string {
	if ctx != nil && ctx.Err() != nil {
		return nil
	}
	return a.Model.PredictBatchWith(tasks.SpecFor(a.Kind), ins, a.Knowledge)
}

// Transfer adapts the upstream DP-LLM to a novel dataset/task from the
// few-shot sample, per Fig. 2: SKC first (training time), then AKB
// (inference time) searching knowledge with the fine-tuned model in the
// loop. The context bounds the whole adaptation: cancellation is checked
// between stages and threaded into the AKB search and its oracle calls, so
// a serving layer can abandon a transfer whose requester went away.
func (kt *KnowTrans) Transfer(ctx context.Context, kind tasks.Kind, fewshot []*data.Instance, seed int64) (*Adapted, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if len(fewshot) == 0 {
		return nil, fmt.Errorf("core: transfer needs few-shot data")
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: transfer: %w", err)
	}
	rec, span := kt.Rec.StartSpan("core.transfer")
	defer span.End()
	span.SetAttr("kind", string(kind))
	span.SetAttr("fewshot", len(fewshot))
	span.SetAttr("seed", seed)
	ad := &Adapted{Kind: kind}
	examples := model.ExamplesFrom(kind, fewshot, nil)

	if kt.UseSKC {
		opts := skc.Options{Strategy: kt.Strategy, Seed: seed, Rec: rec}
		tr, err := skc.Transfer(kt.Upstream, kt.Patches, examples, opts)
		if err != nil {
			return nil, fmt.Errorf("core: SKC transfer: %w", err)
		}
		ad.Model, ad.Fusion = tr.Model, tr.Fusion
	} else {
		m := kt.Upstream.Clone()
		tc := model.FewShotTrain(seed)
		tc.MetricTag = "core.plain_ft"
		ps := m.Params()
		model.Train(m, examples, tc, &ps)
		ad.Model = m
	}

	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: transfer: %w", err)
	}
	if kt.UseAKB {
		if kt.Oracle == nil {
			return nil, fmt.Errorf("core: AKB enabled but no oracle configured")
		}
		cfg := akb.DefaultConfig(seed)
		cfg.Rec = rec
		res := akb.SearchFallible(ctx, ad.Model, OracleChain(kt.Oracle, kt.Faults, seed, rec), kind, fewshot, nil, cfg)
		ad.Knowledge, ad.AKBResult = res.Best, res
	}
	return ad, nil
}
