// Package core is the public face of the reproduction: the KnowTrans
// framework of Section IV, wiring Selective Knowledge Concentration
// (internal/skc, training time) and Automatic Knowledge Bridging
// (internal/akb, inference time) into a single few-shot transfer pipeline.
//
// Typical use:
//
//	kt := core.NewKnowTrans(upstreamModel, patchLibrary,
//		core.WithPlainOracle(oracle.New(seed)), // the simulated GPT-4o
//	)
//	ad, err := kt.Transfer(ctx, tasks.EM, fewshot, seed)
//	...
//	answer := ad.Predict(ctx, instance)
package core

import (
	"context"
	"fmt"
	"time"

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

// KnowTrans configures the framework. UseSKC/UseAKB are the ablation
// switches of Table V; both default to on via NewKnowTrans.
type KnowTrans struct {
	Upstream *model.Model
	Patches  []*skc.NamedSnapshot

	SKC skc.Options
	AKB akb.Config

	UseSKC bool
	UseAKB bool

	// Rec, when non-nil, wraps every Transfer in a root span and threads
	// observability down into the SKC and AKB stages (overriding any
	// Rec already set on kt.SKC / kt.AKB so the spans nest correctly).
	Rec *obs.Recorder

	// plain and chaosSpec back the WithPlainOracle/WithFaults options:
	// Transfer builds the per-seed oracle chain (OracleChain) from them.
	plain     akb.Oracle
	chaosSpec *faults.Config
}

// NewKnowTrans returns a fully enabled framework with paper defaults,
// customized by functional options — the one construction path serve, the
// experiment harness, and the CLI all share:
//
//	kt := core.NewKnowTrans(upstream, patches,
//		core.WithPlainOracle(oracle.New(seed)),
//		core.WithRecorder(rec),
//		core.WithFaults(chaosSpec), // nil disarms
//	)
func NewKnowTrans(upstream *model.Model, patches []*skc.NamedSnapshot, opts ...Option) *KnowTrans {
	kt := &KnowTrans{
		Upstream: upstream,
		Patches:  patches,
		UseSKC:   true,
		UseAKB:   true,
	}
	for _, o := range opts {
		if o != nil {
			o(kt)
		}
	}
	return kt
}

// OracleChain wraps a plain in-process oracle for the error-aware search
// path. With a nil fault spec it is the thin infallible adapter —
// byte-for-byte the production path. With one, the chain is
//
//	plain oracle → faults.Injector → resilience.ResilientOracle
//
// with the injector's schedule and the client's backoff jitter seeded from
// (spec.Seed, cellSeed) — content-addressed like every other seed in the
// repo, so chaos runs reproduce exactly regardless of concurrency. Backoff
// waits are elided and per-attempt deadlines disabled: the simulated oracle
// cannot hang, so injected timeouts arrive as instantaneous errors and
// sleeping between retries would only slow callers without changing any
// decision the chain makes.
func OracleChain(g akb.Oracle, spec *faults.Config, cellSeed int64, rec *obs.Recorder) akb.FallibleOracle {
	if spec == nil {
		return akb.AsFallible(g)
	}
	fcfg := *spec
	fcfg.Seed = faults.DeriveSeed(spec.Seed, cellSeed)
	fcfg.Rec = rec
	return resilience.New(faults.Wrap(g, fcfg), resilience.Policy{
		Seed:        faults.DeriveSeed(spec.Seed+1, cellSeed),
		Sleep:       func(time.Duration) {},
		CallTimeout: -1,
		Rec:         rec,
	})
}

// resolveOracle lifts the plain oracle through OracleChain (which also arms
// the chaos chain when WithFaults set a spec).
func (kt *KnowTrans) resolveOracle(seed int64, rec *obs.Recorder) (akb.FallibleOracle, error) {
	if kt.plain == nil {
		return nil, fmt.Errorf("core: AKB enabled but no oracle configured")
	}
	return OracleChain(kt.plain, kt.chaosSpec, seed, rec), nil
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
// its own scratch) and the returned slice belongs to the caller; a dead
// context returns nil — the serving layer uses this to shed work nobody is
// waiting for.
func (a *Adapted) PredictBatch(ctx context.Context, ins []*data.Instance) []string {
	if ctx != nil && ctx.Err() != nil {
		return nil
	}
	return a.Model.PredictBatchWith(tasks.SpecFor(a.Kind), ins, a.Knowledge)
}

// Detached is Adapted without the context parameter: the shape the
// experiment harness's Predictor seam expects. Every call runs under
// context.Background().
type Detached struct{ *Adapted }

// Predict satisfies the harness's context-free Predictor interface.
func (d Detached) Predict(in *data.Instance) string {
	return d.Adapted.Predict(context.Background(), in)
}

// PredictBatch satisfies the harness's context-free batched face, so
// experiment eval loops score adapted models a slice at a time.
func (d Detached) PredictBatch(ins []*data.Instance) []string {
	return d.Adapted.PredictBatch(context.Background(), ins)
}

// Detached returns a context-free predictor view of the adapted model.
func (a *Adapted) Detached() Detached { return Detached{a} }

// SearchedKnowledge returns the knowledge AKB selected (nil when AKB was
// disabled or concluded that no knowledge helps).
func (a *Adapted) SearchedKnowledge() *tasks.Knowledge { return a.Knowledge }

// Evaluate scores the adapted model on a test set with the task metric.
func (a *Adapted) Evaluate(test []*data.Instance) float64 {
	return akb.Evaluate(a.Model, tasks.SpecFor(a.Kind), test, a.Knowledge)
}

// Transfer adapts the upstream DP-LLM to a novel dataset/task from the
// few-shot sample, per Fig. 2: SKC first (training time), then AKB
// (inference time) searching knowledge with the fine-tuned model in the
// loop. The context bounds the whole adaptation: cancellation is checked
// between stages and threaded into the AKB search (whose oracle calls
// honor per-call deadlines), so a serving layer can abandon a transfer
// whose requester went away.
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
	rec.Count("core.transfers", 1)
	ad := &Adapted{Kind: kind}
	examples := model.ExamplesFrom(kind, fewshot, nil)

	if kt.UseSKC {
		opts := kt.SKC
		opts.Seed = seed
		if rec != nil {
			opts.Rec = rec
		}
		tr, err := skc.Transfer(kt.Upstream, kt.Patches, examples, opts)
		if err != nil {
			return nil, fmt.Errorf("core: SKC transfer: %w", err)
		}
		ad.Model, ad.Fusion = tr.Model, tr.Fusion
	} else {
		_, ftSpan := rec.StartSpan("core.plain_ft")
		m := kt.Upstream.Clone()
		tc := model.DefaultTrain(seed)
		tc.Epochs = 6
		tc.LR = 0.01
		tc.WeightDecay = 3e-4
		tc.BatchSize = 4
		tc.MetricTag = "core.plain_ft"
		ps := m.Params()
		model.Train(m, examples, tc, &ps)
		ad.Model = m
		ftSpan.End()
	}

	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: transfer: %w", err)
	}
	if kt.UseAKB {
		fo, err := kt.resolveOracle(seed, rec)
		if err != nil {
			return nil, err
		}
		// SearchFallible normalizes the config (unset fields get the paper
		// defaults, caller-set fields survive).
		cfg := kt.AKB
		cfg.Seed = seed
		if rec != nil {
			cfg.Rec = rec
		}
		res := akb.SearchFallible(ctx, ad.Model, fo, kind, fewshot, nil, cfg)
		ad.Knowledge, ad.AKBResult = res.Best, res
	}
	return ad, nil
}
