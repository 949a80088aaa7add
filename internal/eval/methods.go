package eval

import (
	"context"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/lora"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/oracle"
)

// Method names as they appear in the paper's tables.
const (
	MethodNonLLM       = "Non-LLM"
	MethodMistral      = "Mistral"
	MethodTableLLaMA   = "TableLLaMA"
	MethodMELD         = "MELD"
	MethodJellyfish    = "Jellyfish"
	MethodJellyfishICL = "Jellyfish-ICL"
	MethodKnowTrans    = "KnowTrans"
	MethodGPT35        = "GPT-3.5"
	MethodGPT4         = "GPT-4"
	MethodGPT4o        = "GPT-4o"
)

// Method builds a baselines.Method from the zoo's artifacts.
func (z *Zoo) Method(name string) baselines.Method {
	switch name {
	case MethodNonLLM:
		return baselines.NonLLM{}
	case MethodMistral:
		// The paper fine-tunes raw Mistral-7B on the few-shot data.
		return &baselines.FineTuned{MethodName: name, Backbone: func() *model.Model { return z.Base(Size7B).Clone() }}
	case MethodTableLLaMA:
		return &baselines.FineTuned{MethodName: name, Backbone: func() *model.Model { return z.Base(SizeTable).Clone() }}
	case MethodMELD:
		return &baselines.MELD{
			Backbone:  func() *model.Model { return z.Upstream(Size7B) },
			Snaps:     z.Patches(Size7B),
			Centroids: z.Centroids(Size7B),
		}
	case MethodJellyfish:
		return &baselines.FineTuned{MethodName: name, Backbone: func() *model.Model { return z.Upstream(Size7B).Clone() }}
	case MethodJellyfishICL:
		return &baselines.ICL{MethodName: name, Backbone: func() *model.Model { return z.Upstream(Size7B) }, VoteWeight: 0.6}
	case MethodKnowTrans:
		return z.KnowTransMethod(Size7B, true, true, lora.StrategyAdaptive)
	case MethodGPT35:
		return &baselines.ICL{MethodName: name, Backbone: func() *model.Model { return z.Base(SizeGPT35) }, VoteWeight: 1.0}
	case MethodGPT4:
		return &baselines.ICL{MethodName: name, Backbone: func() *model.Model { return z.Base(SizeGPT4) }, VoteWeight: 1.2}
	case MethodGPT4o:
		return &baselines.ICL{MethodName: name, Backbone: func() *model.Model { return z.Base(SizeGPT4o) }, VoteWeight: 1.2}
	default:
		panic("eval: unknown method " + name)
	}
}

// ktMethod adapts core.KnowTrans to the baselines.Method interface, with
// ablation and weight-strategy switches for Tables V and VI.
type ktMethod struct {
	name     string
	z        *Zoo
	size     Size
	upstream bool // false: run on the raw base backbone (Fig. 5/6 Mistral row)
	useSKC   bool
	useAKB   bool
	strategy lora.WeightStrategy
}

// KnowTransMethod returns the full framework on a Jellyfish backbone of the
// given size, with ablation switches.
func (z *Zoo) KnowTransMethod(size Size, useSKC, useAKB bool, strategy lora.WeightStrategy) baselines.Method {
	name := MethodKnowTrans + "-" + string(size)
	switch {
	case useSKC && !useAKB:
		name += " (w/o AKB)"
	case !useSKC && useAKB:
		name += " (w/o SKC)"
	case !useSKC && !useAKB:
		name += " (w/o SKC & AKB)"
	}
	if strategy != lora.StrategyAdaptive {
		name += " [" + strategy.String() + "]"
	}
	return &ktMethod{name: name, z: z, size: size, upstream: true, useSKC: useSKC, useAKB: useAKB, strategy: strategy}
}

// KnowTransOnBase returns KnowTrans applied to a base (non-upstream-trained)
// backbone — the Mistral-7B + KnowTrans configuration of Fig. 5/6.
func (z *Zoo) KnowTransOnBase(size Size) baselines.Method {
	return &ktMethod{name: MethodKnowTrans + "-base-" + string(size), z: z, size: size, upstream: false, useSKC: true, useAKB: true}
}

func (k *ktMethod) Name() string { return k.name }

func (k *ktMethod) Adapt(ctx *baselines.AdaptContext) baselines.Predictor {
	backbone := k.z.Base(k.size)
	if k.upstream {
		backbone = k.z.Upstream(k.size)
	}
	kt := k.z.knowTrans(backbone, k.size, ctx.Seed, ctx.Rec, k.useSKC, k.useAKB, k.strategy)
	ad, err := kt.Transfer(context.Background(), ctx.Bundle.Kind, ctx.FewShot, ctx.Seed)
	if err != nil {
		panic(err)
	}
	return ad
}

// AdaptKnowTrans exposes the full Adapted artifact (fusion weights, searched
// knowledge) for experiments that inspect internals (Table VI, Fig. 7).
func (z *Zoo) AdaptKnowTrans(ctx *baselines.AdaptContext, size Size, useSKC, useAKB bool) (*core.Adapted, error) {
	kt := z.knowTrans(z.Upstream(size), size, ctx.Seed, ctx.Rec, useSKC, useAKB, lora.StrategyAdaptive)
	return kt.Transfer(context.Background(), ctx.Bundle.Kind, ctx.FewShot, ctx.Seed)
}

// Oracle returns the simulated GPT one AKB search consults, seeded from the
// search's cell seed. Every search the harness runs — a full Transfer, Fig. 7's
// round sweep, the oracle ablation — and every example built on a zoo gets its
// oracle here, so one (seed, dataset) meets one oracle stream on every path.
// The offset keeps that stream apart from the few-shot sampler's, which is
// seeded with the bare cell seed.
func (z *Zoo) Oracle(cellSeed int64, temperature float64) *oracle.GPT {
	return oracle.NewWithTemperature(cellSeed+771, temperature)
}

// knowTrans is the one place the zoo's artifacts become a core.KnowTrans:
// the experiment grid (ktMethod.Adapt, AdaptKnowTrans), the serving layer and
// the CLI (TransferDataset) all adapt through it, so one (seed, dataset)
// gives one adapter on every path. A nil rec means the zoo's recorder.
func (z *Zoo) knowTrans(backbone *model.Model, size Size, cellSeed int64, rec *obs.Recorder, useSKC, useAKB bool, strategy lora.WeightStrategy) *core.KnowTrans {
	if rec == nil {
		rec = z.Rec
	}
	return &core.KnowTrans{
		Upstream: backbone,
		Patches:  z.Patches(size),
		Strategy: strategy,
		UseSKC:   useSKC,
		UseAKB:   useAKB,
		Oracle:   z.Oracle(cellSeed, oracle.PaperTemperature),
		Faults:   z.Faults,
		Rec:      rec,
	}
}
