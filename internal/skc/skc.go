// Package skc implements Selective Knowledge Concentration (Section V,
// Algorithm 1): the training-time component of KnowTrans.
//
// Stage 1 — Upstream knowledge patch extraction: for every upstream dataset,
// fine-tune a LoRA patch on the *base* model (not the upstream DP-LLM, which
// has already absorbed the data — Section V-A's cross-model low-rank
// parameterization, Eq. 2–3) with the backbone frozen.
//
// Stage 2 — Dynamic knowledge patch fusion: attach the extracted patches to
// the upstream DP-LLM weighted by trainable interpolation weights λ, plus a
// fresh shared patch ΔW_{N+1} at weight 1 (Eq. 4).
//
// Stage 3 — Few-shot fine-tuning: with the backbone fixed, train only the
// patch factors and λ on the few-shot downstream data (Eq. 5).
package skc

import (
	"fmt"
	"math/rand"

	"repro/internal/lora"
	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/obs"
)

// Source is one upstream dataset prepared for patch extraction.
type Source struct {
	Name     string
	Examples []model.TrainExample
}

// NamedSnapshot is an extracted, serializable knowledge patch.
type NamedSnapshot struct {
	Name string
	Snap *lora.Snapshot
}

// Options configures the SKC pipeline: the λ weight strategy, the seed and
// the recorder are the caller's; the patch shape and the two training
// schedules are the paper's Section VII-A recipe scaled to the substrate,
// filled in by withDefaults (the package's tests shrink them).
type Options struct {
	Strategy lora.WeightStrategy
	Seed     int64
	// Rec, when non-nil, receives per-stage spans, per-epoch loss gauges,
	// and the final λ weight of every fused patch (skc.lambda/<name>).
	Rec *obs.Recorder

	patch      lora.Config
	patchTrain model.TrainConfig
	fewShot    model.TrainConfig
}

// withDefaults fills unset options.
func (o Options) withDefaults() Options {
	if o.patch.Rank == 0 {
		o.patch = lora.DefaultConfig()
	}
	if o.patchTrain.Epochs == 0 {
		o.patchTrain = model.TrainConfig{Epochs: 2, LR: 0.02, Clip: 5, Seed: o.Seed + 1}
	}
	if o.fewShot.Epochs == 0 {
		o.fewShot = model.FewShotTrain(o.Seed + 2)
	}
	// Strategy's zero value is StrategyAdaptive — SKC proper.
	return o
}

// ExtractPatches runs Stage 1: one LoRA patch per upstream source, trained
// on a share of the base model (model.Model.Share), which cannot train the
// backbone it reads, with trust frozen. The base model is left untouched.
func ExtractPatches(base *model.Model, sources []Source, opts Options) []*NamedSnapshot {
	opts = opts.withDefaults()
	rec, span := opts.Rec.StartSpan("skc.extract")
	defer span.End()
	span.SetAttr("sources", len(sources))
	out := make([]*NamedSnapshot, 0, len(sources))
	for i, src := range sources {
		_, ps2 := rec.StartSpan("skc.extract.patch")
		ps2.SetAttr("source", src.Name)
		ps2.SetAttr("examples", len(src.Examples))
		host := base.Share()
		host.Trust.Frozen = true
		rng := rand.New(rand.NewSource(opts.Seed + int64(i)*31 + 17))
		coef := &nn.Scalar{Name: "extract", Val: 1, Frozen: true}
		patch := lora.Attach(src.Name, host.LoraLayers(), opts.patch, coef, rng)
		var ps nn.ParamSet
		ps.Add(patch.Params()...)
		tc := opts.patchTrain
		tc.Seed = opts.Seed + int64(i)*131
		if tc.MetricTag == "" {
			tc.MetricTag = "skc.extract"
		}
		loss := model.Train(host, src.Examples, tc, &ps)
		ps2.SetAttr("final_loss", loss)
		ps2.End()
		out = append(out, &NamedSnapshot{Name: src.Name, Snap: patch.Export()})
	}
	return out
}

// Transferred is the outcome of SKC: the adapted model and its fusion
// module (for inspecting λ).
type Transferred struct {
	Model  *model.Model
	Fusion *lora.Fusion
}

// BuildFusion runs Stage 2: on a share of the upstream model — its backbone
// read in place, never copied, and out of reach of any optimizer — it
// attaches every extracted patch under the configured weight strategy plus
// the fresh shared patch, and returns the fused model ready for few-shot
// fine-tuning. The fused model owns only its patches and trust.
func BuildFusion(upstream *model.Model, snaps []*NamedSnapshot, opts Options) (*Transferred, error) {
	opts = opts.withDefaults()
	_, span := opts.Rec.StartSpan("skc.fuse")
	defer span.End()
	span.SetAttr("patches", len(snaps))
	span.SetAttr("strategy", opts.Strategy.String())
	m := upstream.Share()
	m.Trust.Frozen = true
	rng := rand.New(rand.NewSource(opts.Seed + 911))
	fusion := &lora.Fusion{}

	if opts.Strategy == lora.StrategySingle {
		snaps = nil
	}
	// Each layer keeps the B factors of all its patches in one bank; the
	// patch count is known here, so the banks are sized once and the library
	// is loaded in one pass over each.
	layers := m.LoraLayers()
	lora.Reserve(layers, len(snaps)+1, opts.patch)
	library := make([]*lora.Snapshot, len(snaps))
	for i, ns := range snaps {
		coef := &nn.Scalar{Name: "λ/" + ns.Name, Val: 1 / float64(len(snaps))}
		if opts.Strategy == lora.StrategyUniform {
			coef.Frozen = true
		}
		fusion.Upstream = append(fusion.Upstream, lora.AttachUnset(ns.Name, layers, opts.patch, coef, rng))
		fusion.Lambdas = append(fusion.Lambdas, coef)
		library[i] = ns.Snap
	}
	if err := lora.LoadAll(fusion.Upstream, library); err != nil {
		return nil, fmt.Errorf("skc: loading patches: %w", err)
	}
	shared := lora.Attach("shared", layers, opts.patch,
		&nn.Scalar{Name: "λ/shared", Val: 1, Frozen: true}, rng)
	fusion.Shared = shared
	return &Transferred{Model: m, Fusion: fusion}, nil
}

// FewShotFineTune runs Stage 3 on a fused model: only patch factors and
// (for the adaptive strategy) λ are trainable; the backbone stays fixed.
// It returns the final mean loss.
func FewShotFineTune(tr *Transferred, examples []model.TrainExample, opts Options) float64 {
	opts = opts.withDefaults()
	_, span := opts.Rec.StartSpan("skc.fewshot_ft")
	defer span.End()
	span.SetAttr("examples", len(examples))
	ps := tr.Fusion.TrainableParams()
	if opts.fewShot.MetricTag == "" {
		opts.fewShot.MetricTag = "skc.fewshot"
	}
	loss := model.Train(tr.Model, examples, opts.fewShot, &ps)
	span.SetAttr("final_loss", loss)
	recordLambdas(opts.Rec, tr.Fusion)
	return loss
}

// recordLambdas exports the fusion's current interpolation weights, one
// gauge per upstream patch — the quantity Table VI's strategies differ on.
func recordLambdas(rec *obs.Recorder, f *lora.Fusion) {
	if rec == nil || f == nil {
		return
	}
	for i, p := range f.Upstream {
		rec.SetGauge("skc.lambda/"+p.Name, f.Lambdas[i].Val)
	}
}

// Transfer is the one-call SKC pipeline of Algorithm 1: extract (or reuse
// pre-extracted) patches, fuse, and few-shot fine-tune. snaps may come from
// a previous ExtractPatches run — extraction is independent of the
// downstream dataset and is meant to be done once and reused, exactly like
// the paper's patch library.
func Transfer(upstream *model.Model, snaps []*NamedSnapshot, fewshot []model.TrainExample, opts Options) (*Transferred, error) {
	rec, span := opts.Rec.StartSpan("skc.transfer")
	defer span.End()
	opts.Rec = rec
	tr, err := BuildFusion(upstream, snaps, opts)
	if err != nil {
		return nil, err
	}
	FewShotFineTune(tr, fewshot, opts)
	return tr, nil
}
