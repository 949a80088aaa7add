// Package eval is the experiment harness: it builds and caches the model
// artifacts (bases, upstream DP-LLMs, patch libraries), wires every method
// of Section VII-A, and reproduces each table and figure of the paper's
// evaluation as a runnable experiment. See the registry in experiments.go.
package eval

import (
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/baselines"
	"repro/internal/data"
	"repro/internal/datagen"
	"repro/internal/faults"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/skc"
	"repro/internal/tasks"
)

// Size names the model tiers of the paper.
type Size string

// The model tiers. The 7B/8B/13B tiers correspond to Jellyfish backbones;
// the GPT tiers are wider generalists without upstream DP fine-tuning;
// Table is the TableLLaMA-style generalist.
const (
	Size7B    Size = "7B"
	Size8B    Size = "8B"
	Size13B   Size = "13B"
	SizeGPT35 Size = "GPT-3.5"
	SizeGPT4  Size = "GPT-4"
	SizeGPT4o Size = "GPT-4o"
	SizeTable Size = "Table"
)

func (s Size) hidden() int {
	switch s {
	case Size7B, SizeTable:
		return model.Hidden7B
	case Size8B:
		return model.Hidden8B
	case Size13B:
		return model.Hidden13B
	case SizeGPT35:
		return model.HiddenGPT35
	case SizeGPT4:
		return model.HiddenGPT4
	case SizeGPT4o:
		return model.HiddenGPT4o
	default:
		panic(fmt.Sprintf("eval: unknown size %q", s))
	}
}

// pretrainSamples returns the general-corpus size for a tier: the knob that
// orders general capability GPT-4 ≈ GPT-4o > GPT-3.5 > base > TableLLaMA.
func (s Size) pretrainSamples() int {
	switch s {
	case SizeGPT4, SizeGPT4o:
		return 9000
	case SizeGPT35:
		return 6000
	case SizeTable:
		return 1200
	default:
		return 4000
	}
}

// Zoo builds and caches every artifact the experiments share: generated
// datasets, pretrained bases, upstream-SFT'd DP-LLMs, extracted patch
// libraries, and MELD centroids. All artifacts are deterministic in
// (Seed, Scale) and immutable once built (methods train a clone's backbone
// or a share's patches, never a zoo model), so the cache is safe to hit
// from many experiment cells at once: concurrent requests for an artifact
// being built sleep on a condition variable until the builder publishes it.
type Zoo struct {
	Seed  int64
	Scale float64

	// Workers is the fan-out of the experiment cell pool (see runCells):
	// grids of independent (dataset × method) cells are evaluated by this
	// many goroutines. Values <= 1 keep today's serial path, running every
	// cell inline on the calling goroutine. Results are identical at any
	// worker count — cells derive their seeds from content-addressed keys,
	// not from execution order.
	Workers int

	// Rec, when set before the first artifact is built, threads
	// observability through every model the zoo constructs and every
	// KnowTrans transfer it runs; experiment runners additionally record a
	// per-cell wall-time histogram (eval.cell_us and eval.cell_us/<method>).
	// Leave nil for uninstrumented runs.
	Rec *obs.Recorder

	// Faults, when non-nil, arms chaos injection on the oracle path: every
	// AKB search runs against the simulated oracle wrapped in a seeded
	// faults.Injector and a resilience.ResilientOracle (core.OracleChain).
	// The spec's Seed is a base that each cell folds its own seed into, so
	// fault schedules are reproducible and worker-order independent. Nil —
	// the default — is the unwrapped, byte-identical production path.
	Faults *faults.Config

	mu       sync.Mutex
	cond     sync.Cond // on mu; broadcast when a build finishes
	cache    map[string]interface{}
	building map[string]bool // keys whose build is in flight
}

// NewZoo returns a Zoo generating datasets at the given scale of the
// paper's row counts (1.0 = full Table I sizes).
func NewZoo(seed int64, scale float64) *Zoo {
	if scale <= 0 || scale > 1 {
		panic("eval: scale must be in (0, 1]")
	}
	z := &Zoo{Seed: seed, Scale: scale, cache: map[string]interface{}{}, building: map[string]bool{}}
	z.cond.L = &z.mu
	return z
}

// memo caches build results by key. The lock is NOT held while build runs —
// builders recursively request other artifacts (Upstream needs Base), and a
// held mutex would self-deadlock. Duplicate concurrent builds are prevented
// by a per-key building marker; waiters block on the condition variable
// instead of sleep-polling and are woken by the broadcast every finished
// build sends. The marker is cleared under defer so a builder that panics
// releases the slot and wakes its waiters — one of them retries the build —
// rather than leaking a marker nobody owns and wedging every later request
// for the key.
func (z *Zoo) memo(key string, build func() interface{}) interface{} {
	z.mu.Lock()
	for {
		if v, ok := z.cache[key]; ok {
			z.mu.Unlock()
			return v
		}
		if !z.building[key] {
			break
		}
		z.cond.Wait()
	}
	z.building[key] = true
	z.mu.Unlock()

	var v interface{}
	built := false
	defer func() {
		z.mu.Lock()
		delete(z.building, key)
		if built {
			z.cache[key] = v
		}
		z.cond.Broadcast()
		z.mu.Unlock()
	}()
	v = build()
	built = true
	return v
}

// Downstream returns the 13 novel datasets of Table I.
func (z *Zoo) Downstream() []*datagen.Bundle {
	return z.memo("downstream", func() interface{} {
		return datagen.Downstream(z.Seed, z.Scale)
	}).([]*datagen.Bundle)
}

// DownstreamByKey returns one downstream dataset, panicking on an unknown
// key (experiment code passes literal keys). CLI paths that accept
// user-supplied keys should use FindDownstream instead.
func (z *Zoo) DownstreamByKey(key string) *datagen.Bundle {
	b, ok := z.FindDownstream(key)
	if !ok {
		panic(fmt.Sprintf("eval: unknown downstream dataset %q", key))
	}
	return b
}

// FindDownstream returns the downstream dataset with the given key, or
// false when no such dataset exists.
func (z *Zoo) FindDownstream(key string) (*datagen.Bundle, bool) {
	for _, b := range z.Downstream() {
		if b.Key() == key {
			return b, true
		}
	}
	return nil, false
}

// DownstreamKeys lists every downstream dataset key (for usage messages).
func (z *Zoo) DownstreamKeys() []string {
	var keys []string
	for _, b := range z.Downstream() {
		keys = append(keys, b.Key())
	}
	return keys
}

// UpstreamBundles returns the 12 upstream datasets of Table VII. Upstream
// data is the abundant resource of the setting (the paper's 36k labeled
// samples), so it is generated at a floor scale even when the downstream
// evaluation is shrunk.
func (z *Zoo) UpstreamBundles() []*datagen.Bundle {
	return z.memo("upstream", func() interface{} {
		scale := z.Scale
		if scale < 0.3 {
			scale = 0.3
		}
		return datagen.Upstream(z.Seed, scale)
	}).([]*datagen.Bundle)
}

// Base returns the pretrained base model of a tier (the Mistral-7B /
// Llama-3-8B / GPT analogue): general-corpus pretraining only, no DP
// upstream SFT.
func (z *Zoo) Base(size Size) *model.Model {
	return z.memo("base/"+string(size), func() interface{} {
		m := model.New(model.Config{
			Name:   "base-" + string(size),
			Hidden: size.hidden(),
			Seed:   z.Seed + int64(size.hidden()),
		})
		m.Rec = z.Rec
		// GPT tiers get the rich instruction-tuning mixture (error spotting,
		// repair priors); raw base models get the lean one; the
		// TableLLaMA-style generalist gets table tasks with no instruction
		// tuning at all — the capability ordering of Section VII-A.
		var corpus []datagen.LabeledExample
		switch size {
		case SizeGPT35, SizeGPT4, SizeGPT4o:
			corpus = datagen.GeneralCorpus(z.Seed+101, size.pretrainSamples(), true)
		case SizeTable:
			corpus = datagen.TableCorpus(z.Seed+101, size.pretrainSamples())
		default:
			corpus = datagen.GeneralCorpus(z.Seed+101, size.pretrainSamples(), false)
		}
		var exs []model.TrainExample
		for _, ex := range corpus {
			exs = append(exs, model.TrainExample{
				Spec:      ex.Kind.Spec(),
				Instance:  ex.Instance,
				Knowledge: ex.Knowledge,
			})
		}
		ps := m.Params()
		model.Train(m, exs, model.TrainConfig{Epochs: 2, LR: 0.02, Clip: 5, Seed: z.Seed + 7}, &ps)
		return m
	}).(*model.Model)
}

// The memo keys LoadArtifacts publishes under instead of building.
func upstreamKey(size Size) string { return "upstream-model/" + string(size) }
func patchesKey(size Size) string  { return "patches/" + string(size) }

// Upstream returns the upstream DP-LLM of a tier (the Jellyfish analogue):
// the base model fully fine-tuned on the 12 upstream datasets in one shared
// parameter space — the multi-task SFT whose gradient conflicts cause the
// knowledge-distraction problem.
func (z *Zoo) Upstream(size Size) *model.Model {
	return z.memo(upstreamKey(size), func() interface{} {
		m := z.Base(size).Clone()
		m.Cfg.Name = "jellyfish-" + string(size)
		var exs []model.TrainExample
		for _, b := range z.UpstreamBundles() {
			exs = append(exs, model.ExamplesFrom(b.Kind, rebalance(b, z.Seed), nil)...)
		}
		ps := m.Params()
		model.Train(m, exs, model.TrainConfig{Epochs: 3, LR: 0.015, Clip: 5, Seed: z.Seed + 13}, &ps)
		return m
	}).(*model.Model)
}

// rebalance caps the negative:positive ratio of binary upstream datasets at
// 4:1 for SFT, the standard DP-LLM training practice (the Jellyfish recipe
// rebalances its heavily skewed sources): without it the 1–6% positive
// rates of Table VII entrench an extreme "no" prior that few-shot
// fine-tuning cannot undo downstream.
func rebalance(b *datagen.Bundle, seed int64) []*data.Instance {
	if !b.Kind.IsBinary() {
		return b.DS.Train
	}
	var pos, neg []*data.Instance
	for _, in := range b.DS.Train {
		if in.GoldText() == tasks.AnswerYes {
			pos = append(pos, in)
		} else {
			neg = append(neg, in)
		}
	}
	maxNeg := 4 * len(pos)
	if len(pos) == 0 || len(neg) <= maxNeg {
		return b.DS.Train
	}
	rng := rand.New(rand.NewSource(seed + int64(len(b.DS.Train))))
	rng.Shuffle(len(neg), func(i, j int) { neg[i], neg[j] = neg[j], neg[i] })
	out := append(append([]*data.Instance{}, pos...), neg[:maxNeg]...)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// Patches returns the SKC knowledge-patch library of a tier: one LoRA patch
// per upstream dataset, extracted on the tier's base model (Section V-A's
// cross-model parameterization). Extraction happens once and is shared by
// every downstream transfer, like the paper's patch library.
func (z *Zoo) Patches(size Size) []*skc.NamedSnapshot {
	return z.memo(patchesKey(size), func() interface{} {
		var sources []skc.Source
		for _, b := range z.UpstreamBundles() {
			sources = append(sources, skc.Source{
				Name:     b.Key(),
				Examples: model.ExamplesFrom(b.Kind, rebalance(b, z.Seed+1), nil),
			})
		}
		return skc.ExtractPatches(z.Base(size), sources, skc.Options{Seed: z.Seed + 29, Rec: z.Rec})
	}).([]*skc.NamedSnapshot)
}

// Centroids returns the per-upstream-dataset record centroids MELD's
// instance-level gate routes with, aligned with Patches order.
func (z *Zoo) Centroids(size Size) []baselines.Centroid {
	return z.memo("centroids/"+string(size), func() interface{} {
		m := z.Base(size)
		var cents []baselines.Centroid
		for _, b := range z.UpstreamBundles() {
			ins := b.DS.Train
			if len(ins) > 200 {
				ins = ins[:200]
			}
			cents = append(cents, baselines.CentroidOf(m, b.Key(), ins))
		}
		return cents
	}).([]baselines.Centroid)
}
