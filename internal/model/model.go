// Package model implements the DP-LM substrate that stands in for the
// paper's DP-LLMs (Jellyfish, Mistral, TableLLaMA, the GPT tiers): a sparse
// feature-hashing dual-encoder scorer trained with softmax cross-entropy
// over candidate answers (the ranking realization of Eq. 3's conditional
// language modeling — see DESIGN.md).
//
// The model scores a prompt x against each candidate answer c_k as
//
//	s_k = f(x)·g(c_k)/√h + trust·hint_k
//
// where f and g are two-layer tanh encoders over hashed prompt/candidate
// features and hint_k is the knowledge-rule support computed by
// tasks.Knowledge.Hints. The trust scalar is trainable and starts at zero:
// the model only "follows instructions" to the degree upstream instruction
// tuning taught it to, which is the substrate's analog of an
// instruction-tuned LLM acting on stated knowledge.
//
// Every linear layer accepts LoRA attachments, so SKC's knowledge patches
// (internal/lora, internal/skc) apply to the full model.
package model

import (
	"math/rand"
	"sync"

	"repro/internal/data"
	"repro/internal/lora"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/tasks"
	"repro/internal/text"
)

// Config fixes a model's architecture. Name is a human-readable identity
// used in experiment output ("Jellyfish-7B", "GPT-4o", ...).
type Config struct {
	Name   string
	Dim    int // hashed feature dimensionality
	Hidden int // encoder width; the analog of parameter count
	Seed   int64
}

// Preset widths: the paper's model sizes map to encoder widths, preserving
// the capacity ordering 7B < 8B < 13B < GPT-3.5 < GPT-4o ≤ GPT-4.
const (
	Hidden7B    = 48
	Hidden8B    = 56
	Hidden13B   = 80
	HiddenGPT35 = 96
	HiddenGPT4o = 128
	HiddenGPT4  = 128
)

// DefaultDim is the default feature dimensionality.
const DefaultDim = text.DefaultDim

// Model is one DP-LM instance: weights, which inference only reads, plus
// scratch, which every forward mutates. Ownership follows that split.
// PredictBatchWith (and PredictWith / Evaluate on top of it) may be called by
// any number of goroutines at once — each call checks a batchScratch out of
// the model's free list and returns a slice its caller owns. Everything else
// belongs to the model's single owner, who serializes it and runs it while no
// concurrent call is in flight: whatever writes weights or gradients
// (StepBatch, Train, attaching patches, LoadSnapshot) and the two methods that
// hand back views into scratch the owner keeps (ScoresBatch, PredictBatch).
// The layers themselves hold weights only; a forward's activations live in
// the scratch it checked out (see batch.go). An experiment cell adapts and
// evaluates its own clone; on the serve path Transfer owns the model until it
// is published, and from then on the batcher's lanes only call
// PredictBatchWith.
type Model struct {
	Cfg    Config
	Hasher *text.Hasher

	inEmb, candEmb     *nn.Embedding
	inDense, candDense *nn.Dense

	// Trust is the learned weight on knowledge-rule hints.
	Trust *nn.Scalar

	// Rec, when non-nil, receives forward/predict counters and train-step
	// timings. All instrumentation is nil-safe, so the zero value stays
	// observability-free at zero cost (see internal/obs).
	Rec *obs.Recorder

	mu   sync.Mutex
	free []*batchScratch // inference scratches not in use, guarded by mu
	own  *batchScratch   // the owner's, see owned
}

// New constructs a randomly initialized model.
func New(cfg Config) *Model {
	if cfg.Dim == 0 {
		cfg.Dim = DefaultDim
	}
	if cfg.Hidden == 0 {
		cfg.Hidden = Hidden7B
	}
	return newModel(cfg, rand.New(rand.NewSource(cfg.Seed)))
}

// newModel allocates a model of cfg's shape, initializing the backbone from
// rng or, when rng is nil, leaving it zero for the caller to fill.
func newModel(cfg Config, rng *rand.Rand) *Model {
	m := &Model{Cfg: cfg, Hasher: text.NewHasher(cfg.Dim), Trust: &nn.Scalar{Name: "trust"}}
	m.inEmb = nn.NewEmbedding("in.emb", cfg.Dim, cfg.Hidden, rng)
	m.inDense = nn.NewDense("in.dense", cfg.Hidden, cfg.Hidden, rng)
	m.candEmb = nn.NewEmbedding("cand.emb", cfg.Dim, cfg.Hidden, rng)
	m.candDense = nn.NewDense("cand.dense", cfg.Hidden, cfg.Hidden, rng)
	return m
}

// Params returns the base parameters including every attached patch factor
// and the trust scalar. Frozen flags are respected by the optimizer.
func (m *Model) Params() nn.ParamSet {
	var ps nn.ParamSet
	ps.Add(m.inEmb.Params()...)
	ps.Add(m.inDense.Params()...)
	ps.Add(m.candEmb.Params()...)
	ps.Add(m.candDense.Params()...)
	ps.AddScalar(m.Trust)
	return ps
}

// BaseParams returns only the backbone matrices (no patches), used for
// freezing and for snapshotting.
func (m *Model) BaseParams() []*nn.Param {
	return []*nn.Param{m.inEmb.E, m.inDense.W, m.inDense.B, m.candEmb.E, m.candDense.W, m.candDense.B}
}

// matShape is one backbone matrix: its parameter name and element count.
type matShape struct {
	name string
	n    int
}

// backboneShapes is what BaseParams returns for a cfg-shaped model, without
// building one: each matrix's name and length, in order. Every snapshot is
// checked against it — by DecodeSnapshot before a model is allocated for it,
// by LoadSnapshot before copying. TestBackboneShapes holds it to newModel.
func backboneShapes(cfg Config) []matShape {
	d, h := cfg.Dim, cfg.Hidden
	return []matShape{
		{"in.emb.E", d * h}, {"in.dense.W", h * h}, {"in.dense.b", h},
		{"cand.emb.E", d * h}, {"cand.dense.W", h * h}, {"cand.dense.b", h},
	}
}

// SetBaseFrozen freezes or unfreezes the backbone (not patches, not trust).
func (m *Model) SetBaseFrozen(frozen bool) {
	for _, p := range m.BaseParams() {
		p.Frozen = frozen
	}
}

// LoraLayers exposes the adaptable layers for lora.Attach, keyed by stable
// names so patches extracted on one instance load into another.
func (m *Model) LoraLayers() map[string]lora.Layer {
	return map[string]lora.Layer{
		"in.emb":     m.inEmb,
		"in.dense":   m.inDense,
		"cand.emb":   m.candEmb,
		"cand.dense": m.candDense,
	}
}

// PredictWith answers one instance under the given knowledge: a batch of one
// through PredictBatchWith.
func (m *Model) PredictWith(spec tasks.Spec, in *data.Instance, k *tasks.Knowledge) string {
	return m.PredictBatchWith(spec, []*data.Instance{in}, k)[0]
}

// Evaluate scores the model on instances with the given knowledge and
// returns the task metric on the 100-point scale.
func (m *Model) Evaluate(spec tasks.Spec, ins []*data.Instance, k *tasks.Knowledge) float64 {
	metric := tasks.NewMetric(spec.Metric)
	for i, ans := range m.PredictBatchWith(spec, ins, k) {
		metric.Add(ans, ins[i].GoldText())
	}
	return metric.Score()
}
