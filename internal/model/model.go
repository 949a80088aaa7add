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
	"math"
	"math/rand"
	"sync"

	"repro/internal/data"
	"repro/internal/lora"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/tasks"
	"repro/internal/tensor"
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
// concurrent call is in flight: whatever writes weights or layer activations
// (Step, Train, attaching patches, LoadSnapshot) and the two methods that
// hand back views into scratch the owner keeps (ScoresBatch, PredictBatch).
// An experiment cell adapts and evaluates its own clone; on the serve path
// Transfer owns the model until it is published, and from then on the
// batcher's lanes only call PredictBatchWith.
type Model struct {
	Cfg    Config
	Hasher *text.Hasher

	inEmb   *nn.Embedding
	inAct1  *nn.Tanh
	inDense *nn.Dense
	inAct2  *nn.Tanh

	candEmb   *nn.Embedding
	candAct1  *nn.Tanh
	candDense *nn.Dense
	candAct2  *nn.Tanh

	// Trust is the learned weight on knowledge-rule hints.
	Trust *nn.Scalar

	// Rec, when non-nil, receives forward/predict counters and train-step
	// timings. All instrumentation is nil-safe, so the zero value stays
	// observability-free at zero cost (see internal/obs).
	Rec *obs.Recorder

	scratch scratch

	mu   sync.Mutex
	free []*batchScratch // inference scratches not in use, guarded by mu
	own  *batchScratch   // the owner's, see owned
}

// scratch is the per-model state of Step.
type scratch struct {
	scores  tensor.Vec
	dscores tensor.Vec
	df, dg  tensor.Vec
	x       tensor.Sparse // Step's encoded input
	// cands[k] holds candidate k's activations through the four candidate
	// layers between Step's forward and backward sweeps; gs[k] is its output
	// (a view of the last layer's record, not a copy).
	cands [][4]nn.Acts
	gs    []tensor.Vec
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
	m := &Model{
		Cfg:      cfg,
		Hasher:   text.NewHasher(cfg.Dim),
		inAct1:   &nn.Tanh{},
		inAct2:   &nn.Tanh{},
		candAct1: &nn.Tanh{},
		candAct2: &nn.Tanh{},
		Trust:    &nn.Scalar{Name: "trust"},
	}
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

func (m *Model) forwardInput(x *tensor.Sparse) tensor.Vec {
	h := m.inEmb.Forward(x)
	h = m.inAct1.Forward(h)
	h = m.inDense.Forward(h)
	return m.inAct2.Forward(h)
}

func (m *Model) backwardInput(df tensor.Vec) {
	d := m.inAct2.Backward(df)
	d = m.inDense.Backward(d)
	d = m.inAct1.Backward(d)
	m.inEmb.Backward(d)
}

func (m *Model) forwardCand(c *tensor.Sparse) tensor.Vec {
	h := m.candEmb.Forward(c)
	h = m.candAct1.Forward(h)
	h = m.candDense.Forward(h)
	return m.candAct2.Forward(h)
}

func (m *Model) backwardCand(dg tensor.Vec) {
	d := m.candAct2.Backward(dg)
	d = m.candDense.Backward(d)
	d = m.candAct1.Backward(d)
	m.candEmb.Backward(d)
}

// swapCandActs exchanges the candidate tower's activation records with a.
func (m *Model) swapCandActs(a *[4]nn.Acts) {
	m.candEmb.SwapActs(&a[0])
	m.candAct1.SwapActs(&a[1])
	m.candDense.SwapActs(&a[2])
	m.candAct2.SwapActs(&a[3])
}

// Step runs forward + backward on one example, accumulating gradients into
// whatever parameters are unfrozen (backbone, patches, λ, trust), and
// returns the loss. The caller owns ZeroGrad and the optimizer step.
func (m *Model) Step(ex *tasks.Example) float64 {
	m.Rec.Count("model.train_step", 1)
	n := len(ex.Candidates)
	h := m.Cfg.Hidden
	sc := &m.scratch
	// The encoder and the candidate memo are borrowed for the call from the
	// list inference uses, so a trained model carries one of each, not two.
	b := m.checkout()
	defer m.checkin(b)
	b.enc.EncodeTo(&sc.x, ex.Segments)
	// The two towers share no layer, so f (the input tower's output buffer)
	// and the input layers' activations survive every candidate pass below.
	f := m.forwardInput(&sc.x)
	inv := 1 / math.Sqrt(float64(h))

	if cap(sc.scores) < n {
		sc.scores = tensor.NewVec(n)
		sc.dscores = tensor.NewVec(n)
	}
	scores := sc.scores[:n]
	for len(sc.cands) < n {
		sc.cands = append(sc.cands, [4]nn.Acts{})
		sc.gs = append(sc.gs, nil)
	}
	if cap(sc.df) < h {
		sc.df, sc.dg = tensor.NewVec(h), tensor.NewVec(h)
	}
	df, dg := sc.df[:h], sc.dg[:h]
	// Forward every candidate on its own activation record: candidate k's
	// backward needs exactly what its forward left in the layers.
	for k, c := range ex.Candidates {
		m.swapCandActs(&sc.cands[k])
		g := m.forwardCand(b.encodeCand(c))
		s := f.Dot(g) * inv
		if ex.Hints != nil {
			s += m.Trust.Val * ex.Hints[k]
		}
		scores[k] = s
		sc.gs[k] = g
		m.swapCandActs(&sc.cands[k])
	}
	d := sc.dscores[:n]
	loss := nn.SoftmaxCE(scores, ex.Gold, d)

	// Input-side gradient: df = Σ_k d_k · g_k · inv.
	df.Zero()
	for k := range scores {
		df.Axpy(d[k]*inv, sc.gs[k])
	}
	// Candidate-side gradients: backprop d_k·f·inv through candidate k's
	// kept activations. A zero d_k contributes nothing, trust included.
	for k := range scores {
		if d[k] == 0 {
			continue
		}
		copy(dg, f)
		dg.Scale(d[k] * inv)
		m.swapCandActs(&sc.cands[k])
		m.backwardCand(dg)
		m.swapCandActs(&sc.cands[k])
		if ex.Hints != nil && !m.Trust.Frozen {
			m.Trust.Grad += d[k] * ex.Hints[k]
		}
	}
	m.backwardInput(df)
	return loss
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
