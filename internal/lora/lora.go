// Package lora manages whole-model LoRA "knowledge patches" (Section V-A of
// the paper): named collections of low-rank factor pairs, one per adaptable
// layer, that can be attached to a model, trained in isolation, serialized,
// and fused with learned interpolation weights λ (Eq. 4).
//
// The per-layer mathematics lives in internal/nn (Attachment); this package
// provides the model-level bookkeeping: a Patch spans every adaptable layer
// of a model and is what SKC extracts per upstream dataset and re-uses
// downstream.
package lora

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// Layer is any layer that accepts LoRA attachments. Both nn.Embedding and
// nn.Dense satisfy it.
type Layer interface {
	Attach(name string, rank int, alpha float64, coef *nn.Scalar, rng *rand.Rand) *nn.Attachment
	Reserve(cols int)
}

// Config fixes the hyper-parameters of a patch, mirroring the paper's
// Section VII-A defaults (rank 32 at 7B scale; our substrate default is
// smaller in proportion to its width).
type Config struct {
	Rank  int
	Alpha float64
}

// DefaultConfig is the patch configuration used across the reproduction.
func DefaultConfig() Config { return Config{Rank: 4, Alpha: 1.0} }

// Patch is one knowledge patch: per-layer low-rank factors sharing a single
// fusion coefficient. A freshly attached patch is an exact no-op (A = 0).
type Patch struct {
	Name        string
	Cfg         Config
	Coef        *nn.Scalar
	Attachments map[string]*nn.Attachment
}

// Attach creates a patch across the given layers with coefficient coef.
// Layer map keys become attachment names, so patches extracted from one
// model instance can later be loaded into another with the same topology.
// The B factors are drawn from rng layer by layer in key order; a nil rng
// leaves them zero (AttachUnset).
func Attach(name string, layers map[string]Layer, cfg Config, coef *nn.Scalar, rng *rand.Rand) *Patch {
	p := &Patch{Name: name, Cfg: cfg, Coef: coef, Attachments: make(map[string]*nn.Attachment, len(layers))}
	for _, key := range sortedKeys(layers) {
		p.Attachments[key] = layers[key].Attach(name+"/"+key, cfg.Rank, cfg.Alpha, coef, rng)
	}
	return p
}

// Reserve sizes every layer's factor bank for n more patches of cfg's rank in
// one allocation per layer. A caller about to Attach a known number of patches
// calls it first; Attach alone regrows each bank once per patch.
func Reserve(layers map[string]Layer, n int, cfg Config) {
	for _, l := range layers {
		l.Reserve(n * cfg.Rank)
	}
}

// AttachUnset is Attach for a patch about to be loaded from a snapshot: its B
// factors stay zero instead of being drawn and then overwritten. rng still
// advances by exactly the draws Attach makes, so a patch attached after this
// one from the same stream is initialised as it always was (ROADMAP 4(e):
// dropping these draws moves the shared patch's start — a re-baselining).
func AttachUnset(name string, layers map[string]Layer, cfg Config, coef *nn.Scalar, rng *rand.Rand) *Patch {
	p := Attach(name, layers, cfg, coef, nil)
	for _, at := range p.Attachments {
		for n := at.B.NumParams(); n > 0; n-- {
			rng.NormFloat64()
		}
	}
	return p
}

// Params returns the patch's factors in deterministic order: per layer, the
// patch's block of the layer's B bank, then its A matrix.
func (p *Patch) Params() []*nn.Block {
	var out []*nn.Block
	for _, key := range sortedKeys(p.Attachments) {
		out = append(out, p.Attachments[key].Params()...)
	}
	return out
}

// SetFrozen freezes or unfreezes every factor matrix of the patch.
func (p *Patch) SetFrozen(frozen bool) {
	for _, at := range p.Attachments {
		at.B.Frozen = frozen
		at.A.Frozen = frozen
	}
}

// Norm returns the Frobenius norm of the patch's implied ΔW across layers,
// a cheap diagnostic for how much knowledge a patch encodes.
func (p *Patch) Norm() float64 {
	var t float64
	for _, at := range p.Attachments {
		// ‖BA‖_F ≤ ‖B‖_F·‖A‖_F; the bound is monotone enough for diagnostics
		// and avoids materializing ΔW.
		t += tensor.Vec(at.B.Values()).Norm() * at.A.W.FrobeniusNorm()
	}
	return t
}

// Snapshot is the serializable form of a patch: factor matrices keyed by
// layer name plus the configuration.
type Snapshot struct {
	Name string
	Cfg  Config
	B    map[string]matSnap
	A    map[string]matSnap
}

type matSnap struct {
	Rows, Cols int
	Data       []float64
}

// Export captures the patch's current factors, each as its own dense matrix:
// the B block is gathered out of the layer's bank.
func (p *Patch) Export() *Snapshot {
	s := &Snapshot{Name: p.Name, Cfg: p.Cfg, B: map[string]matSnap{}, A: map[string]matSnap{}}
	for key, at := range p.Attachments {
		s.B[key] = snapOf(at.B)
		s.A[key] = snapOf(&at.A.Block)
	}
	return s
}

func snapOf(b *nn.Block) matSnap {
	return matSnap{Rows: b.Rows(), Cols: b.Cols(), Data: b.Values()}
}

// fits reports whether the snapshot matrix has exactly b's shape.
func (m matSnap) fits(b *nn.Block) bool {
	return m.Rows == b.Rows() && m.Cols == b.Cols() && len(m.Data) == b.NumParams()
}

// Load overwrites the patch's factors from a snapshot. The snapshot must have
// the patch's configuration and cover exactly its layers with matching
// shapes; everything is checked before anything is copied, so a rejected
// snapshot leaves the patch as it was.
func (p *Patch) Load(s *Snapshot) error {
	return LoadAll([]*Patch{p}, []*Snapshot{s})
}

// LoadAll loads snaps[i] into patches[i], all or — if any snapshot does not
// fit its patch — none. The B blocks that share a layer's bank are written in
// one pass over it: N Loads walk the whole bank N times, a cache line per row
// each time, which is most of what attaching a patch library costs.
func LoadAll(patches []*Patch, snaps []*Snapshot) error {
	for i, p := range patches {
		if err := p.accepts(snaps[i]); err != nil {
			return err
		}
	}
	type load struct {
		blocks []*nn.Block
		srcs   [][]float64
	}
	banks := map[*nn.Param]*load{}
	for i, p := range patches {
		for key, at := range p.Attachments {
			l := banks[at.B.P]
			if l == nil {
				l = &load{}
				banks[at.B.P] = l
			}
			l.blocks = append(l.blocks, at.B)
			l.srcs = append(l.srcs, snaps[i].B[key].Data)
			at.A.SetValues(snaps[i].A[key].Data)
		}
	}
	for _, l := range banks {
		nn.SetBlocks(l.blocks, l.srcs)
	}
	return nil
}

// accepts reports why s cannot be loaded into p, or nil.
func (p *Patch) accepts(s *Snapshot) error {
	if s.Cfg != p.Cfg {
		return fmt.Errorf("lora: snapshot %q is rank %d alpha %g, patch is rank %d alpha %g",
			s.Name, s.Cfg.Rank, s.Cfg.Alpha, p.Cfg.Rank, p.Cfg.Alpha)
	}
	if len(s.B) != len(p.Attachments) || len(s.A) != len(p.Attachments) {
		return fmt.Errorf("lora: snapshot %q covers %d B / %d A layers, patch has %d",
			s.Name, len(s.B), len(s.A), len(p.Attachments))
	}
	for key, at := range p.Attachments {
		bs, ok := s.B[key]
		as, ok2 := s.A[key]
		if !ok || !ok2 {
			return fmt.Errorf("lora: snapshot %q missing layer %q", s.Name, key)
		}
		if !bs.fits(at.B) || !as.fits(&at.A.Block) {
			return fmt.Errorf("lora: snapshot %q layer %q: B %dx%d A %dx%d, patch wants B %dx%d A %dx%d",
				s.Name, key, bs.Rows, bs.Cols, as.Rows, as.Cols,
				at.B.Rows(), at.B.Cols(), at.A.Rows(), at.A.Cols())
		}
	}
	return nil
}

// Encode serializes a snapshot with gob.
func (s *Snapshot) Encode() ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(s); err != nil {
		return nil, fmt.Errorf("lora: encode %q: %w", s.Name, err)
	}
	return buf.Bytes(), nil
}

// DecodeSnapshot deserializes a snapshot.
func DecodeSnapshot(data []byte) (*Snapshot, error) {
	var s Snapshot
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&s); err != nil {
		return nil, fmt.Errorf("lora: decode: %w", err)
	}
	return &s, nil
}

// Fusion is the dynamic knowledge patch fusion module of Eq. 4: N upstream
// patches weighted by trainable λ plus one fresh shared patch ΔW_{N+1} with
// coefficient fixed at 1.
type Fusion struct {
	Upstream []*Patch
	Shared   *Patch
	Lambdas  []*nn.Scalar
}

// WeightStrategy selects how upstream patch weights behave during few-shot
// fine-tuning (Table VI of the paper).
type WeightStrategy int

const (
	// StrategyAdaptive trains the λᵢ jointly with the patches (SKC proper).
	// It is the zero value: an unconfigured fusion is full SKC.
	StrategyAdaptive WeightStrategy = iota
	// StrategyUniform fixes every λᵢ = 1/N and does not train them.
	StrategyUniform
	// StrategySingle attaches no upstream patches at all: only the fresh
	// shared patch is trained ("single" column of Table VI).
	StrategySingle
)

// String implements fmt.Stringer.
func (s WeightStrategy) String() string {
	switch s {
	case StrategySingle:
		return "single"
	case StrategyUniform:
		return "uniform"
	case StrategyAdaptive:
		return "adaptive"
	default:
		return fmt.Sprintf("WeightStrategy(%d)", int(s))
	}
}

// Weights returns the current λ values in upstream-patch order.
func (f *Fusion) Weights() []float64 {
	out := make([]float64, len(f.Lambdas))
	for i, s := range f.Lambdas {
		out[i] = s.Val
	}
	return out
}

// TrainableParams returns everything few-shot fine-tuning updates per
// Algorithm 1 line 13: all patch factors plus (for the adaptive strategy)
// the fusion weights. The backbone is never included.
func (f *Fusion) TrainableParams() nn.ParamSet {
	var ps nn.ParamSet
	for _, p := range f.Upstream {
		ps.Add(p.Params()...)
	}
	if f.Shared != nil {
		ps.Add(f.Shared.Params()...)
	}
	for _, s := range f.Lambdas {
		if !s.Frozen {
			ps.AddScalar(s)
		}
	}
	return ps
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
