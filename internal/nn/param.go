// Package nn is the neural substrate of the reproduction: parameters,
// layers with explicit Forward/Backward passes, LoRA attachments, and
// optimizers. It replaces the PyTorch + PEFT stack the paper uses.
//
// Design notes:
//
//   - Layers are stateful: Forward caches the activations Backward needs, so
//     a layer instance must be used by one goroutine at a time.
//   - LoRA patches are never materialized; ΔW·x is computed as B(Ax), which
//     is what makes dozens of per-dataset patches affordable (Section V-A).
//   - Fusion coefficients λ (Eq. 4) are Scalars shared across layers: every
//     layer carrying patch i contributes to the same λᵢ gradient, exactly as
//     a single interpolation weight per upstream patch in the paper.
package nn

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/tensor"
)

// Param is a trainable matrix. Its gradient is training state: the buffer
// appears on the first backward pass that reaches the parameter unfrozen
// (Grad) and goes away with ParamSet.ReleaseGrads when training ends, so a
// model that is only served carries weights and nothing else.
//
// Parameters whose gradients touch only a few rows per step (embedding
// tables and their LoRA B factors — the rows of the active input features)
// opt into sparse-row tracking via TrackRows: Backward records touched rows
// with TouchRow, and ZeroGrad / gradient norms / Adam then visit only those
// rows. This is the standard "sparse Adam" approximation (moments of
// untouched rows do not decay on steps that skip them).
type Param struct {
	Name   string
	W      *tensor.Mat
	Frozen bool

	g *tensor.Mat // gradient; nil outside training

	// Sparse-row tracking: touched lists each row with mark[r] set exactly
	// once, in first-touch order until touchedRows sorts it.
	sparse  bool
	mark    []bool
	touched []int32
	sorted  bool
}

// NewParam allocates a zero-initialized parameter.
func NewParam(name string, rows, cols int) *Param {
	return &Param{Name: name, W: tensor.NewMat(rows, cols)}
}

// Grad returns the gradient accumulator, allocating it zeroed on first use.
func (p *Param) Grad() *tensor.Mat {
	if p.g == nil {
		p.g = tensor.NewMat(p.W.Rows, p.W.Cols)
		if p.sparse {
			p.mark = make([]bool, p.W.Rows)
		}
	}
	return p.g
}

// TrackRows switches the parameter to sparse-row gradient tracking.
func (p *Param) TrackRows() { p.sparse = true }

// TouchRow records that row r received gradient since the last ZeroGrad. It
// is a no-op for dense parameters.
func (p *Param) TouchRow(r int) {
	if !p.sparse {
		return
	}
	p.Grad()
	if !p.mark[r] {
		p.mark[r] = true
		p.touched = append(p.touched, int32(r))
		p.sorted = false
	}
}

// ZeroGrad clears the accumulated gradient (only the touched rows for
// sparse-tracked parameters).
func (p *Param) ZeroGrad() {
	if p.g == nil {
		return
	}
	if !p.sparse {
		p.g.Zero()
		return
	}
	for _, r := range p.touched {
		p.g.Row(int(r)).Zero()
		p.mark[r] = false
	}
	p.touched = p.touched[:0]
}

// touchedRows returns the touched-row indices in ascending order, sorting at
// most once per accumulation window: the gradient norm, the clip rescale and
// the Adam update all walk the same list. Ascending order keeps the norm's
// floating-point reduction bit-identical across runs and across the order in
// which examples touched the rows.
func (p *Param) touchedRows() []int32 {
	if !p.sorted {
		slices.Sort(p.touched)
		p.sorted = true
	}
	return p.touched
}

// addSqNorm adds the squares of every gradient entry that may be non-zero to
// t, in a deterministic order, and returns the running sum.
func (p *Param) addSqNorm(t float64) float64 {
	if p.g == nil {
		return t
	}
	if !p.sparse {
		for _, g := range p.g.Data {
			t += g * g
		}
		return t
	}
	for _, r := range p.touchedRows() {
		for _, g := range p.g.Row(int(r)) {
			t += g * g
		}
	}
	return t
}

// scaleGrad multiplies every gradient entry that may be non-zero by scale.
func (p *Param) scaleGrad(scale float64) {
	if p.g == nil {
		return
	}
	if !p.sparse {
		tensor.Vec(p.g.Data).Scale(scale)
		return
	}
	for _, r := range p.touchedRows() {
		p.g.Row(int(r)).Scale(scale)
	}
}

// NumParams returns the number of scalar parameters in p.
func (p *Param) NumParams() int { return len(p.W.Data) }

// Scalar is a single trainable value, used for the fusion weights λ.
type Scalar struct {
	Name   string
	Val    float64
	Grad   float64
	Frozen bool
}

// ZeroGrad clears the scalar gradient.
func (s *Scalar) ZeroGrad() { s.Grad = 0 }

// ParamSet is the collection of everything an optimizer updates.
type ParamSet struct {
	Mats    []*Param
	Scalars []*Scalar
}

// Add appends matrix parameters.
func (ps *ParamSet) Add(params ...*Param) { ps.Mats = append(ps.Mats, params...) }

// AddScalar appends scalar parameters.
func (ps *ParamSet) AddScalar(scalars ...*Scalar) { ps.Scalars = append(ps.Scalars, scalars...) }

// Merge appends everything in other.
func (ps *ParamSet) Merge(other ParamSet) {
	ps.Mats = append(ps.Mats, other.Mats...)
	ps.Scalars = append(ps.Scalars, other.Scalars...)
}

// ZeroGrad clears all gradients.
func (ps *ParamSet) ZeroGrad() {
	for _, p := range ps.Mats {
		p.ZeroGrad()
	}
	for _, s := range ps.Scalars {
		s.ZeroGrad()
	}
}

// ReleaseGrads drops every gradient buffer and row-tracking list, returning
// the parameters to their served state. Training loops call it when done.
func (ps *ParamSet) ReleaseGrads() {
	for _, p := range ps.Mats {
		p.g, p.mark, p.touched = nil, nil, nil
	}
}

// GradNorm returns the global Euclidean norm of all non-frozen gradients.
func (ps *ParamSet) GradNorm() float64 {
	var t float64
	for _, p := range ps.Mats {
		if !p.Frozen {
			t = p.addSqNorm(t)
		}
	}
	for _, s := range ps.Scalars {
		if s.Frozen {
			continue
		}
		t += s.Grad * s.Grad
	}
	return math.Sqrt(t)
}

// ClipGradNorm rescales all gradients so the global norm is at most max.
// It returns the pre-clip norm.
func (ps *ParamSet) ClipGradNorm(max float64) float64 {
	n := ps.GradNorm()
	if n <= max || n == 0 {
		return n
	}
	scale := max / n
	for _, p := range ps.Mats {
		if !p.Frozen {
			p.scaleGrad(scale)
		}
	}
	for _, s := range ps.Scalars {
		if !s.Frozen {
			s.Grad *= scale
		}
	}
	return n
}

// NumParams returns the total number of trainable scalars (frozen excluded).
func (ps *ParamSet) NumParams() int {
	n := 0
	for _, p := range ps.Mats {
		if !p.Frozen {
			n += p.NumParams()
		}
	}
	for _, s := range ps.Scalars {
		if !s.Frozen {
			n++
		}
	}
	return n
}

// Adam is the Adam optimizer (Kingma & Ba) with optional weight decay,
// matching the fine-tuning recipe in Section VII-A. The first/second moments
// live in the optimizer, keyed by parameter, so they are freed with it: one
// Adam value serves one training run.
type Adam struct {
	LR          float64
	Beta1       float64
	Beta2       float64
	Eps         float64
	WeightDecay float64

	step    int
	mats    map[*Param]*moments
	scalars map[*Scalar]*scalarMoments
}

// moments holds Adam's first and second moment for one matrix parameter.
type moments struct{ m, v []float64 }

type scalarMoments struct{ m, v float64 }

// NewAdam returns an Adam optimizer with standard betas.
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8,
		mats: map[*Param]*moments{}, scalars: map[*Scalar]*scalarMoments{}}
}

// Step applies one update to every non-frozen parameter and clears nothing;
// call ParamSet.ZeroGrad before the next backward pass.
func (a *Adam) Step(ps *ParamSet) {
	a.step++
	b1c := 1 - math.Pow(a.Beta1, float64(a.step))
	b2c := 1 - math.Pow(a.Beta2, float64(a.step))
	for _, p := range ps.Mats {
		if p.Frozen {
			continue
		}
		mo := a.mats[p]
		if mo == nil {
			mo = &moments{m: make([]float64, len(p.W.Data)), v: make([]float64, len(p.W.Data))}
			a.mats[p] = mo
		}
		if !p.sparse {
			// A dense parameter no backward reached still decays (weight
			// decay, moment momentum): its gradient is zero, not absent.
			a.update(p.Grad().Data, p.W.Data, mo.m, mo.v, b1c, b2c)
			continue
		}
		// Sparse-Adam: only rows touched since the last ZeroGrad carry
		// gradient; untouched rows are skipped (their moments freeze).
		cols := p.W.Cols
		for _, r := range p.touchedRows() {
			lo, hi := int(r)*cols, (int(r)+1)*cols
			a.update(p.g.Data[lo:hi], p.W.Data[lo:hi], mo.m[lo:hi], mo.v[lo:hi], b1c, b2c)
		}
	}
	for _, s := range ps.Scalars {
		if s.Frozen {
			continue
		}
		mo := a.scalars[s]
		if mo == nil {
			mo = &scalarMoments{}
			a.scalars[s] = mo
		}
		g := s.Grad
		mo.m = a.Beta1*mo.m + (1-a.Beta1)*g
		mo.v = a.Beta2*mo.v + (1-a.Beta2)*g*g
		mh := mo.m / b1c
		vh := mo.v / b2c
		s.Val -= a.LR * mh / (math.Sqrt(vh) + a.Eps)
	}
}

// update is the elementwise Adam rule over one span of a parameter. The
// hyper-parameters are read into locals first: g, w, m and v are float64
// slices like the fields, so inside the loop the compiler would reload them
// after every store.
func (a *Adam) update(g, w, m, v []float64, b1c, b2c float64) {
	b1, b2, lr, eps, wd := a.Beta1, a.Beta2, a.LR, a.Eps, a.WeightDecay
	w, m, v = w[:len(g)], m[:len(g)], v[:len(g)]
	for i, gi := range g {
		if wd != 0 {
			gi += wd * w[i]
		}
		m[i] = b1*m[i] + (1-b1)*gi
		v[i] = b2*v[i] + (1-b2)*gi*gi
		mh := m[i] / b1c
		vh := v[i] / b2c
		w[i] -= lr * mh / (math.Sqrt(vh) + eps)
	}
}

func checkLen(what string, got, want int) {
	if got != want {
		panic(fmt.Sprintf("nn: %s length %d, want %d", what, got, want))
	}
}
