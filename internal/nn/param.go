// Package nn is the neural substrate of the reproduction: parameters,
// layers with explicit batched forward and backward passes, LoRA
// attachments, and optimizers. It replaces the PyTorch + PEFT stack the paper
// uses.
//
// Design notes:
//
//   - Layers hold weights only. A forward reads them and leaves what its
//     backward needs in a tape drawn from the caller's pool (see batch.go);
//     a backward writes gradients, so it has one caller at a time.
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

// Block is a run of adjacent columns [Lo, Hi) of a parameter: the unit a
// ParamSet lists and the unit that freezes. A whole parameter is the block of
// all its columns (Param embeds that one); the B factor of a LoRA patch is a
// block of the bank its layer keeps for all its patches (see Attachment).
type Block struct {
	P      *Param
	Lo, Hi int
	Frozen bool

	// dirty: on a sparse-tracked parameter, the block received gradient since
	// the last ZeroGrad. The touched-row list is the parameter's, shared by its
	// blocks; a block no backward reached sits the window out as a parameter
	// with an empty list does.
	dirty bool
}

// Rows and Cols give the block's shape.
func (b *Block) Rows() int { return b.P.W.Rows }
func (b *Block) Cols() int { return b.Hi - b.Lo }

// NumParams returns the number of scalar parameters in the block.
func (b *Block) NumParams() int { return b.Rows() * b.Cols() }

// row returns the block's stretch of row r of m, one of P's matrices.
func (b *Block) row(m *tensor.Mat, r int) tensor.Vec {
	return m.Data[r*m.Cols+b.Lo : r*m.Cols+b.Hi]
}

// Values returns a row-major Rows x Cols copy of the block's weights — the
// dense matrix the block stands for, whatever it is interleaved with.
func (b *Block) Values() []float64 {
	out := make([]float64, 0, b.NumParams())
	for r := 0; r < b.Rows(); r++ {
		out = append(out, b.row(b.P.W, r)...)
	}
	return out
}

// SetValues overwrites the block's weights from a row-major Rows x Cols slice.
func (b *Block) SetValues(src []float64) { SetBlocks([]*Block{b}, [][]float64{src}) }

// SetBlocks overwrites blocks[i] from srcs[i] (row-major, as SetValues takes
// it) for several blocks of equal height in one pass over the rows: loading
// every patch of a bank this way walks the bank once, where one SetValues per
// patch walks it — a cache line per row — once per patch.
func SetBlocks(blocks []*Block, srcs [][]float64) {
	if len(blocks) == 0 {
		return
	}
	for i, b := range blocks {
		checkLen("block rows", b.Rows(), blocks[0].Rows())
		checkLen("block values", len(srcs[i]), b.NumParams())
	}
	for r := 0; r < blocks[0].Rows(); r++ {
		for i, b := range blocks {
			dst := b.row(b.P.W, r)
			src := srcs[i][r*len(dst):]
			for k := range dst { // rank-sized: a loop beats a memmove call
				dst[k] = src[k]
			}
		}
	}
}

// addSqNorm adds the squares of the block's gradient entries that may be
// non-zero to t — rows ascending, the block's columns in order — and returns
// the running sum. The order is what keeps the clip scale's bits fixed.
func (b *Block) addSqNorm(t float64) float64 {
	p := b.P
	if p.g == nil {
		return t
	}
	if !p.sparse {
		for r := 0; r < p.W.Rows; r++ {
			for _, g := range b.row(p.g, r) {
				t += g * g
			}
		}
		return t
	}
	if !b.dirty {
		return t
	}
	for _, r := range p.touchedRows() {
		for _, g := range b.row(p.g, int(r)) {
			t += g * g
		}
	}
	return t
}

// Param is a trainable matrix. Its gradient is training state: the buffer
// appears on the first backward pass that reaches the parameter unfrozen
// (Grad) and goes away with ParamSet.ReleaseGrads when training ends, so a
// model that is only served carries weights and nothing else.
//
// Parameters whose gradients touch only a few rows per step (embedding
// tables and the banks of their LoRA B factors — the rows of the active input
// features) opt into sparse-row tracking via TrackRows: Backward records
// touched rows with TouchRow, and ZeroGrad / gradient norms / Adam then visit
// only those rows. This is the standard "sparse Adam" approximation (moments
// of untouched rows do not decay on steps that skip them).
type Param struct {
	Block // the parameter as one block: every column; Frozen freezes all of it

	Name string
	W    *tensor.Mat

	g *tensor.Mat // gradient; nil outside training

	// Sparse-row tracking: touched lists each row with mark[r] set exactly
	// once, in first-touch order until touchedRows sorts it.
	sparse  bool
	mark    []bool
	touched []int32
	sorted  bool

	runs []colRun // ParamSet.sweep's scratch: the columns the pass visits
}

// colRun is a run of columns [lo, hi).
type colRun struct{ lo, hi int }

// NewParam allocates a zero-initialized parameter.
func NewParam(name string, rows, cols int) *Param {
	p := &Param{Name: name, W: tensor.NewMat(rows, cols)}
	p.Block = Block{P: p, Hi: cols}
	return p
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
	p.dirty = true
	if !p.mark[r] {
		p.mark[r] = true
		p.touched = append(p.touched, int32(r))
		p.sorted = false
	}
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

// spans calls f with every contiguous stretch [lo, hi) of the parameter's
// flat storage that p.runs covers — on a sparse-tracked parameter within the
// touched rows only. Elementwise passes (zero, rescale, Adam) run over these.
func (p *Param) spans(f func(lo, hi int)) {
	cols := p.W.Cols
	if !p.sparse {
		if len(p.runs) == 1 && p.runs[0] == (colRun{0, cols}) {
			f(0, len(p.W.Data))
			return
		}
		for r := 0; r < p.W.Rows; r++ {
			for _, run := range p.runs {
				f(r*cols+run.lo, r*cols+run.hi)
			}
		}
		return
	}
	for _, r := range p.touchedRows() {
		for _, run := range p.runs {
			f(int(r)*cols+run.lo, int(r)*cols+run.hi)
		}
	}
}

// Scalar is a single trainable value, used for the fusion weights λ.
type Scalar struct {
	Name   string
	Val    float64
	Grad   float64
	Frozen bool
}

// ZeroGrad clears the scalar gradient.
func (s *Scalar) ZeroGrad() { s.Grad = 0 }

// ParamSet is the collection of everything an optimizer updates: blocks of
// parameters, in the order GradNorm sums them, and scalars. The blocks of one
// sparse-tracked parameter share its touched-row list, so they train under
// one ParamSet.
type ParamSet struct {
	Mats    []*Block
	Scalars []*Scalar
}

// Add appends blocks; a whole parameter p is &p.Block.
func (ps *ParamSet) Add(blocks ...*Block) { ps.Mats = append(ps.Mats, blocks...) }

// AddScalar appends scalar parameters.
func (ps *ParamSet) AddScalar(scalars ...*Scalar) { ps.Scalars = append(ps.Scalars, scalars...) }

// sweep calls visit once per listed parameter, with p.runs holding the
// columns of its listed blocks that an elementwise pass covers: every listed
// block when all is set, otherwise the ones that are unfrozen and (on a
// sparse-tracked parameter) dirty. Blocks listed next to each other in column
// order — the patches of a bank in attach order — merge into one run, so a
// pass walks each row of a parameter once however many blocks it is listed
// as. Only order-free passes may go through here; the norm does not.
func (ps *ParamSet) sweep(all bool, visit func(p *Param)) {
	for _, b := range ps.Mats {
		b.P.runs = b.P.runs[:0]
	}
	for _, b := range ps.Mats {
		p := b.P
		if !all && (b.Frozen || p.sparse && !b.dirty) {
			continue
		}
		if n := len(p.runs); n > 0 && p.runs[n-1].hi == b.Lo {
			p.runs[n-1].hi = b.Hi
		} else {
			p.runs = append(p.runs, colRun{b.Lo, b.Hi})
		}
	}
	for _, b := range ps.Mats {
		if p := b.P; len(p.runs) > 0 {
			visit(p)
			p.runs = p.runs[:0]
		}
	}
}

// ZeroGrad clears all gradients (only the touched rows of sparse-tracked
// parameters) and ends the accumulation window: touched-row lists are emptied.
func (ps *ParamSet) ZeroGrad() {
	ps.sweep(true, func(p *Param) {
		if p.g == nil {
			return
		}
		p.spans(func(lo, hi int) { clear(p.g.Data[lo:hi]) })
		for _, r := range p.touched {
			p.mark[r] = false
		}
		p.touched = p.touched[:0]
	})
	for _, b := range ps.Mats {
		b.dirty = false
	}
	for _, s := range ps.Scalars {
		s.ZeroGrad()
	}
}

// ReleaseGrads drops every gradient buffer and row-tracking list, returning
// the parameters to their served state. Training loops call it when done.
func (ps *ParamSet) ReleaseGrads() {
	for _, b := range ps.Mats {
		p := b.P
		p.g, p.mark, p.touched, p.runs = nil, nil, nil, nil
		b.dirty, p.dirty = false, false
	}
}

// GradNorm returns the global Euclidean norm of all non-frozen gradients. It
// is one running sum, so it adds block by block in list order and never
// through sweep: merging two blocks of a bank would reorder the additions and
// move the clip scale's last bits.
func (ps *ParamSet) GradNorm() float64 {
	var t float64
	for _, b := range ps.Mats {
		if !b.Frozen {
			t = b.addSqNorm(t)
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
	ps.sweep(false, func(p *Param) {
		if p.g != nil {
			p.spans(func(lo, hi int) { tensor.Vec(p.g.Data[lo:hi]).Scale(scale) })
		}
	})
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
	for _, b := range ps.Mats {
		if !b.Frozen {
			n += b.NumParams()
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
// live in the optimizer, keyed by parameter and shaped like it, so they are
// freed with it: one Adam value serves one training run.
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

// Step applies one update to every listed, non-frozen block and clears
// nothing; call ParamSet.ZeroGrad before the next backward pass. A dense
// parameter no backward reached still decays (weight decay, moment momentum):
// its gradient is zero, not absent. On a sparse-tracked parameter only rows
// touched since the last ZeroGrad carry gradient; untouched rows, and blocks
// no gradient reached, are skipped (their moments freeze).
func (a *Adam) Step(ps *ParamSet) {
	a.step++
	b1c := 1 - math.Pow(a.Beta1, float64(a.step))
	b2c := 1 - math.Pow(a.Beta2, float64(a.step))
	ps.sweep(false, func(p *Param) {
		mo := a.mats[p]
		if mo == nil {
			mo = &moments{m: make([]float64, len(p.W.Data)), v: make([]float64, len(p.W.Data))}
			a.mats[p] = mo
		}
		g, w := p.Grad().Data, p.W.Data
		p.spans(func(lo, hi int) {
			a.update(g[lo:hi], w[lo:hi], mo.m[lo:hi], mo.v[lo:hi], b1c, b2c)
		})
	})
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
