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
	if !p.sparse {
		if p.g == nil {
			return t
		}
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
		g, _, _ := p.slotRow(r)
		for _, g := range g[b.Lo:b.Hi] {
			t += g * g
		}
	}
	return t
}

// Param is a trainable matrix. Its gradient and its Adam moments are
// training state: they appear on the first backward pass that reaches the
// parameter unfrozen and go away with ParamSet.ReleaseGrads when training
// ends, so a model that is only served carries weights and nothing else.
//
// Parameters whose gradients touch only a few rows per step (embedding
// tables and the banks of their LoRA B factors — the rows of the active input
// features) opt into sparse-row tracking via TrackRows. Such a parameter has
// no dense gradient: a row gets a slot on its first touch, and the row's
// gradient and moments live in that slot (see slabRows), so what a training
// run allocates follows the rows it reaches, not the table — a few-shot
// Transfer reaches about a fifth of the input bank's 8192 rows and a handful
// of the candidate bank's. The backward records touched rows, and ZeroGrad /
// gradient norms / Adam visit only those. This is the standard "sparse Adam"
// approximation (moments of untouched rows do not decay on steps that skip
// them).
type Param struct {
	Block // the parameter as one block: every column; Frozen freezes all of it

	Name string
	W    *tensor.Mat

	g       *tensor.Mat // dense gradient, a view of state[0]; nil outside training and when sparse
	state   [][]float64 // gradient and moments in chunks, see slabRows
	stepper *Adam       // the optimizer whose moments state holds

	// Sparse-row tracking. slots[r] is 0 until row r's first touch, then
	// slot+1, negated while the row is touched in the current window; touched
	// lists each negated row exactly once, in first-touch order until
	// touchedRows sorts it.
	sparse  bool
	slots   []int32
	nslots  int
	touched []int32
	sorted  bool

	runs []colRun // ParamSet.sweep's scratch: the columns the pass visits
}

// A Param's training state is a list of chunks. A chunk of n rows holds the
// gradient of those rows, then Adam's first moment of the same rows, then
// its second: one allocation for all three, and a stretch of one is the same
// stretch of the others a third of the chunk further on. A dense parameter has
// one chunk of all its rows. A sparse-tracked one has a chunk per slabRows
// slots, appended when the first of them is given out, so growing never moves
// a row and a new slot's gradient and moments start at zero.
const slabRows = 64 // 64 rows of a 52-column bank: 78 KiB for all three

// at splits the stretch [lo, hi) of chunk c's gradient into gradient and
// moments.
func (p *Param) at(c, lo, hi int) (g, m, v []float64) {
	ch := p.state[c]
	n := len(ch) / 3
	return ch[lo:hi], ch[n+lo : n+hi], ch[2*n+lo : 2*n+hi]
}

// slotRow returns the gradient and moments of row r, which has a slot.
func (p *Param) slotRow(r int32) (g, m, v []float64) {
	s, cols := p.slots[r], p.W.Cols
	if s < 0 {
		s = -s
	}
	off := int(s-1) % slabRows * cols
	return p.at(int(s-1)/slabRows, off, off+cols)
}

// colRun is a run of columns [lo, hi).
type colRun struct{ lo, hi int }

// NewParam allocates a zero-initialized parameter.
func NewParam(name string, rows, cols int) *Param {
	p := &Param{Name: name, W: tensor.NewMat(rows, cols)}
	p.Block = Block{P: p, Hi: cols}
	return p
}

// Grad returns the dense gradient accumulator, allocating it — with the
// moments beside it — zeroed on first use. A sparse-tracked parameter has none
// (see GradRow).
func (p *Param) Grad() *tensor.Mat {
	if p.sparse {
		panic("nn: dense gradient of sparse-tracked parameter " + p.Name)
	}
	if p.g == nil {
		n := len(p.W.Data)
		p.state = [][]float64{make([]float64, 3*n)}
		p.g = &tensor.Mat{Rows: p.W.Rows, Cols: p.W.Cols, Data: p.state[0][:n:n]}
	}
	return p.g
}

// GradRow returns row r of the gradient, or nil where no gradient has been
// taken: before the first backward, or on a sparse-tracked row that has no
// slot yet. The view is the live row; it reads as zero after ZeroGrad.
func (p *Param) GradRow(r int) tensor.Vec {
	if !p.sparse {
		if p.g == nil {
			return nil
		}
		return p.g.Row(r)
	}
	if p.slots == nil || p.slots[r] == 0 {
		return nil
	}
	g, _, _ := p.slotRow(int32(r))
	return g
}

// TrackRows switches the parameter to sparse-row gradient tracking.
func (p *Param) TrackRows() { p.sparse = true }

// touch records that row r of a sparse-tracked parameter receives gradient in
// this window and returns the row's gradient to add into, giving the row a
// zeroed slot on its first touch.
func (p *Param) touch(r int) tensor.Vec {
	if p.slots == nil {
		p.slots = make([]int32, p.W.Rows)
	}
	s := p.slots[r]
	if s == 0 {
		if p.nslots%slabRows == 0 {
			p.state = append(p.state, make([]float64, 3*slabRows*p.W.Cols))
		}
		p.nslots++
		s = int32(p.nslots)
	}
	if s > 0 {
		p.slots[r] = -s
		p.touched = append(p.touched, int32(r))
		p.sorted = false
		p.dirty = true
	}
	g, _, _ := p.slotRow(int32(r))
	return g
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

// spans calls f with every stretch of the parameter that p.runs covers — on a
// sparse-tracked parameter within the touched rows only — as the stretch w of
// its weights and the same stretch of its gradient and of both moments.
// Elementwise passes (zero, rescale, Adam) run over these.
func (p *Param) spans(f func(w, g, m, v []float64)) {
	cols := p.W.Cols
	if !p.sparse {
		if len(p.runs) == 1 && p.runs[0] == (colRun{0, cols}) {
			g, m, v := p.at(0, 0, len(p.W.Data))
			f(p.W.Data, g, m, v)
			return
		}
		for r := 0; r < p.W.Rows; r++ {
			for _, run := range p.runs {
				lo, hi := r*cols+run.lo, r*cols+run.hi
				g, m, v := p.at(0, lo, hi)
				f(p.W.Data[lo:hi], g, m, v)
			}
		}
		return
	}
	for _, r := range p.touchedRows() {
		w := p.W.Row(int(r))
		g, m, v := p.slotRow(r)
		for _, run := range p.runs {
			f(w[run.lo:run.hi], g[run.lo:run.hi], m[run.lo:run.hi], v[run.lo:run.hi])
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
// A row keeps its slot, so its moments stay as the optimizer left them.
func (ps *ParamSet) ZeroGrad() {
	ps.sweep(true, func(p *Param) {
		if p.state == nil {
			return
		}
		p.spans(func(_, g, _, _ []float64) { clear(g) })
		for _, r := range p.touched {
			p.slots[r] = -p.slots[r]
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

// ReleaseGrads drops every gradient, moment and row-tracking table, returning
// the parameters to their served state. Training loops call it when done.
func (ps *ParamSet) ReleaseGrads() {
	for _, b := range ps.Mats {
		p := b.P
		p.g, p.state, p.stepper, p.slots, p.nslots, p.touched, p.runs = nil, nil, nil, nil, 0, nil, nil
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
		if p.state != nil {
			p.spans(func(_, g, _, _ []float64) { tensor.Vec(g).Scale(scale) })
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
// matching the fine-tuning recipe in Section VII-A. A matrix parameter's
// first/second moments sit beside its gradient, laid out like it — dense, or
// one row per slot of a sparse-tracked parameter — and go away with it at
// ParamSet.ReleaseGrads. The first step an Adam takes on a parameter starts
// the moments at zero, so one Adam value serves one training run and a second
// one inherits nothing.
type Adam struct {
	LR          float64
	Beta1       float64
	Beta2       float64
	Eps         float64
	WeightDecay float64

	step    int
	scalars map[*Scalar]*scalarMoments
}

type scalarMoments struct{ m, v float64 }

// NewAdam returns an Adam optimizer with standard betas.
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8, scalars: map[*Scalar]*scalarMoments{}}
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
		if !p.sparse {
			p.Grad()
		}
		if p.stepper != a {
			for _, ch := range p.state {
				clear(ch[len(ch)/3:])
			}
			p.stepper = a
		}
		p.spans(func(w, g, m, v []float64) { a.update(g, w, m, v, b1c, b2c) })
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
