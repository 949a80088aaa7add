package nn

import (
	"math"
	"math/rand"

	"repro/internal/tensor"
)

// Attachment is one LoRA knowledge patch attached to a layer: the low-rank
// factors B and A (Eq. 2, ΔW = B·A), the scaling α, and the fusion
// coefficient λ (Eq. 4). Coef is shared across every layer carrying the same
// logical patch, so its gradient accumulates model-wide.
//
// A is the patch's own rank x in matrix. B is a view: the layer keeps the B
// factors of all its patches side by side in one bank (see patchBank) and the
// patch owns the bank's columns [B.Lo, B.Hi).
type Attachment struct {
	B     *Block
	A     *Param
	Coef  *Scalar
	Alpha float64
}

// skipped reports whether the patch is switched off: with λ frozen at zero
// it contributes nothing to the forward and no gradient reaches it, so both
// passes skip it (and leave its tape slots stale).
func (at *Attachment) skipped() bool { return at.Coef.Val == 0 && at.Coef.Frozen }

// Params returns the patch's trainable factors. The coefficient is owned by
// the fusion module and registered separately.
func (at *Attachment) Params() []*Block { return []*Block{at.B, &at.A.Block} }

// patchBank is the LoRA side of a layer: its patches in attach order and the
// one out x R matrix, R = Σ rank, that stores their B factors interleaved —
// row j holds B₀[j,:], B₁[j,:], … — so whatever a layer does per output row
// (per active feature, on an embedding) it does once over an R-wide row, not
// once per patch. On an embedding the bank tracks rows sparsely, so its
// gradient and Adam moments hold only the rows a training run reaches; on a
// dense layer they take the bank's shape.
type patchBank struct {
	Patches []*Attachment

	bank *Param
	used int // columns owned by Patches; the rest are reserved, still zero
}

func newPatchBank(name string, out int, sparse bool) patchBank {
	bank := NewParam(name+".B", out, 0)
	bank.sparse = sparse
	return patchBank{bank: bank}
}

// Reserve makes room for cols more patch columns with one allocation. A
// caller that knows how many patches it is about to attach reserves first;
// without it every Attach re-lays the bank out one patch wider.
func (pb *patchBank) Reserve(cols int) {
	old := pb.bank.W
	if cols -= old.Cols - pb.used; cols <= 0 {
		return
	}
	w := tensor.NewMat(old.Rows, old.Cols+cols)
	for r := 0; r < old.Rows; r++ {
		copy(w.Row(r), old.Row(r))
	}
	pb.bank.W, pb.bank.Hi = w, w.Cols
	b := pb.bank // training state was shaped like the old bank
	b.g, b.state, b.stepper, b.slots, b.nslots, b.touched = nil, nil, nil, nil, 0, nil
}

// empty returns a bank of pb's name, height and row tracking with no patches.
func (pb *patchBank) empty() patchBank {
	bank := NewParam(pb.bank.Name, pb.bank.W.Rows, 0)
	bank.sparse = pb.bank.sparse
	return patchBank{bank: bank}
}

// attach claims the next rank columns for a new patch whose A factor is
// rank x in. Following the paper's Section V-A, B is initialized from a random
// Gaussian — drawn row-major over the patch's own out x rank block — and A
// with zeros so ΔW starts at zero. (The paper swaps the convention of the
// original LoRA paper; we follow the paper's text — the product still starts
// at zero, which is the property that matters.) A nil rng leaves B zero too,
// for a caller about to load it.
func (pb *patchBank) attach(name string, in, rank int, alpha float64, coef *Scalar, rng *rand.Rand) *Attachment {
	pb.Reserve(rank)
	b := &Block{P: pb.bank, Lo: pb.used, Hi: pb.used + rank}
	pb.used += rank
	if rng != nil {
		std := 1 / math.Sqrt(float64(rank))
		for r := 0; r < b.Rows(); r++ {
			row := b.row(pb.bank.W, r)
			for k := range row {
				row[k] = rng.NormFloat64() * std
			}
		}
	}
	at := &Attachment{B: b, A: NewParam(name+".A", rank, in), Coef: coef, Alpha: alpha}
	pb.Patches = append(pb.Patches, at)
	return at
}

// params appends every patch factor to own, the layer's own parameters.
func (pb *patchBank) params(own ...*Block) []*Block {
	for _, at := range pb.Patches {
		own = append(own, at.Params()...)
	}
	return own
}

// AddCoefGrads adds one row of a BackwardBatch's λ terms — one per patch, in
// attach order — to the coefficients that train. A λ is shared by every layer
// of its patch, so its gradient is one running sum across layers; the caller
// folds the rows in the order that sum has always taken.
func (pb *patchBank) AddCoefGrads(terms tensor.Vec) {
	for i, at := range pb.Patches {
		if !at.Coef.Frozen {
			at.Coef.Grad += terms[i]
		}
	}
}

// Embedding maps a sparse feature vector to a dense hidden vector:
// y = Eᵀx (+ LoRA patches). E has one row per feature bucket, so a row is an
// embedding and sparse input makes the pass O(nnz·h).
//
// A layer built by NewEmbedding owns E. One built by Share reads another
// layer's table and owns only its patches: its E is nil, and the shared table
// sits in a field no Block is made of, so no ParamSet can list it and nothing
// can unfreeze it — the backbone is frozen by the layer's type, not a flag.
type Embedding struct {
	E     *Param      // Dim x Hidden; nil on a layer built by Share
	table *tensor.Mat // what the passes read: E.W, or the shared table
	patchBank
}

// NewEmbedding allocates a dim x hidden embedding with scaled Gaussian init;
// a nil rng leaves the weights zero for a caller about to overwrite them.
// Embedding gradients touch only the rows of active input features, so the
// table and the patch bank use sparse-row tracking (see Param.TrackRows).
func NewEmbedding(name string, dim, hidden int, rng *rand.Rand) *Embedding {
	e := NewParam(name+".E", dim, hidden)
	if rng != nil {
		e.W.FillGaussian(rng, 1/math.Sqrt(float64(hidden)))
	}
	e.TrackRows()
	return &Embedding{E: e, table: e.W, patchBank: newPatchBank(name, dim, true)}
}

// Share returns a layer that reads l's table, never copying or training it,
// and carries patches of its own, none yet: one backbone, many adapters.
// Whoever owns l must not write its table while the share is in use.
func (l *Embedding) Share() *Embedding {
	return &Embedding{table: l.table, patchBank: l.patchBank.empty()}
}

// Hidden returns the output dimensionality.
func (l *Embedding) Hidden() int { return l.table.Cols }

// Attach adds a LoRA patch with the given rank. For an embedding the factor
// shapes are B: Dim x r and A: r x Hidden, so ΔE = B·A matches E's shape.
func (l *Embedding) Attach(name string, rank int, alpha float64, coef *Scalar, rng *rand.Rand) *Attachment {
	return l.attach(name, l.Hidden(), rank, alpha, coef, rng)
}

// Params returns the layer's own parameters — E unless the table is shared —
// plus all patch factors.
func (l *Embedding) Params() []*Block {
	if l.E == nil {
		return l.params()
	}
	return l.params(&l.E.Block)
}

// Weights returns the table the passes read, owned or shared, for reading.
func (l *Embedding) Weights() []*tensor.Mat { return []*tensor.Mat{l.table} }

// Dense is a fully connected layer y = W·u + b (+ LoRA patches). Like an
// Embedding, it owns W and B or, built by Share, reads another layer's.
type Dense struct {
	W, B *Param      // W: out x in, B: 1 x out; nil on a layer built by Share
	w, b *tensor.Mat // what the passes read: W.W and B.W, or the shared ones
	patchBank
}

// NewDense allocates an out x in layer with Xavier-style init; a nil rng
// leaves the weights zero for a caller about to overwrite them.
func NewDense(name string, out, in int, rng *rand.Rand) *Dense {
	w := NewParam(name+".W", out, in)
	if rng != nil {
		w.W.FillGaussian(rng, math.Sqrt(2/float64(in+out)))
	}
	b := NewParam(name+".b", 1, out)
	return &Dense{W: w, B: b, w: w.W, b: b.W, patchBank: newPatchBank(name, out, false)}
}

// Share returns a layer that reads l's W and b, never copying or training
// them, with patches of its own, none yet (see Embedding.Share).
func (l *Dense) Share() *Dense {
	return &Dense{w: l.w, b: l.b, patchBank: l.patchBank.empty()}
}

// In returns the input size; Out the output size.
func (l *Dense) In() int  { return l.w.Cols }
func (l *Dense) Out() int { return l.w.Rows }

// Attach adds a LoRA patch: B: out x r, A: r x in.
func (l *Dense) Attach(name string, rank int, alpha float64, coef *Scalar, rng *rand.Rand) *Attachment {
	return l.attach(name, l.In(), rank, alpha, coef, rng)
}

// Params returns the layer's own parameters — W and B unless they are shared
// — plus all patch factors.
func (l *Dense) Params() []*Block {
	if l.W == nil {
		return l.params()
	}
	return l.params(&l.W.Block, &l.B.Block)
}

// Weights returns W and b as the passes read them, owned or shared, for
// reading.
func (l *Dense) Weights() []*tensor.Mat { return []*tensor.Mat{l.w, l.b} }

// mulB computes bz = Bₚ·z for the patch owning block b of the bank: each
// bz[j] is the register-accumulated dot of the block's stretch of row j with
// z, the loop Mat.MulVec runs on a matrix that is only those columns.
func mulB(b *Block, z, bz tensor.Vec) {
	for j := range bz {
		var s float64
		for k, w := range b.row(b.P.W, j) {
			s += w * z[k]
		}
		bz[j] = s
	}
}

// SoftmaxCE computes softmax cross-entropy over a score vector and the
// gradient dL/dscores. It returns the loss and writes the gradient into
// dscores (which must have the same length as scores).
func SoftmaxCE(scores tensor.Vec, gold int, dscores tensor.Vec) float64 {
	checkLen("softmaxce dscores", len(dscores), len(scores))
	if gold < 0 || gold >= len(scores) {
		panic("nn: gold index out of range")
	}
	max := scores[0]
	for _, s := range scores[1:] {
		if s > max {
			max = s
		}
	}
	var z float64
	for i, s := range scores {
		e := math.Exp(s - max)
		dscores[i] = e
		z += e
	}
	for i := range dscores {
		dscores[i] /= z
	}
	loss := -math.Log(dscores[gold] + 1e-12)
	dscores[gold] -= 1
	return loss
}
