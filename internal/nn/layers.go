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
// it contributes nothing to Forward and no gradient reaches it, so both
// passes skip it (and leave its activation slots stale).
func (at *Attachment) skipped() bool { return at.Coef.Val == 0 && at.Coef.Frozen }

// Rank returns the LoRA rank of the attachment.
func (at *Attachment) Rank() int { return at.B.Cols() }

// Params returns the patch's trainable factors. The coefficient is owned by
// the fusion module and registered separately.
func (at *Attachment) Params() []*Block { return []*Block{at.B, &at.A.Block} }

// patchBank is the LoRA side of a layer: its patches in attach order and the
// one out x R matrix, R = Σ rank, that stores their B factors interleaved —
// row j holds B₀[j,:], B₁[j,:], … — so whatever a layer does per output row
// (per active feature, on an embedding) it does once over an R-wide row, not
// once per patch. Gradient and Adam moments take the same shape.
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
	pb.bank.g, pb.bank.mark, pb.bank.touched = nil, nil, nil // shaped like the old bank
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

// Acts is what one Forward leaves behind for the matching Backward: the
// layer's input (or, for Tanh, its output), the rank projections of all
// patches as one bank-wide row, and per patch the projection's lift to the
// layer's width. Every layer owns one. A caller that forwards several inputs
// through a layer before backpropagating any of them (Model.Step's
// candidates) gives each its own Acts via SwapActs instead of re-running
// Forward.
type Acts struct {
	x   *tensor.Sparse // Embedding input
	in  tensor.Vec     // Dense input
	out tensor.Vec     // Tanh output
	buf tensor.Vec     // the projections (r wide), then one lift (n wide) per patch
	r   int            // bank width
	n   int            // layer width
}

// fit sizes buf for a layer of width n carrying pb's patches.
func (a *Acts) fit(pb *patchBank, n int) {
	a.r, a.n = pb.bank.W.Cols, n
	a.buf = scratchVec(&a.buf, a.r+len(pb.Patches)*n)
}

// proj returns the rank projections of all patches, laid out like a bank row.
func (a *Acts) proj() tensor.Vec { return a.buf[:a.r] }

// lift returns patch i's lift slot.
func (a *Acts) lift(i int) tensor.Vec { return a.buf[a.r+i*a.n : a.r+(i+1)*a.n] }

// scratchVec returns *v resized to n, reallocating only when it must grow.
func scratchVec(v *tensor.Vec, n int) tensor.Vec {
	if cap(*v) < n {
		*v = tensor.NewVec(n)
	}
	return (*v)[:n]
}

// Embedding maps a sparse feature vector to a dense hidden vector:
// y = Eᵀx (+ LoRA patches). E has one row per feature bucket, so a row is an
// embedding and sparse input makes the pass O(nnz·h).
type Embedding struct {
	E *Param // Dim x Hidden
	patchBank

	acts Acts
	out  tensor.Vec
	du   tensor.Vec // Backward scratch, bank-wide
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
	return &Embedding{E: e, patchBank: newPatchBank(name, dim, true), out: tensor.NewVec(hidden)}
}

// SwapActs exchanges the layer's activation record with *a.
func (l *Embedding) SwapActs(a *Acts) { l.acts, *a = *a, l.acts }

// Hidden returns the output dimensionality.
func (l *Embedding) Hidden() int { return l.E.W.Cols }

// Attach adds a LoRA patch with the given rank. For an embedding the factor
// shapes are B: Dim x r and A: r x Hidden, so ΔE = B·A matches E's shape.
func (l *Embedding) Attach(name string, rank int, alpha float64, coef *Scalar, rng *rand.Rand) *Attachment {
	return l.attach(name, l.Hidden(), rank, alpha, coef, rng)
}

// Forward computes y = Σⱼ xⱼ·E[j,:] + α Σₚ λₚ (Σⱼ xⱼ·Bₚ[j,:])·Aₚ. Each active
// feature is gathered once from E and once from the bank, whose row carries
// every patch's B row; λ is read here, at every call, never folded in.
func (l *Embedding) Forward(x *tensor.Sparse) tensor.Vec {
	l.acts.x = x
	l.acts.fit(&l.patchBank, l.Hidden())
	y := l.out
	y.Zero()
	for i, idx := range x.Idx {
		y.Axpy(x.Val[i], l.E.W.Row(int(idx)))
	}
	if len(l.Patches) == 0 {
		return y
	}
	u := l.acts.proj()
	u.Zero()
	for i, idx := range x.Idx {
		u.Axpy(x.Val[i], l.bank.W.Row(int(idx)))
	}
	for i, at := range l.Patches {
		if at.skipped() {
			continue
		}
		// u[Lo:Hi] is the input's rank-r projection Σⱼ xⱼ·B[j,:]; A is r x h,
		// so the lift back to hidden space is ua = Aᵀu.
		ua := l.acts.lift(i)
		at.A.W.MulVecT(u[at.B.Lo:at.B.Hi], ua)
		y.Axpy(at.Alpha*at.Coef.Val, ua)
	}
	return y
}

// Backward accumulates gradients given dL/dy. The sparse input has no
// gradient (features are data, not parameters).
func (l *Embedding) Backward(dy tensor.Vec) {
	checkLen("embedding dy", len(dy), l.Hidden())
	x := l.acts.x
	if !l.E.Frozen {
		g := l.E.Grad()
		for i, idx := range x.Idx {
			g.Row(int(idx)).Axpy(x.Val[i], dy)
			l.E.TouchRow(int(idx))
		}
	}
	if len(l.Patches) == 0 {
		return
	}
	u := l.acts.proj() // Forward's Σⱼ xⱼ B[j,:], all patches
	// du collects every patch's scale·A·dy, zero where a patch is skipped or
	// its B is frozen, so one pass over the features scatters them all.
	du := scratchVec(&l.du, len(u))
	du.Zero()
	reached := false
	for i, at := range l.Patches {
		if at.skipped() {
			continue
		}
		up, ua := u[at.B.Lo:at.B.Hi], l.acts.lift(i) // ua = uₚᵀA
		scale := at.Alpha * at.Coef.Val
		if !at.Coef.Frozen {
			// dλ = α · dy·(uᵀA)
			at.Coef.Grad += at.Alpha * dy.Dot(ua)
		}
		if !at.A.Frozen {
			// dA += scale · outer(u, dy)
			at.A.Grad().RankOne(scale, up, dy)
		}
		if !at.B.Frozen {
			// du = scale · A·dy ; dB[j,:] += xⱼ·du
			dup := du[at.B.Lo:at.B.Hi]
			at.A.W.MulVec(dy, dup)
			dup.Scale(scale)
			at.B.dirty, reached = true, true
		}
	}
	if !reached {
		return
	}
	g := l.bank.Grad()
	for i, idx := range x.Idx {
		g.Row(int(idx)).Axpy(x.Val[i], du)
		l.bank.TouchRow(int(idx))
	}
}

// Params returns the layer's own parameters plus all patch factors.
func (l *Embedding) Params() []*Block { return l.params(&l.E.Block) }

// Dense is a fully connected layer y = W·u + b (+ LoRA patches).
type Dense struct {
	W, B *Param // W: out x in, B: 1 x out
	patchBank

	acts Acts
	out  tensor.Vec
	din  tensor.Vec
	tmp  tensor.Vec // Backward scratch, input-sized
	dz   tensor.Vec // Backward scratch, bank-wide
}

// NewDense allocates an out x in layer with Xavier-style init; a nil rng
// leaves the weights zero for a caller about to overwrite them.
func NewDense(name string, out, in int, rng *rand.Rand) *Dense {
	w := NewParam(name+".W", out, in)
	if rng != nil {
		w.W.FillGaussian(rng, math.Sqrt(2/float64(in+out)))
	}
	b := NewParam(name+".b", 1, out)
	return &Dense{W: w, B: b, patchBank: newPatchBank(name, out, false),
		out: tensor.NewVec(out), din: tensor.NewVec(in)}
}

// SwapActs exchanges the layer's activation record with *a.
func (l *Dense) SwapActs(a *Acts) { l.acts, *a = *a, l.acts }

// In returns the input size; Out the output size.
func (l *Dense) In() int  { return l.W.W.Cols }
func (l *Dense) Out() int { return l.W.W.Rows }

// Attach adds a LoRA patch: B: out x r, A: r x in.
func (l *Dense) Attach(name string, rank int, alpha float64, coef *Scalar, rng *rand.Rand) *Attachment {
	return l.attach(name, l.In(), rank, alpha, coef, rng)
}

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

// Forward computes y = W·u + b + α Σₚ λₚ Bₚ(Aₚu).
func (l *Dense) Forward(u tensor.Vec) tensor.Vec {
	checkLen("dense input", len(u), l.In())
	l.acts.in = u
	l.acts.fit(&l.patchBank, l.Out())
	zs := l.acts.proj()
	y := l.out
	l.W.W.MulVec(u, y)
	y.Axpy(1, l.B.W.Row(0))
	for i, at := range l.Patches {
		if at.skipped() {
			continue
		}
		z, bz := zs[at.B.Lo:at.B.Hi], l.acts.lift(i)
		at.A.W.MulVec(u, z)
		mulB(at.B, z, bz)
		y.Axpy(at.Alpha*at.Coef.Val, bz)
	}
	return y
}

// Backward accumulates parameter gradients and returns dL/du. The returned
// slice is reused between calls; callers must not retain it.
func (l *Dense) Backward(dy tensor.Vec) tensor.Vec {
	checkLen("dense dy", len(dy), l.Out())
	in := l.acts.in
	du := l.din
	l.W.W.MulVecT(dy, du)
	if !l.W.Frozen {
		l.W.Grad().RankOne(1, dy, in)
	}
	if !l.B.Frozen {
		l.B.Grad().Row(0).Axpy(1, dy)
	}
	if len(l.Patches) == 0 {
		return du
	}
	zs := l.acts.proj()
	// One pass over the bank gives Bₚᵀdy for every patch (needed for both dA
	// and du); each is scaled in its own block below.
	dzs := scratchVec(&l.dz, len(zs))
	l.bank.W.MulVecT(dy, dzs)
	for i, at := range l.Patches {
		if at.skipped() {
			continue
		}
		z, bz := zs[at.B.Lo:at.B.Hi], l.acts.lift(i)
		scale := at.Alpha * at.Coef.Val
		if !at.Coef.Frozen {
			at.Coef.Grad += at.Alpha * dy.Dot(bz)
		}
		dz := dzs[at.B.Lo:at.B.Hi]
		dz.Scale(scale)
		if !at.B.Frozen {
			// dB += scale · outer(dy, z), into the patch's columns
			g := l.bank.Grad()
			for j, d := range dy {
				at.B.row(g, j).Axpy(scale*d, z)
			}
		}
		if !at.A.Frozen {
			at.A.Grad().RankOne(1, dz, in)
		}
		// du += Aᵀdz
		tmp := scratchVec(&l.tmp, l.In())
		at.A.W.MulVecT(dz, tmp)
		du.Axpy(1, tmp)
	}
	return du
}

// Params returns the layer's own parameters plus all patch factors.
func (l *Dense) Params() []*Block { return l.params(&l.W.Block, &l.B.Block) }

// Tanh is an elementwise tanh activation.
type Tanh struct {
	acts Acts
	din  tensor.Vec
}

// SwapActs exchanges the layer's activation record with *a.
func (l *Tanh) SwapActs(a *Acts) { l.acts, *a = *a, l.acts }

// Forward applies tanh elementwise.
func (l *Tanh) Forward(u tensor.Vec) tensor.Vec {
	y := scratchVec(&l.acts.out, len(u))
	for i, v := range u {
		y[i] = math.Tanh(v)
	}
	return y
}

// Backward returns dL/du given dL/dy using the cached output.
func (l *Tanh) Backward(dy tensor.Vec) tensor.Vec {
	y := l.acts.out[:len(dy)]
	du := scratchVec(&l.din, len(dy))
	for i, g := range dy {
		du[i] = g * (1 - y[i]*y[i])
	}
	return du
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
