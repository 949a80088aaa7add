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
type Attachment struct {
	B, A  *Param
	Coef  *Scalar
	Alpha float64

	dz tensor.Vec // Backward scratch, rank-sized
}

// skipped reports whether the patch is switched off: with λ frozen at zero
// it contributes nothing to Forward and no gradient reaches it, so both
// passes skip it (and leave its activation slots stale).
func (at *Attachment) skipped() bool { return at.Coef.Val == 0 && at.Coef.Frozen }

// Acts is what one Forward leaves behind for the matching Backward: the
// layer's input (or, for Tanh, its output) and per patch the rank projection
// z and its lift bz. Every layer owns one. A caller that forwards several
// inputs through a layer before backpropagating any of them (Model.Step's
// candidates) gives each its own Acts via SwapActs instead of re-running
// Forward.
type Acts struct {
	x   *tensor.Sparse // Embedding input
	in  tensor.Vec     // Dense input
	out tensor.Vec     // Tanh output
	buf tensor.Vec     // per patch, in order: z (rank) then bz (layer width)
}

// fit sizes buf for a layer of width n carrying the given patches.
func (a *Acts) fit(patches []*Attachment, n int) {
	need := 0
	for _, at := range patches {
		need += at.Rank() + n
	}
	if cap(a.buf) < need {
		a.buf = tensor.NewVec(need)
	}
	a.buf = a.buf[:need]
}

// patch returns the z and bz slots of the patch starting at off, and the
// next patch's offset.
func (a *Acts) patch(off, rank, n int) (z, bz tensor.Vec, next int) {
	return a.buf[off : off+rank], a.buf[off+rank : off+rank+n], off + rank + n
}

// scratchVec returns *v resized to n, reallocating only when it must grow.
func scratchVec(v *tensor.Vec, n int) tensor.Vec {
	if cap(*v) < n {
		*v = tensor.NewVec(n)
	}
	return (*v)[:n]
}

// Rank returns the LoRA rank of the attachment.
func (at *Attachment) Rank() int { return at.A.W.Rows }

// NewAttachment builds a patch for a layer with the given input/output
// sizes. Following the paper's Section V-A, B is initialized from a random
// Gaussian and A with zeros so ΔW starts at zero. (The paper swaps the
// convention of the original LoRA paper; we follow the paper's text — the
// product still starts at zero, which is the property that matters.)
func NewAttachment(name string, out, in, rank int, alpha float64, coef *Scalar, rng *rand.Rand) *Attachment {
	b := NewParam(name+".B", out, rank)
	b.W.FillGaussian(rng, 1/math.Sqrt(float64(rank)))
	a := NewParam(name+".A", rank, in)
	return &Attachment{B: b, A: a, Coef: coef, Alpha: alpha}
}

// Params returns the patch's trainable matrices. The coefficient is owned by
// the fusion module and registered separately.
func (at *Attachment) Params() []*Param { return []*Param{at.B, at.A} }

// Embedding maps a sparse feature vector to a dense hidden vector:
// y = Eᵀx (+ LoRA patches). E has one row per feature bucket, so a row is an
// embedding and sparse input makes the pass O(nnz·h).
type Embedding struct {
	E       *Param // Dim x Hidden
	Patches []*Attachment

	acts Acts
	out  tensor.Vec
}

// NewEmbedding allocates a dim x hidden embedding with scaled Gaussian init;
// a nil rng leaves the weights zero for a caller about to overwrite them.
// Embedding gradients touch only the rows of active input features, so the
// parameter uses sparse-row tracking (see Param.TrackRows).
func NewEmbedding(name string, dim, hidden int, rng *rand.Rand) *Embedding {
	e := NewParam(name+".E", dim, hidden)
	if rng != nil {
		e.W.FillGaussian(rng, 1/math.Sqrt(float64(hidden)))
	}
	e.TrackRows()
	return &Embedding{E: e, out: tensor.NewVec(hidden)}
}

// SwapActs exchanges the layer's activation record with *a.
func (l *Embedding) SwapActs(a *Acts) { l.acts, *a = *a, l.acts }

// Hidden returns the output dimensionality.
func (l *Embedding) Hidden() int { return l.E.W.Cols }

// Dim returns the input (feature-space) dimensionality.
func (l *Embedding) Dim() int { return l.E.W.Rows }

// Attach adds a LoRA patch with the given rank. For an embedding the factor
// shapes are B: Dim x r and A: r x Hidden, so ΔE = B·A matches E's shape.
func (l *Embedding) Attach(name string, rank int, alpha float64, coef *Scalar, rng *rand.Rand) *Attachment {
	b := NewParam(name+".B", l.Dim(), rank)
	b.W.FillGaussian(rng, 1/math.Sqrt(float64(rank)))
	b.TrackRows()
	a := NewParam(name+".A", rank, l.Hidden())
	at := &Attachment{B: b, A: a, Coef: coef, Alpha: alpha}
	l.Patches = append(l.Patches, at)
	return at
}

// Forward computes y = Σⱼ xⱼ·E[j,:] + α Σₚ λₚ (Σⱼ xⱼ·Bₚ[j,:])·Aₚ.
func (l *Embedding) Forward(x *tensor.Sparse) tensor.Vec {
	l.acts.x = x
	l.acts.fit(l.Patches, l.Hidden())
	y := l.out
	y.Zero()
	for i, idx := range x.Idx {
		y.Axpy(x.Val[i], l.E.W.Row(int(idx)))
	}
	off := 0
	for _, at := range l.Patches {
		var u, ua tensor.Vec
		u, ua, off = l.acts.patch(off, at.Rank(), len(y))
		if at.skipped() {
			continue
		}
		u.Zero()
		for i, idx := range x.Idx {
			u.Axpy(x.Val[i], at.B.W.Row(int(idx)))
		}
		// u is the input's rank-r projection Σⱼ xⱼ·B[j,:]; A is r x h, so
		// the lift back to hidden space is ua = Aᵀu.
		at.A.W.MulVecT(u, ua)
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
	off := 0
	for _, at := range l.Patches {
		var u, ua tensor.Vec // Forward's Σⱼ xⱼ Bₚ[j,:] and its lift uᵀA
		u, ua, off = l.acts.patch(off, at.Rank(), len(dy))
		if at.skipped() {
			continue
		}
		scale := at.Alpha * at.Coef.Val
		if !at.Coef.Frozen {
			// dλ = α · dy·(uᵀA)  — ua holds uᵀA from Forward.
			at.Coef.Grad += at.Alpha * dy.Dot(ua)
		}
		if !at.A.Frozen {
			// dA += scale · outer(u, dy)
			at.A.Grad().RankOne(scale, u, dy)
		}
		if !at.B.Frozen {
			// du = scale · A·dy ; dB[j,:] += xⱼ·du
			du := scratchVec(&at.dz, at.Rank())
			at.A.W.MulVec(dy, du)
			du.Scale(scale)
			g := at.B.Grad()
			for i, idx := range x.Idx {
				g.Row(int(idx)).Axpy(x.Val[i], du)
				at.B.TouchRow(int(idx))
			}
		}
	}
}

// Params returns the layer's own parameters plus all patch factors.
func (l *Embedding) Params() []*Param {
	out := []*Param{l.E}
	for _, at := range l.Patches {
		out = append(out, at.Params()...)
	}
	return out
}

// Dense is a fully connected layer y = W·u + b (+ LoRA patches).
type Dense struct {
	W, B    *Param // W: out x in, B: 1 x out
	Patches []*Attachment

	acts Acts
	out  tensor.Vec
	din  tensor.Vec
	tmp  tensor.Vec // Backward scratch, input-sized
}

// NewDense allocates an out x in layer with Xavier-style init; a nil rng
// leaves the weights zero for a caller about to overwrite them.
func NewDense(name string, out, in int, rng *rand.Rand) *Dense {
	w := NewParam(name+".W", out, in)
	if rng != nil {
		w.W.FillGaussian(rng, math.Sqrt(2/float64(in+out)))
	}
	b := NewParam(name+".b", 1, out)
	return &Dense{W: w, B: b, out: tensor.NewVec(out), din: tensor.NewVec(in)}
}

// SwapActs exchanges the layer's activation record with *a.
func (l *Dense) SwapActs(a *Acts) { l.acts, *a = *a, l.acts }

// In returns the input size; Out the output size.
func (l *Dense) In() int  { return l.W.W.Cols }
func (l *Dense) Out() int { return l.W.W.Rows }

// Attach adds a LoRA patch: B: out x r, A: r x in.
func (l *Dense) Attach(name string, rank int, alpha float64, coef *Scalar, rng *rand.Rand) *Attachment {
	at := NewAttachment(name, l.Out(), l.In(), rank, alpha, coef, rng)
	l.Patches = append(l.Patches, at)
	return at
}

// Forward computes y = W·u + b + α Σₚ λₚ Bₚ(Aₚu).
func (l *Dense) Forward(u tensor.Vec) tensor.Vec {
	checkLen("dense input", len(u), l.In())
	l.acts.in = u
	l.acts.fit(l.Patches, l.Out())
	y := l.out
	l.W.W.MulVec(u, y)
	y.Axpy(1, l.B.W.Row(0))
	off := 0
	for _, at := range l.Patches {
		var z, bz tensor.Vec
		z, bz, off = l.acts.patch(off, at.Rank(), len(y))
		if at.skipped() {
			continue
		}
		at.A.W.MulVec(u, z)
		at.B.W.MulVec(z, bz)
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
	off := 0
	for _, at := range l.Patches {
		var z, bz tensor.Vec
		z, bz, off = l.acts.patch(off, at.Rank(), l.Out())
		if at.skipped() {
			continue
		}
		scale := at.Alpha * at.Coef.Val
		if !at.Coef.Frozen {
			at.Coef.Grad += at.Alpha * dy.Dot(bz)
		}
		// dz = scale·Bᵀdy (needed for both dA and du)
		dz := scratchVec(&at.dz, at.Rank())
		at.B.W.MulVecT(dy, dz)
		dz.Scale(scale)
		if !at.B.Frozen {
			at.B.Grad().RankOne(scale, dy, z)
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
func (l *Dense) Params() []*Param {
	out := []*Param{l.W, l.B}
	for _, at := range l.Patches {
		out = append(out, at.Params()...)
	}
	return out
}

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

// Softmax converts scores to probabilities in place.
func Softmax(scores tensor.Vec) {
	max := scores[0]
	for _, s := range scores[1:] {
		if s > max {
			max = s
		}
	}
	var z float64
	for i, s := range scores {
		scores[i] = math.Exp(s - max)
		z += scores[i]
	}
	for i := range scores {
		scores[i] /= z
	}
}
