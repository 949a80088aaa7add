package nn

import (
	"math"

	"repro/internal/tensor"
)

// The passes. A layer holds weights only: a forward takes a batch of rows and
// draws its scratch from a caller-owned tensor.Pool, so any number of
// forwards may run on one layer at once, each on its own pool. What a backward
// needs from its forward besides the input is the forward's tape, a pool
// matrix with one row per input row holding the rank projections of all
// patches, laid out like a bank row. ForwardTape returns it for the caller to
// keep until its BackwardBatch (the model's one forward keeps every tape in
// its scratch until release, inference included); ForwardBatch, which hands
// it straight back, serves only callers with no model around the layer —
// benchmarks and tests. A patch's lift of its
// projection to the layer's width is not kept: the λ gradient, its one
// reader, recomputes it with the forward's kernel from the same inputs, so
// with the same bits, for a fraction of what keeping a lift per patch per row
// would hold.
//
// Row by row, every pass performs the float64 arithmetic of one row alone in
// the same order, and a backward visits its rows in order, so a window of rows
// accumulates each gradient element exactly as the same rows one at a time
// would. internal/nn/reference_test.go keeps that one-row arithmetic and
// compares both passes against it bit for bit; any reordering here is a bug,
// not an optimization.

// ForwardBatch computes y.Row(i) = the embedding of xs[i] for all i and keeps
// no tape: ForwardTape for a caller with no backward to run.
func (l *Embedding) ForwardBatch(xs []*tensor.Sparse, y *tensor.Mat, pool *tensor.Pool) {
	pool.PutMat(l.ForwardTape(xs, y, pool))
}

// ForwardTape computes y.Row(i) = Σⱼ xⱼ·E[j,:] + α Σₚ λₚ (Σⱼ xⱼ·Bₚ[j,:])·Aₚ
// for x = xs[i] and returns the tape. Each active feature is gathered once
// from E and once from the bank, whose row carries every patch's B row, into
// the tape row; each patch then lifts its columns back to hidden space and
// adds them under the λ it reads now. y must be len(xs) x Hidden.
func (l *Embedding) ForwardTape(xs []*tensor.Sparse, y *tensor.Mat, pool *tensor.Pool) *tensor.Mat {
	n, h := len(xs), l.Hidden()
	if y.Rows != n || y.Cols != h {
		panic("nn: embedding forward shape mismatch")
	}
	tape := pool.GetMat(n, l.bank.W.Cols)
	ua := pool.GetVec(h)
	for b, x := range xs {
		row := y.Row(b)
		row.Zero()
		for i, idx := range x.Idx {
			row.Axpy(x.Val[i], l.table.Row(int(idx)))
		}
		if len(l.Patches) == 0 {
			continue
		}
		u := tape.Row(b)
		u.Zero()
		for i, idx := range x.Idx {
			u.Axpy(x.Val[i], l.bank.W.Row(int(idx)))
		}
		for _, at := range l.Patches {
			if at.skipped() {
				continue
			}
			// u[Lo:Hi] is the row's rank-r projection Σⱼ xⱼ·B[j,:]; A is r x h,
			// so the lift back to hidden space is ua = Aᵀu.
			at.A.W.MulVecT(u[at.B.Lo:at.B.Hi], ua)
			row.Axpy(at.Alpha*at.Coef.Val, ua)
		}
	}
	pool.PutVec(ua)
	return tape
}

// BackwardBatch accumulates the gradients of the rows ForwardTape ran over xs,
// given dy = dL/dy (len(xs) x Hidden). The sparse inputs get no gradient
// (features are data, not parameters). Patch i's λ term for row b goes to
// dlam.Row(b)[i] (len(xs) x len(Patches)), not to the coefficient; see
// AddCoefGrads.
func (l *Embedding) BackwardBatch(xs []*tensor.Sparse, tape, dy, dlam *tensor.Mat, pool *tensor.Pool) {
	h := l.Hidden()
	if dy.Rows != len(xs) || dy.Cols != h || tape.Rows != len(xs) || dlam.Rows != len(xs) || dlam.Cols != len(l.Patches) {
		panic("nn: embedding backward shape mismatch")
	}
	// du collects every patch's scale·A·dy, zero where a patch is skipped or
	// its B is frozen, so one pass over the features scatters them all.
	du, ua := pool.GetVec(l.bank.W.Cols), pool.GetVec(h)
	for b, x := range xs {
		dyb := dy.Row(b)
		if l.E != nil && !l.E.Frozen {
			for i, idx := range x.Idx {
				l.E.touch(int(idx)).Axpy(x.Val[i], dyb)
			}
		}
		if len(l.Patches) == 0 {
			continue
		}
		u := tape.Row(b)
		du.Zero()
		reached := false
		for i, at := range l.Patches {
			if at.skipped() {
				continue
			}
			up := u[at.B.Lo:at.B.Hi]
			scale := at.Alpha * at.Coef.Val
			if !at.Coef.Frozen {
				// dλ = α · dy·(Aᵀu), the lift as the forward computed it
				at.A.W.MulVecT(up, ua)
				dlam.Row(b)[i] = at.Alpha * dyb.Dot(ua)
			}
			if !at.A.Frozen {
				// dA += scale · outer(u, dy)
				at.A.Grad().RankOne(scale, up, dyb)
			}
			if !at.B.Frozen {
				// du = scale · A·dy ; dB[j,:] += xⱼ·du
				dup := du[at.B.Lo:at.B.Hi]
				at.A.W.MulVec(dyb, dup)
				dup.Scale(scale)
				at.B.dirty, reached = true, true
			}
		}
		if !reached {
			continue
		}
		for i, idx := range x.Idx {
			l.bank.touch(int(idx)).Axpy(x.Val[i], du)
		}
	}
	pool.PutVec(ua)
	pool.PutVec(du)
}

// ForwardBatch computes y = u·Wᵀ + b + α Σₚ λₚ (u·Aₚᵀ)·Bₚᵀ and keeps no tape:
// ForwardTape for a caller with no backward to run. u must be n x In, y n x Out.
func (l *Dense) ForwardBatch(u, y *tensor.Mat, pool *tensor.Pool) {
	pool.PutMat(l.ForwardTape(u, y, pool))
}

// ForwardTape is ForwardBatch returning the tape: per row, every patch's
// z = Aₚu in its bank columns.
func (l *Dense) ForwardTape(u, y *tensor.Mat, pool *tensor.Pool) *tensor.Mat {
	if u.Cols != l.In() || y.Rows != u.Rows || y.Cols != l.Out() {
		panic("nn: dense forward shape mismatch")
	}
	tensor.MatMulNT(u, l.w, y)
	bias := l.b.Row(0)
	tape, bz := pool.GetMat(u.Rows, l.bank.W.Cols), pool.GetVec(l.Out())
	for b := 0; b < u.Rows; b++ {
		row, zs := y.Row(b), tape.Row(b)
		row.Axpy(1, bias)
		for _, at := range l.Patches {
			if at.skipped() {
				continue
			}
			z := zs[at.B.Lo:at.B.Hi]
			at.A.W.MulVec(u.Row(b), z)
			mulB(at.B, z, bz)
			row.Axpy(at.Alpha*at.Coef.Val, bz)
		}
	}
	pool.PutVec(bz)
	return tape
}

// BackwardBatch accumulates the gradients of the rows ForwardTape ran over u,
// given dy = dL/dy (n x Out), and writes dL/du into du (n x In). λ terms go to
// dlam (n x len(Patches)) as on an embedding.
func (l *Dense) BackwardBatch(u, tape, dy, du, dlam *tensor.Mat, pool *tensor.Pool) {
	n := u.Rows
	if u.Cols != l.In() || dy.Rows != n || dy.Cols != l.Out() || tape.Rows != n || dlam.Rows != n || dlam.Cols != len(l.Patches) {
		panic("nn: dense backward shape mismatch")
	}
	tensor.MatMulNN(dy, l.w, du) // du.Row(b) = Wᵀ·dy.Row(b)
	// One pass over the bank gives Bₚᵀdy for every patch (needed for both dA
	// and du); each is scaled in its own block below.
	dzs, tmp, bz := pool.GetVec(l.bank.W.Cols), pool.GetVec(l.In()), pool.GetVec(l.Out())
	for b := 0; b < n; b++ {
		in, dyb, dub := u.Row(b), dy.Row(b), du.Row(b)
		if l.W != nil && !l.W.Frozen {
			l.W.Grad().RankOne(1, dyb, in)
		}
		if l.B != nil && !l.B.Frozen {
			l.B.Grad().Row(0).Axpy(1, dyb)
		}
		if len(l.Patches) == 0 {
			continue
		}
		zs := tape.Row(b)
		l.bank.W.MulVecT(dyb, dzs)
		for i, at := range l.Patches {
			if at.skipped() {
				continue
			}
			z := zs[at.B.Lo:at.B.Hi]
			scale := at.Alpha * at.Coef.Val
			if !at.Coef.Frozen {
				// dλ = α · dy·(Bz), the lift as the forward computed it
				mulB(at.B, z, bz)
				dlam.Row(b)[i] = at.Alpha * dyb.Dot(bz)
			}
			dz := dzs[at.B.Lo:at.B.Hi]
			dz.Scale(scale)
			if !at.B.Frozen {
				// dB += scale · outer(dy, z), into the patch's columns
				g := l.bank.Grad()
				for j, d := range dyb {
					at.B.row(g, j).Axpy(scale*d, z)
				}
			}
			if !at.A.Frozen {
				at.A.Grad().RankOne(1, dz, in)
			}
			// du += Aᵀdz
			at.A.W.MulVecT(dz, tmp)
			dub.Axpy(1, tmp)
		}
	}
	pool.PutVec(bz)
	pool.PutVec(tmp)
	pool.PutVec(dzs)
}

// TanhMat applies tanh elementwise in place.
func TanhMat(m *tensor.Mat) {
	for i, v := range m.Data {
		m.Data[i] = math.Tanh(v)
	}
}

// TanhBackward turns d = dL/dy into dL/du in place, where y = TanhMat(u):
// d·(1 − y²) elementwise.
func TanhBackward(d, y *tensor.Mat) {
	if d.Rows != y.Rows || d.Cols != y.Cols {
		panic("nn: tanh backward shape mismatch")
	}
	for i, v := range y.Data {
		d.Data[i] *= 1 - v*v
	}
}
