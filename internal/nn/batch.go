package nn

import (
	"math"

	"repro/internal/tensor"
)

// Batched inference-only forward passes. These are stateless with respect to
// the layer (no input/output caches are written, so they never disturb an
// in-flight training step's Backward) and draw scratch from a caller-owned
// tensor.Pool. Per row they perform exactly the arithmetic of the per-vector
// Forward methods (the training forward) in the same order — inference is
// gated byte-for-byte against a reference built from those, so any
// reordering here is a bug, not an optimization.

// ForwardBatch computes y.Row(i) = Embedding.Forward(xs[i]) for all i. Each
// active feature is gathered once from E and once from the patch bank, so the
// rank projections of every patch arrive in one n x R matrix; each patch then
// lifts its columns back to hidden space and adds them under the λ it reads
// now. y must be len(xs) x Hidden.
func (l *Embedding) ForwardBatch(xs []*tensor.Sparse, y *tensor.Mat, pool *tensor.Pool) {
	n := len(xs)
	if y.Rows != n || y.Cols != l.Hidden() {
		panic("nn: embedding ForwardBatch shape mismatch")
	}
	for b, x := range xs {
		row := y.Row(b)
		row.Zero()
		for i, idx := range x.Idx {
			row.Axpy(x.Val[i], l.E.W.Row(int(idx)))
		}
	}
	if len(l.Patches) == 0 {
		return
	}
	u := pool.GetMat(n, l.bank.W.Cols)
	for b, x := range xs {
		urow := u.Row(b)
		urow.Zero()
		for i, idx := range x.Idx {
			urow.Axpy(x.Val[i], l.bank.W.Row(int(idx)))
		}
	}
	ua := pool.GetVec(l.Hidden())
	for _, at := range l.Patches {
		if at.skipped() {
			continue
		}
		scale := at.Alpha * at.Coef.Val
		for b := 0; b < n; b++ {
			at.A.W.MulVecT(u.Row(b)[at.B.Lo:at.B.Hi], ua)
			y.Row(b).Axpy(scale, ua)
		}
	}
	pool.PutVec(ua)
	pool.PutMat(u)
}

// ForwardBatch computes y.Row(i) = Dense.Forward(u.Row(i)) for all i with one
// matmul per weight matrix: y = u·Wᵀ + b, plus per-patch z = u·Aᵀ, y += α·λ·z·Bᵀ.
// u must be n x In, y n x Out.
func (l *Dense) ForwardBatch(u, y *tensor.Mat, pool *tensor.Pool) {
	if u.Cols != l.In() || y.Rows != u.Rows || y.Cols != l.Out() {
		panic("nn: dense ForwardBatch shape mismatch")
	}
	n := u.Rows
	tensor.MatMulNT(u, l.W.W, y)
	bias := l.B.W.Row(0)
	for b := 0; b < n; b++ {
		y.Row(b).Axpy(1, bias)
	}
	if len(l.Patches) == 0 {
		return
	}
	bz := pool.GetVec(l.Out())
	for _, at := range l.Patches {
		if at.skipped() {
			continue
		}
		z := pool.GetMat(n, at.Rank())
		tensor.MatMulNT(u, at.A.W, z)
		scale := at.Alpha * at.Coef.Val
		for b := 0; b < n; b++ {
			mulB(at.B, z.Row(b), bz)
			y.Row(b).Axpy(scale, bz)
		}
		pool.PutMat(z)
	}
	pool.PutVec(bz)
}

// TanhMat applies tanh elementwise in place — the batched form of
// Tanh.Forward (which reads one buffer and writes another; elementwise the
// arithmetic is identical, so in-place is safe for bit-equality).
func TanhMat(m *tensor.Mat) {
	for i, v := range m.Data {
		m.Data[i] = math.Tanh(v)
	}
}
