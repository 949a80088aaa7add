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

// ForwardBatch computes y.Row(i) = Embedding.Forward(xs[i]) for all i with
// the patch projections batched: the rank-sized projections of the whole
// batch are packed into one matrix and lifted back with a single
// MatMulNN per patch. y must be len(xs) x Hidden.
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
	for _, at := range l.Patches {
		if at.Coef.Val == 0 && at.Coef.Frozen {
			continue
		}
		r := at.Rank()
		u := pool.GetMat(n, r)
		for b, x := range xs {
			urow := u.Row(b)
			urow.Zero()
			for i, idx := range x.Idx {
				urow.Axpy(x.Val[i], at.B.W.Row(int(idx)))
			}
		}
		// One matmul lifts every row's rank projection back to hidden space;
		// row i equals at.A.W.MulVecT(u.Row(i), ·) bit for bit.
		ua := pool.GetMat(n, l.Hidden())
		tensor.MatMulNN(u, at.A.W, ua)
		scale := at.Alpha * at.Coef.Val
		for b := 0; b < n; b++ {
			y.Row(b).Axpy(scale, ua.Row(b))
		}
		pool.PutMat(ua)
		pool.PutMat(u)
	}
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
	for _, at := range l.Patches {
		if at.Coef.Val == 0 && at.Coef.Frozen {
			continue
		}
		r := at.Rank()
		z := pool.GetMat(n, r)
		tensor.MatMulNT(u, at.A.W, z)
		bz := pool.GetMat(n, l.Out())
		tensor.MatMulNT(z, at.B.W, bz)
		scale := at.Alpha * at.Coef.Val
		for b := 0; b < n; b++ {
			y.Row(b).Axpy(scale, bz.Row(b))
		}
		pool.PutMat(bz)
		pool.PutMat(z)
	}
}

// TanhMat applies tanh elementwise in place — the batched form of
// Tanh.Forward (which reads one buffer and writes another; elementwise the
// arithmetic is identical, so in-place is safe for bit-equality).
func TanhMat(m *tensor.Mat) {
	for i, v := range m.Data {
		m.Data[i] = math.Tanh(v)
	}
}
