// Package tensor provides the dense and sparse linear-algebra primitives the
// rest of the system is built on: row-major matrices, vectors, sparse
// feature vectors, and the handful of BLAS-level kernels (dot, axpy, matrix
// by vector, rank-one update) that the neural substrate needs.
//
// Everything is float64 and single-threaded; the models in this repository
// are small enough that clarity beats parallelism. All random initialization
// takes an explicit *rand.Rand so callers control determinism.
package tensor

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
)

// Vec is a dense vector.
type Vec []float64

// NewVec returns a zero vector of length n.
func NewVec(n int) Vec { return make(Vec, n) }

// Clone returns a deep copy of v.
func (v Vec) Clone() Vec {
	out := make(Vec, len(v))
	copy(out, v)
	return out
}

// Zero sets every element of v to zero.
func (v Vec) Zero() {
	for i := range v {
		v[i] = 0
	}
}

// Dot returns the inner product of v and w. It panics if lengths differ.
func (v Vec) Dot(w Vec) float64 {
	if len(v) != len(w) {
		panic(fmt.Sprintf("tensor: dot length mismatch %d vs %d", len(v), len(w)))
	}
	var s float64
	for i, x := range v {
		s += x * w[i]
	}
	return s
}

// Axpy performs v += a*w in place. It panics if lengths differ.
func (v Vec) Axpy(a float64, w Vec) {
	if len(v) != len(w) {
		panic(fmt.Sprintf("tensor: axpy length mismatch %d vs %d", len(v), len(w)))
	}
	if a == 0 {
		return
	}
	axpy(a, w, v)
}

// axpy performs y[i] += a*x[i] for every i < len(x); y must be at least as
// long as x. It is the one inner loop under Vec.Axpy, MulVecT, RankOne and
// MatMulNN, unrolled four ways. Each element is still its own multiply and
// add, so the result is bit-identical to the plain loop; the zero-coefficient
// skips stay with the callers.
func axpy(a float64, x, y []float64) {
	y = y[:len(x)]
	n := len(x) &^ 3
	for i := 0; i < n; i += 4 {
		xs, ys := x[i:i+4:i+4], y[i:i+4:i+4]
		ys[0] += a * xs[0]
		ys[1] += a * xs[1]
		ys[2] += a * xs[2]
		ys[3] += a * xs[3]
	}
	x, y = x[n:], y[n:]
	for i, v := range x {
		y[i] += a * v
	}
}

// Scale multiplies every element of v by a in place.
func (v Vec) Scale(a float64) {
	for i := range v {
		v[i] *= a
	}
}

// Norm returns the Euclidean norm of v.
func (v Vec) Norm() float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

// Normalize scales v to unit Euclidean norm in place and returns the original
// norm. A zero vector is left unchanged and 0 is returned.
func (v Vec) Normalize() float64 {
	n := v.Norm()
	if n == 0 {
		return 0
	}
	v.Scale(1 / n)
	return n
}

// Mat is a dense row-major matrix.
type Mat struct {
	Rows, Cols int
	Data       []float64
}

// NewMat returns a zero Rows x Cols matrix.
func NewMat(rows, cols int) *Mat {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: invalid shape %dx%d", rows, cols))
	}
	return &Mat{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns element (i, j).
func (m *Mat) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Mat) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns row i as a slice aliasing the matrix storage.
func (m *Mat) Row(i int) Vec { return Vec(m.Data[i*m.Cols : (i+1)*m.Cols]) }

// Clone returns a deep copy of m.
func (m *Mat) Clone() *Mat {
	out := NewMat(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// Zero sets every element to zero.
func (m *Mat) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Copy overwrites m with src. It panics on shape mismatch.
func (m *Mat) Copy(src *Mat) {
	if m.Rows != src.Rows || m.Cols != src.Cols {
		panic(fmt.Sprintf("tensor: copy shape mismatch %dx%d vs %dx%d", m.Rows, m.Cols, src.Rows, src.Cols))
	}
	copy(m.Data, src.Data)
}

// MulVec computes y = m * x for dense x. y must have length Rows and x
// length Cols.
func (m *Mat) MulVec(x, y Vec) {
	if len(x) != m.Cols || len(y) != m.Rows {
		panic(fmt.Sprintf("tensor: mulvec shape mismatch mat %dx%d, x %d, y %d", m.Rows, m.Cols, len(x), len(y)))
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		var s float64
		for j, w := range row {
			s += w * x[j]
		}
		y[i] = s
	}
}

// MulVecT computes y = mᵀ * x. y must have length Cols and x length Rows.
func (m *Mat) MulVecT(x, y Vec) {
	if len(x) != m.Rows || len(y) != m.Cols {
		panic(fmt.Sprintf("tensor: mulvecT shape mismatch mat %dx%d, x %d, y %d", m.Rows, m.Cols, len(x), len(y)))
	}
	y.Zero()
	for i := 0; i < m.Rows; i++ {
		a := x[i]
		if a == 0 {
			continue
		}
		axpy(a, m.Data[i*m.Cols:(i+1)*m.Cols], y)
	}
}

// RankOne performs m += a * u * vᵀ in place, the outer-product update used by
// weight gradients. u must have length Rows and v length Cols.
func (m *Mat) RankOne(a float64, u, v Vec) {
	if len(u) != m.Rows || len(v) != m.Cols {
		panic(fmt.Sprintf("tensor: rankone shape mismatch mat %dx%d, u %d, v %d", m.Rows, m.Cols, len(u), len(v)))
	}
	if a == 0 {
		return
	}
	for i := 0; i < m.Rows; i++ {
		s := a * u[i]
		if s == 0 {
			continue
		}
		axpy(s, v, m.Data[i*m.Cols:(i+1)*m.Cols])
	}
}

// FrobeniusNorm returns the Frobenius norm of m.
func (m *Mat) FrobeniusNorm() float64 {
	var s float64
	for _, x := range m.Data {
		s += x * x
	}
	return math.Sqrt(s)
}

// FillGaussian fills m with N(0, std²) samples drawn from rng.
func (m *Mat) FillGaussian(rng *rand.Rand, std float64) {
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64() * std
	}
}

// Sparse is a sparse vector: parallel slices of strictly increasing indices
// and their values. The zero value is an empty vector.
type Sparse struct {
	Idx []int32
	Val []float64
}

// NNZ returns the number of stored (index, value) pairs.
func (s *Sparse) NNZ() int { return len(s.Idx) }

// Norm returns the Euclidean norm of s.
func (s *Sparse) Norm() float64 {
	var t float64
	for _, v := range s.Val {
		t += v * v
	}
	return math.Sqrt(t)
}

// Scale multiplies every stored value by a.
func (s *Sparse) Scale(a float64) {
	for i := range s.Val {
		s.Val[i] *= a
	}
}

// Normalize scales s to unit norm and returns the original norm; a zero
// vector is left unchanged.
func (s *Sparse) Normalize() float64 {
	n := s.Norm()
	if n == 0 {
		return 0
	}
	s.Scale(1 / n)
	return n
}

// Dot returns the inner product of two sparse vectors.
func (s *Sparse) Dot(o *Sparse) float64 {
	var t float64
	i, j := 0, 0
	for i < len(s.Idx) && j < len(o.Idx) {
		switch {
		case s.Idx[i] == o.Idx[j]:
			t += s.Val[i] * o.Val[j]
			i++
			j++
		case s.Idx[i] < o.Idx[j]:
			i++
		default:
			j++
		}
	}
	return t
}

// DenseBuilder accumulates (index, value) contributions, merging duplicate
// indices, and produces a sorted Sparse: the bridge from feature hashing to
// the encoder input. Contributions accumulate into a dim-sized array with one
// bit per slot marking the slots this build touched, so Add is a bit test and
// two array writes, and BuildInto walks the set bits in ascending order — no
// sort. Accumulation at each index happens in Add-call order starting from an
// explicit zero. The dense scratch costs 8 bytes plus 1 bit per dimension, so
// this type is for persistent builders (one per text.Encoder).
type DenseBuilder struct {
	val  []float64
	used []uint64 // bit i%64 of word i/64: val[i] holds this build's sum
}

// NewDenseBuilder returns an empty builder over [0, dim) indices.
func NewDenseBuilder(dim int) *DenseBuilder {
	return &DenseBuilder{val: make([]float64, dim), used: make([]uint64, (dim+63)/64)}
}

// Add accumulates v at index idx.
func (b *DenseBuilder) Add(idx int32, v float64) {
	w, bit := idx>>6, uint64(1)<<(idx&63)
	if b.used[w]&bit == 0 {
		b.used[w] |= bit
		// Start from an explicit 0 + v so a -0 contribution lands as +0.
		b.val[idx] = 0
	}
	b.val[idx] += v
}

// BuildInto fills dst with the sorted sparse vector, reusing dst's backing
// slices, and clears the touched bits as it reads them, leaving the builder
// empty. Entries that cancelled to exactly zero (rare sign-hash
// cancellations) are dropped.
func (b *DenseBuilder) BuildInto(dst *Sparse) {
	dst.Idx = dst.Idx[:0]
	dst.Val = dst.Val[:0]
	for w, word := range b.used {
		if word == 0 {
			continue
		}
		b.used[w] = 0
		for ; word != 0; word &= word - 1 {
			idx := int32(w<<6 | bits.TrailingZeros64(word))
			if v := b.val[idx]; v != 0 {
				dst.Idx = append(dst.Idx, idx)
				dst.Val = append(dst.Val, v)
			}
		}
	}
}
