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
	for i, x := range w {
		v[i] += a * x
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

// AddScaled performs m += a*other in place. It panics on shape mismatch.
func (m *Mat) AddScaled(a float64, other *Mat) {
	if m.Rows != other.Rows || m.Cols != other.Cols {
		panic(fmt.Sprintf("tensor: add shape mismatch %dx%d vs %dx%d", m.Rows, m.Cols, other.Rows, other.Cols))
	}
	for i, x := range other.Data {
		m.Data[i] += a * x
	}
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
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, w := range row {
			y[j] += a * w
		}
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
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, x := range v {
			row[j] += s * x
		}
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
// the encoder input. Contributions accumulate into a dim-sized array with a
// generation stamp per slot, so Add is two array writes and BuildInto sorts a
// plain touched-index list. Accumulation at each index happens in Add-call
// order starting from an explicit zero. The dense scratch costs 12 bytes per
// dimension, so this type is for persistent builders (one per text.Encoder).
type DenseBuilder struct {
	val     []float64
	gen     []uint32
	cur     uint32
	touched []int32
}

// NewDenseBuilder returns an empty builder over [0, dim) indices.
func NewDenseBuilder(dim int) *DenseBuilder {
	return &DenseBuilder{val: make([]float64, dim), gen: make([]uint32, dim), cur: 1}
}

// Add accumulates v at index idx.
func (b *DenseBuilder) Add(idx int32, v float64) {
	if b.gen[idx] != b.cur {
		b.gen[idx] = b.cur
		// Start from an explicit 0 + v so a -0 contribution lands as +0.
		b.val[idx] = 0
		b.touched = append(b.touched, idx)
	}
	b.val[idx] += v
}

// BuildInto fills dst with the sorted sparse vector, reusing dst's backing
// slices, and resets the builder in O(touched). Entries that cancelled to
// exactly zero (rare sign-hash cancellations) are dropped.
func (b *DenseBuilder) BuildInto(dst *Sparse) {
	sortInt32(b.touched)
	dst.Idx = dst.Idx[:0]
	dst.Val = dst.Val[:0]
	for _, idx := range b.touched {
		if v := b.val[idx]; v != 0 {
			dst.Idx = append(dst.Idx, idx)
			dst.Val = append(dst.Val, v)
		}
	}
	b.Reset()
}

// Reset drops the accumulated contributions by bumping the generation stamp;
// the dense arrays are reused, not cleared.
func (b *DenseBuilder) Reset() {
	b.touched = b.touched[:0]
	b.cur++
	if b.cur == 0 { // stamp wrapped: invalidate every slot the slow way
		clear(b.gen)
		b.cur = 1
	}
}

func sortInt32(a []int32) {
	// Simple bottom-up quicksort avoids importing sort for a []int32 adapter.
	var qs func(lo, hi int)
	qs = func(lo, hi int) {
		for hi-lo > 12 {
			p := a[(lo+hi)/2]
			i, j := lo, hi
			for i <= j {
				for a[i] < p {
					i++
				}
				for a[j] > p {
					j--
				}
				if i <= j {
					a[i], a[j] = a[j], a[i]
					i++
					j--
				}
			}
			if j-lo < hi-i {
				qs(lo, j)
				lo = i
			} else {
				qs(i, hi)
				hi = j
			}
		}
		for i := lo + 1; i <= hi; i++ {
			for j := i; j > lo && a[j] < a[j-1]; j-- {
				a[j], a[j-1] = a[j-1], a[j]
			}
		}
	}
	if len(a) > 1 {
		qs(0, len(a)-1)
	}
}
