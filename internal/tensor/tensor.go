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
		s += float64(x * w[i])
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
// long as x. It is the inner loop of the scatters, Vec.Axpy and RankOne, where
// each term has an output row of its own, and of rowSum's single terms and
// of a pass's columns from the first NaN sum on; loops that sum many rows
// into one output row go through rowSum. It is
// unrolled four ways. Each element is still its own multiply and add, so the
// result is bit-identical to the plain loop; the zero-coefficient skips stay
// with the callers.
//
// Every kernel in this package writes a product as float64(x * y): the
// explicit conversion rounds the product, so no GOARCH may fuse it with the
// sum into one multiply-add, and every GOARCH rounds as amd64 does.
func axpy(a float64, x, y []float64) {
	y = y[:len(x)]
	n := len(x) &^ 3
	for i := 0; i < n; i += 4 {
		xs, ys := x[i:i+4:i+4], y[i:i+4:i+4]
		ys[0] += float64(a * xs[0])
		ys[1] += float64(a * xs[1])
		ys[2] += float64(a * xs[2])
		ys[3] += float64(a * xs[3])
	}
	x, y = x[n:], y[n:]
	for i, v := range x {
		y[i] += float64(a * v)
	}
}

// rowSum adds Σₖ aₖ·src.Row(iₖ) to the row y, bit for bit as one
// y += aₖ·src.Row(iₖ) per term in queue order would. Callers queue
// (coefficient, row index) terms with add and finish with flush; every eight
// terms are added in one pass over y, which reads and writes y once instead
// of eight times. Each element still gets its terms in queue order, each
// product rounded before its sum, so blocking moves no bit. y must be
// src.Cols long and must not alias src.
type rowSum struct {
	y   []float64
	src *Mat
	n   int
	a   [8]float64
	i   [8]int
}

// add queues the term a·src.Row(i), skipping a zero coefficient as Vec.Axpy
// does (so a zero against an Inf or NaN row adds nothing).
func (s *rowSum) add(a float64, i int) {
	if a == 0 {
		return
	}
	s.a[s.n], s.i[s.n] = a, i
	s.n++
	if s.n == 8 {
		s.flush()
	}
}

// flush adds the queued terms to y and empties the queue: eight in one pass,
// fewer as a four-term pass where four remain, then one term at a time.
//
// A pass stops at the first column whose sum is NaN and flush adds its terms
// to the rest of the row one axpy each. A sum of numbers is the same whichever
// operand of each add the register allocator makes the destination, but where
// two NaNs meet, amd64 keeps the destination's payload, so only a NaN can tell
// a pass from one axpy per term. In a finite model no pass stops early.
func (s *rowSum) flush() {
	k, j := 0, len(s.y)
	if s.n == 8 {
		k, j = 8, add8(s.y, &s.a, s.src, &s.i)
	} else if s.n >= 4 {
		k, j = 4, add4(s.y, (*[4]float64)(s.a[:4]), s.src, (*[4]int)(s.i[:4]))
	}
	if j < len(s.y) {
		for t := 0; t < k; t++ {
			axpy(s.a[t], s.src.Row(s.i[t])[j:], s.y[j:])
		}
	}
	for ; k < s.n; k++ {
		axpy(s.a[k], s.src.Row(s.i[k]), s.y)
	}
	s.n = 0
}

// add8 performs y[j] += a[k]*src[i[k], j] for k = 0…7 for j = 0, 1, …, the
// eight sums of each element in order in a register, up to the first element
// whose sum is NaN. It returns that element's index, or len(y); the element
// and the rest of y are left as they were.
func add8(y []float64, a *[8]float64, src *Mat, i *[8]int) int {
	a0, a1, a2, a3, a4, a5, a6, a7 := a[0], a[1], a[2], a[3], a[4], a[5], a[6], a[7]
	r0, r1, r2, r3 := src.Row(i[0]), src.Row(i[1]), src.Row(i[2]), src.Row(i[3])
	r4, r5, r6, r7 := src.Row(i[4]), src.Row(i[5]), src.Row(i[6]), src.Row(i[7])
	n := len(y) // rows as long as y: the loop needs no bounds checks
	r0, r1, r2, r3, r4, r5, r6, r7 = r0[:n], r1[:n], r2[:n], r3[:n], r4[:n], r5[:n], r6[:n], r7[:n]
	j := 0
	for ; j < n; j++ {
		t := y[j]
		t += float64(a0 * r0[j])
		t += float64(a1 * r1[j])
		t += float64(a2 * r2[j])
		t += float64(a3 * r3[j])
		t += float64(a4 * r4[j])
		t += float64(a5 * r5[j])
		t += float64(a6 * r6[j])
		t += float64(a7 * r7[j])
		if t != t {
			break
		}
		y[j] = t
	}
	return j
}

// add4 is add8 for four terms.
func add4(y []float64, a *[4]float64, src *Mat, i *[4]int) int {
	a0, a1, a2, a3 := a[0], a[1], a[2], a[3]
	r0, r1, r2, r3 := src.Row(i[0]), src.Row(i[1]), src.Row(i[2]), src.Row(i[3])
	n := len(y)
	r0, r1, r2, r3 = r0[:n], r1[:n], r2[:n], r3[:n]
	j := 0
	for ; j < n; j++ {
		t := y[j]
		t += float64(a0 * r0[j])
		t += float64(a1 * r1[j])
		t += float64(a2 * r2[j])
		t += float64(a3 * r3[j])
		if t != t {
			break
		}
		y[j] = t
	}
	return j
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
		s += float64(x * x)
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
			s += float64(w * x[j])
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
	s := rowSum{y: y, src: m}
	for i, a := range x {
		s.add(a, i)
	}
	s.flush()
}

// AddRows performs y += Σᵢ val[i]·m.Row(idx[i]), the gather of a sparse
// vector's rows: terms in order, zero values skipped. y must have length
// Cols, must not alias m, and idx and val must be equally long.
func (m *Mat) AddRows(y Vec, idx []int32, val []float64) {
	if len(y) != m.Cols || len(idx) != len(val) {
		panic(fmt.Sprintf("tensor: addrows shape mismatch mat %dx%d, y %d, idx %d, val %d", m.Rows, m.Cols, len(y), len(idx), len(val)))
	}
	s := rowSum{y: y, src: m}
	for k, i := range idx {
		s.add(val[k], int(i))
	}
	s.flush()
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
		s += float64(x * x)
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

// Norm returns the Euclidean norm of s.
func (s *Sparse) Norm() float64 {
	var t float64
	for _, v := range s.Val {
		t += float64(v * v)
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
			t += float64(s.Val[i] * o.Val[j])
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
