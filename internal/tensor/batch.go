package tensor

import (
	"fmt"
	"math/bits"
)

// This file holds the batched kernels and the scratch-buffer pool behind the
// inference path. The contract that matters more than speed: every batched
// kernel performs bit-identical float64 arithmetic to its per-vector
// counterpart (MulVec / MulVecT applied row by row), so a batched forward
// pass can be gated byte-for-byte against the per-example reference.

// MatMulNT computes c = a · bᵀ. Shapes: a is n×k, b is m×k, c is n×m. Every
// element c[i][j] is the register-accumulated dot of a's row i with b's row j
// in ascending index order — exactly the loop MulVec runs per row, so a
// batched dense layer reproduces the serial layer bit for bit.
func MatMulNT(a, b, c *Mat) {
	if a.Cols != b.Cols || c.Rows != a.Rows || c.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: matmulNT shape mismatch a %dx%d, b %dx%d, c %dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols, c.Rows, c.Cols))
	}
	k := a.Cols
	for i := 0; i < a.Rows; i++ {
		arow := a.Data[i*k : (i+1)*k]
		crow := c.Data[i*c.Cols : (i+1)*c.Cols]
		for j := 0; j < b.Rows; j++ {
			brow := b.Data[j*k : (j+1)*k]
			var s float64
			for t, x := range arow {
				s += float64(x * brow[t])
			}
			crow[j] = s
		}
	}
}

// MatMulNN computes c = a · b. Shapes: a is n×k, b is k×m, c is n×m. Each
// output row is c.Row(i) = bᵀ · a.Row(i), one MulVecT, so the rows of b are
// summed k-outer with its zero skip, in the serial order bit for bit. c must
// not alias a or b.
func MatMulNN(a, b, c *Mat) {
	if a.Cols != b.Rows || c.Rows != a.Rows || c.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: matmulNN shape mismatch a %dx%d, b %dx%d, c %dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols, c.Rows, c.Cols))
	}
	for i := 0; i < a.Rows; i++ {
		b.MulVecT(a.Row(i), c.Row(i))
	}
}

// maxPoolClass bounds the size classes the pool retains; buffers larger than
// 2^maxPoolClass elements are allocated fresh and dropped on Put.
const maxPoolClass = 24

// Pool is a size-classed free list of scratch vectors and matrices for the
// batched inference path. Buffers are grouped by power-of-two capacity so a
// request for any length is served from the matching class without growing.
//
// Ownership rule: a Pool has exactly one owner at a time (the model's
// per-call inference scratch that embeds it) and is not safe for concurrent
// use — concurrent forwards each run on their own. Buffers
// come back from Get with len set but contents unspecified; every kernel
// above either overwrites (MatMulNT) or zeroes first (MatMulNN, row packing).
type Pool struct {
	vecs [maxPoolClass + 1][]Vec
	mats [maxPoolClass + 1][]*Mat
}

// poolClass returns the smallest c with 1<<c >= n, or -1 if n is too large
// to pool.
func poolClass(n int) int {
	if n <= 1 {
		return 0
	}
	c := bits.Len(uint(n - 1))
	if c > maxPoolClass {
		return -1
	}
	return c
}

// GetVec returns a length-n vector with unspecified contents.
func (p *Pool) GetVec(n int) Vec {
	c := poolClass(n)
	if c < 0 {
		return make(Vec, n)
	}
	if l := len(p.vecs[c]); l > 0 {
		v := p.vecs[c][l-1]
		p.vecs[c] = p.vecs[c][:l-1]
		return v[:n]
	}
	return make(Vec, n, 1<<c)
}

// PutVec returns a vector to the pool. Nil and oversized buffers are dropped.
func (p *Pool) PutVec(v Vec) {
	c := cap(v)
	if c == 0 || c&(c-1) != 0 {
		return // only whole size classes are reusable
	}
	cls := poolClass(c)
	if cls < 0 || 1<<cls != c {
		return
	}
	p.vecs[cls] = append(p.vecs[cls], v[:0])
}

// GetMat returns a rows×cols matrix with unspecified contents, reshaped from
// a pooled backing slice when one is available.
func (p *Pool) GetMat(rows, cols int) *Mat {
	n := rows * cols
	c := poolClass(n)
	if c < 0 {
		return &Mat{Rows: rows, Cols: cols, Data: make([]float64, n)}
	}
	if l := len(p.mats[c]); l > 0 {
		m := p.mats[c][l-1]
		p.mats[c] = p.mats[c][:l-1]
		m.Rows, m.Cols = rows, cols
		m.Data = m.Data[:n]
		return m
	}
	return &Mat{Rows: rows, Cols: cols, Data: make([]float64, n, 1<<c)}
}

// PutMat returns a matrix to the pool for reshaping by a later GetMat.
func (p *Pool) PutMat(m *Mat) {
	if m == nil {
		return
	}
	c := cap(m.Data)
	if c == 0 || c&(c-1) != 0 {
		return
	}
	cls := poolClass(c)
	if cls < 0 || 1<<cls != c {
		return
	}
	m.Rows, m.Cols = 0, 0
	m.Data = m.Data[:0]
	p.mats[cls] = append(p.mats[cls], m)
}
