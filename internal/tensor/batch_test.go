package tensor

import (
	"math/rand"
	"testing"
)

// TestMatMulNTMatchesMulVec pins the byte-identity contract: each row of
// c = a·bᵀ must be bit-equal to running b.MulVec over a's rows one at a time.
func TestMatMulNTMatchesMulVec(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := NewMat(5, 17)
	b := NewMat(9, 17)
	a.FillGaussian(rng, 1.3)
	b.FillGaussian(rng, 0.7)
	c := NewMat(5, 9)
	MatMulNT(a, b, c)
	y := NewVec(9)
	for i := 0; i < a.Rows; i++ {
		b.MulVec(a.Row(i), y)
		for j := range y {
			if c.At(i, j) != y[j] {
				t.Fatalf("MatMulNT[%d][%d] = %v, serial MulVec = %v", i, j, c.At(i, j), y[j])
			}
		}
	}
}

// TestMatMulNNMatchesMulVecT pins the transpose kernel the embedding patches
// use: each row of c = a·b must be bit-equal to b.MulVecT of a's row,
// including the zero-skip order.
func TestMatMulNNMatchesMulVecT(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := NewMat(6, 8)
	b := NewMat(8, 13)
	a.FillGaussian(rng, 1)
	b.FillGaussian(rng, 1)
	// Sprinkle exact zeros so the skip path is exercised.
	for i := 0; i < len(a.Data); i += 3 {
		a.Data[i] = 0
	}
	c := NewMat(6, 13)
	MatMulNN(a, b, c)
	y := NewVec(13)
	for i := 0; i < a.Rows; i++ {
		b.MulVecT(a.Row(i), y)
		for j := range y {
			if c.At(i, j) != y[j] {
				t.Fatalf("MatMulNN[%d][%d] = %v, serial MulVecT = %v", i, j, c.At(i, j), y[j])
			}
		}
	}
}

func TestMatMulShapePanics(t *testing.T) {
	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected shape panic", name)
			}
		}()
		f()
	}
	expectPanic("NT", func() { MatMulNT(NewMat(2, 3), NewMat(2, 4), NewMat(2, 2)) })
	expectPanic("NN", func() { MatMulNN(NewMat(2, 3), NewMat(4, 2), NewMat(2, 2)) })
}

func TestPoolReusesBuffers(t *testing.T) {
	var p Pool
	v := p.GetVec(100)
	if len(v) != 100 || cap(v) != 128 {
		t.Fatalf("GetVec(100): len %d cap %d, want 100/128", len(v), cap(v))
	}
	v[0] = 42
	p.PutVec(v)
	w := p.GetVec(70) // same class, different length
	if len(w) != 70 || cap(w) != 128 {
		t.Fatalf("GetVec(70) after put: len %d cap %d", len(w), cap(w))
	}
	if &w[0] != &v[0] {
		t.Fatal("GetVec did not reuse the pooled buffer")
	}

	m := p.GetMat(4, 6)
	if m.Rows != 4 || m.Cols != 6 || len(m.Data) != 24 {
		t.Fatalf("GetMat(4,6): %dx%d len %d", m.Rows, m.Cols, len(m.Data))
	}
	base := &m.Data[0]
	p.PutMat(m)
	m2 := p.GetMat(3, 10) // 30 elements, same 32-capacity class
	if m2.Rows != 3 || m2.Cols != 10 || len(m2.Data) != 30 {
		t.Fatalf("GetMat(3,10) after put: %dx%d len %d", m2.Rows, m2.Cols, len(m2.Data))
	}
	if &m2.Data[0] != base {
		t.Fatal("GetMat did not reuse the pooled backing slice")
	}
}

func TestPoolSteadyStateAllocsZero(t *testing.T) {
	var p Pool
	allocs := testing.AllocsPerRun(200, func() {
		v := p.GetVec(257)
		m := p.GetMat(8, 33)
		p.PutMat(m)
		p.PutVec(v)
	})
	if allocs != 0 {
		t.Fatalf("pool steady state allocates %.1f objects/op, want 0", allocs)
	}
}

func TestDenseBuilderBuildInto(t *testing.T) {
	b := NewDenseBuilder(16)
	b.Add(9, 1.5)
	b.Add(3, -2)
	b.Add(9, 0.25)
	b.Add(5, 1)
	b.Add(5, -1) // cancels to exactly zero, must be dropped
	want := Sparse{Idx: []int32{3, 9}, Val: []float64{-2, 1.75}}
	var dst Sparse
	dst.Idx = make([]int32, 0, 16)
	dst.Val = make([]float64, 0, 16)
	base := &dst.Idx[:1][0]
	b.BuildInto(&dst)
	if len(dst.Idx) != len(want.Idx) {
		t.Fatalf("BuildInto nnz %d, want %d", len(dst.Idx), len(want.Idx))
	}
	for i := range dst.Idx {
		if dst.Idx[i] != want.Idx[i] || dst.Val[i] != want.Val[i] {
			t.Fatalf("BuildInto[%d] = (%d,%v), want (%d,%v)",
				i, dst.Idx[i], dst.Val[i], want.Idx[i], want.Val[i])
		}
	}
	if &dst.Idx[0] != base {
		t.Fatal("BuildInto reallocated dst.Idx despite sufficient capacity")
	}
	// Builder must be reusable after BuildInto without fresh allocation of
	// the sparse slices.
	b.Add(1, 1)
	b.BuildInto(&dst)
	if len(dst.Idx) != 1 || dst.Idx[0] != 1 || dst.Val[0] != 1 {
		t.Fatalf("reused builder produced %v/%v", dst.Idx, dst.Val)
	}
}
