package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestVecDot(t *testing.T) {
	v := Vec{1, 2, 3}
	w := Vec{4, -5, 6}
	if got := v.Dot(w); got != 12 {
		t.Fatalf("dot = %v, want 12", got)
	}
}

func TestVecDotPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	Vec{1}.Dot(Vec{1, 2})
}

func TestVecAxpy(t *testing.T) {
	v := Vec{1, 2, 3}
	v.Axpy(2, Vec{10, 20, 30})
	want := Vec{21, 42, 63}
	for i := range v {
		if v[i] != want[i] {
			t.Fatalf("axpy[%d] = %v, want %v", i, v[i], want[i])
		}
	}
}

func TestVecNormalize(t *testing.T) {
	v := Vec{3, 4}
	n := v.Normalize()
	if n != 5 {
		t.Fatalf("norm = %v, want 5", n)
	}
	if !almostEqual(v.Norm(), 1, 1e-12) {
		t.Fatalf("normalized norm = %v, want 1", v.Norm())
	}
	z := Vec{0, 0}
	if z.Normalize() != 0 {
		t.Fatal("zero vector normalize should return 0")
	}
}

func TestMatMulVec(t *testing.T) {
	m := NewMat(2, 3)
	copy(m.Data, []float64{1, 2, 3, 4, 5, 6})
	x := Vec{1, 0, -1}
	y := NewVec(2)
	m.MulVec(x, y)
	if y[0] != -2 || y[1] != -2 {
		t.Fatalf("mulvec = %v, want [-2 -2]", y)
	}
}

func TestMatMulVecT(t *testing.T) {
	m := NewMat(2, 3)
	copy(m.Data, []float64{1, 2, 3, 4, 5, 6})
	x := Vec{1, -1}
	y := NewVec(3)
	m.MulVecT(x, y)
	want := Vec{-3, -3, -3}
	for i := range y {
		if y[i] != want[i] {
			t.Fatalf("mulvecT = %v, want %v", y, want)
		}
	}
}

func TestMatRankOne(t *testing.T) {
	m := NewMat(2, 2)
	m.RankOne(2, Vec{1, 3}, Vec{5, 7})
	want := []float64{10, 14, 30, 42}
	for i := range want {
		if m.Data[i] != want[i] {
			t.Fatalf("rankone data = %v, want %v", m.Data, want)
		}
	}
}

// Property: (Mᵀ)ᵀx == Mx, checked via MulVec vs MulVecT of the transpose.
func TestMatTransposeConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 50; iter++ {
		r := 1 + rng.Intn(8)
		c := 1 + rng.Intn(8)
		m := NewMat(r, c)
		m.FillGaussian(rng, 1)
		x := NewVec(c)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		y1 := NewVec(r)
		m.MulVec(x, y1)
		// Build explicit transpose and use MulVecT.
		mt := NewMat(c, r)
		for i := 0; i < r; i++ {
			for j := 0; j < c; j++ {
				mt.Set(j, i, m.At(i, j))
			}
		}
		y2 := NewVec(r)
		mt.MulVecT(x, y2)
		for i := range y1 {
			if !almostEqual(y1[i], y2[i], 1e-10) {
				t.Fatalf("transpose inconsistency at %d: %v vs %v", i, y1[i], y2[i])
			}
		}
	}
}

// Property: dot is symmetric and bilinear for sparse vectors.
func TestSparseDotSymmetric(t *testing.T) {
	f := func(ai, bi []uint16, av, bv []int8) bool {
		sa := buildSparse(ai, av)
		sb := buildSparse(bi, bv)
		return almostEqual(sa.Dot(sb), sb.Dot(sa), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: sparse dot agrees with densified dot.
func TestSparseDotMatchesDense(t *testing.T) {
	f := func(ai, bi []uint16, av, bv []int8) bool {
		sa := buildSparse(ai, av)
		sb := buildSparse(bi, bv)
		const dim = 1 << 16
		da := NewVec(dim)
		for i, idx := range sa.Idx {
			da[idx] = sa.Val[i]
		}
		db := NewVec(dim)
		for i, idx := range sb.Idx {
			db[idx] = sb.Val[i]
		}
		return almostEqual(sa.Dot(sb), da.Dot(db), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func buildSparse(idx []uint16, val []int8) *Sparse {
	b := NewDenseBuilder(1 << 16)
	n := len(idx)
	if len(val) < n {
		n = len(val)
	}
	for i := 0; i < n; i++ {
		b.Add(int32(idx[i]), float64(val[i]))
	}
	s := &Sparse{}
	b.BuildInto(s)
	return s
}

func TestDenseBuilderMergesAndSorts(t *testing.T) {
	b := NewDenseBuilder(16)
	b.Add(5, 1)
	b.Add(2, 3)
	b.Add(5, 2)
	b.Add(9, -1)
	b.Add(9, 1) // cancels to zero, should be dropped
	s := &Sparse{}
	b.BuildInto(s)
	if len(s.Idx) != 2 || len(s.Val) != 2 {
		t.Fatalf("nnz = %d/%d, want 2", len(s.Idx), len(s.Val))
	}
	if s.Idx[0] != 2 || s.Idx[1] != 5 {
		t.Fatalf("idx = %v, want [2 5]", s.Idx)
	}
	if s.Val[0] != 3 || s.Val[1] != 3 {
		t.Fatalf("val = %v, want [3 3]", s.Val)
	}
	// Builder must be reusable after BuildInto.
	b.Add(1, 1)
	s2 := &Sparse{}
	if b.BuildInto(s2); len(s2.Idx) != 1 || s2.Idx[0] != 1 {
		t.Fatalf("builder not reset correctly: %+v", s2)
	}
}

func TestSparseNormalize(t *testing.T) {
	s := &Sparse{Idx: []int32{0, 1}, Val: []float64{3, 4}}
	if n := s.Normalize(); n != 5 {
		t.Fatalf("norm = %v, want 5", n)
	}
	if !almostEqual(s.Norm(), 1, 1e-12) {
		t.Fatalf("normalized norm = %v", s.Norm())
	}
}

func TestMatFillGaussianDeterministic(t *testing.T) {
	m1 := NewMat(4, 4)
	m1.FillGaussian(rand.New(rand.NewSource(42)), 0.1)
	m2 := NewMat(4, 4)
	m2.FillGaussian(rand.New(rand.NewSource(42)), 0.1)
	for i := range m1.Data {
		if m1.Data[i] != m2.Data[i] {
			t.Fatal("same seed must give identical init")
		}
	}
}
