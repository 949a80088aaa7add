package nn

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// TestForwardBatchMatchesSerial pins the batched tower against the serial
// one bit for bit, patches included (one live, one frozen-at-zero that must
// be skipped by both paths).
func TestForwardBatchMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const dim, hidden, out = 64, 10, 7
	emb := NewEmbedding("e", dim, hidden, rng)
	live := &Scalar{Name: "lam", Val: 0.7}
	frozen := &Scalar{Name: "lam0"}
	frozen.Frozen = true
	emb.Attach("e.p", 3, 2, live, rng)
	emb.Attach("e.p0", 3, 2, frozen, rng)
	den := NewDense("d", out, hidden, rng)
	den.Attach("d.p", 2, 1.5, live, rng)
	den.Attach("d.p0", 2, 1.5, frozen, rng)
	// Give the live patches nonzero A so ΔW ≠ 0.
	for _, at := range append(emb.Patches, den.Patches...) {
		at.A.W.FillGaussian(rng, 0.3)
	}

	xs := []*tensor.Sparse{
		{Idx: []int32{1, 7, 33}, Val: []float64{0.5, -1.2, 2}},
		{Idx: []int32{0}, Val: []float64{1}},
		{Idx: []int32{5, 6, 7, 60}, Val: []float64{0.1, 0.2, 0.3, -0.4}},
	}
	n := len(xs)
	var pool tensor.Pool
	H := tensor.NewMat(n, hidden)
	emb.ForwardBatch(xs, H, &pool)
	Y := tensor.NewMat(n, out)
	// Serial reference must run BEFORE TanhMat mutates H in place.
	serialH := make([]tensor.Vec, n)
	serialY := make([]tensor.Vec, n)
	for i, x := range xs {
		serialH[i] = emb.Forward(x).Clone()
		for j := range serialH[i] {
			if math.Float64bits(serialH[i][j]) != math.Float64bits(H.At(i, j)) {
				t.Fatalf("embedding row %d col %d: %v vs %v", i, j, serialH[i][j], H.At(i, j))
			}
		}
	}
	den.ForwardBatch(H, Y, &pool)
	for i := range xs {
		serialY[i] = den.Forward(serialH[i]).Clone()
		for j := range serialY[i] {
			if math.Float64bits(serialY[i][j]) != math.Float64bits(Y.At(i, j)) {
				t.Fatalf("dense row %d col %d: %v vs %v", i, j, serialY[i][j], Y.At(i, j))
			}
		}
	}
	var act Tanh
	TanhMat(Y)
	for i := range xs {
		want := act.Forward(serialY[i])
		for j := range want {
			if math.Float64bits(want[j]) != math.Float64bits(Y.At(i, j)) {
				t.Fatalf("tanh row %d col %d: %v vs %v", i, j, want[j], Y.At(i, j))
			}
		}
	}
}

// TestForwardBatchLeavesTrainingCachesAlone: the batched pass must not
// disturb the serial layers' cached activations (Backward depends on them).
func TestForwardBatchLeavesTrainingCachesAlone(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	den := NewDense("d", 4, 6, rng)
	u := tensor.NewVec(6)
	for i := range u {
		u[i] = rng.NormFloat64()
	}
	serial := den.Forward(u).Clone()
	cached := den.out.Clone()

	var pool tensor.Pool
	U := tensor.NewMat(2, 6)
	U.Row(0).Axpy(1, u)
	for i := range u {
		U.Set(1, i, rng.NormFloat64())
	}
	Y := tensor.NewMat(2, 4)
	den.ForwardBatch(U, Y, &pool)
	for i := range cached {
		if den.out[i] != cached[i] {
			t.Fatal("ForwardBatch overwrote the serial output cache")
		}
	}
	for j := range serial {
		if math.Float64bits(serial[j]) != math.Float64bits(Y.At(0, j)) {
			t.Fatalf("row 0 mismatch at %d", j)
		}
	}
}
