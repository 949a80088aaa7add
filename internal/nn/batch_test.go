package nn

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// batchLayers builds an embedding and a dense layer with one live patch and
// one frozen-at-zero patch (which every pass must skip) each.
func batchLayers(rng *rand.Rand, dim, hidden, out int) (*Embedding, *Dense) {
	emb := NewEmbedding("e", dim, hidden, rng)
	live := &Scalar{Name: "lam", Val: 0.7}
	frozen := &Scalar{Name: "lam0", Frozen: true}
	emb.Attach("e.p", 3, 2, live, rng)
	emb.Attach("e.p0", 3, 2, frozen, rng)
	den := NewDense("d", out, hidden, rng)
	den.Attach("d.p", 2, 1.5, live, rng)
	den.Attach("d.p0", 2, 1.5, frozen, rng)
	// Give the live patches nonzero A so ΔW ≠ 0.
	for _, at := range append(emb.Patches, den.Patches...) {
		at.A.W.FillGaussian(rng, 0.3)
	}
	return emb, den
}

// TestForwardBatchMatchesSerial: a batch of rows through both layers and
// tanh gives, row for row, the bits of each row sent through alone as a batch
// of one — patches included.
func TestForwardBatchMatchesSerial(t *testing.T) {
	const dim, hidden, out = 64, 10, 7
	emb, den := batchLayers(rand.New(rand.NewSource(3)), dim, hidden, out)
	xs := []*tensor.Sparse{
		{Idx: []int32{1, 7, 33}, Val: []float64{0.5, -1.2, 2}},
		{Idx: []int32{0}, Val: []float64{1}},
		{Idx: []int32{5, 6, 7, 60}, Val: []float64{0.1, 0.2, 0.3, -0.4}},
	}
	var pool tensor.Pool
	tower := func(xs []*tensor.Sparse) *tensor.Mat {
		H, Y := tensor.NewMat(len(xs), hidden), tensor.NewMat(len(xs), out)
		emb.ForwardBatch(xs, H, &pool)
		TanhMat(H)
		den.ForwardBatch(H, Y, &pool)
		TanhMat(Y)
		return Y
	}
	Y := tower(xs)
	for i, x := range xs {
		want := tower([]*tensor.Sparse{x}).Row(0)
		for j := range want {
			if math.Float64bits(want[j]) != math.Float64bits(Y.At(i, j)) {
				t.Fatalf("row %d col %d: batched %v, alone %v", i, j, Y.At(i, j), want[j])
			}
		}
	}
}

// TestForwardBatchLeavesTrainingCachesAlone: layers hold weights only, so an
// inference ForwardBatch run between a training forward and its backward, on
// the same pool, leaves every gradient and λ term of that backward unchanged.
func TestForwardBatchLeavesTrainingCachesAlone(t *testing.T) {
	const dim, hidden, out = 32, 6, 4
	grads := func(interleave bool) []float64 {
		rng := rand.New(rand.NewSource(5))
		emb, den := batchLayers(rng, dim, hidden, out)
		xs := []*tensor.Sparse{{Idx: []int32{2, 9}, Val: []float64{1, -0.5}}, {Idx: []int32{30}, Val: []float64{2}}}
		var pool tensor.Pool
		H, Y := tensor.NewMat(2, hidden), tensor.NewMat(2, out)
		tE := emb.ForwardTape(xs, H, &pool)
		tD := den.ForwardTape(H, Y, &pool)
		if interleave {
			other := []*tensor.Sparse{{Idx: []int32{1, 2, 3}, Val: []float64{3, 3, 3}}}
			H2, Y2 := tensor.NewMat(1, hidden), tensor.NewMat(1, out)
			emb.ForwardBatch(other, H2, &pool)
			den.ForwardBatch(H2, Y2, &pool)
		}
		dY, dH := tensor.NewMat(2, out), tensor.NewMat(2, hidden)
		dY.FillGaussian(rng, 1)
		lamE, lamD := tensor.NewMat(2, 2), tensor.NewMat(2, 2)
		den.BackwardBatch(H, tD, dY, dH, lamD, &pool)
		emb.BackwardBatch(xs, tE, dH, lamE, &pool)
		var got []float64
		for _, b := range append(emb.Params(), den.Params()...) {
			got = append(got, gradDense(b.P)...)
		}
		return append(append(append(got, dH.Data...), lamE.Row(0)[0], lamE.Row(1)[0]), lamD.Row(0)[0], lamD.Row(1)[0])
	}
	want, got := grads(false), grads(true)
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("value %d: %v with an inference forward in between, %v without", i, got[i], want[i])
		}
	}
}

// TestTanhBackwardMatchesDerivative: TanhBackward is d·(1 − tanh(u)²).
func TestTanhBackwardMatchesDerivative(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	u, d := tensor.NewMat(3, 4), tensor.NewMat(3, 4)
	u.FillGaussian(rng, 2)
	d.FillGaussian(rng, 1)
	want := d.Clone()
	for i, v := range u.Data {
		want.Data[i] *= 1 - math.Tanh(v)*math.Tanh(v)
	}
	TanhMat(u)
	TanhBackward(d, u)
	for i := range want.Data {
		if math.Float64bits(d.Data[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("element %d: %v, want %v", i, d.Data[i], want.Data[i])
		}
	}
}
