package nn

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/tensor"
)

// rowRef is the sparse-row bookkeeping the mark array replaced: a set drained
// and sorted on every read. The property test below drives both with the
// same operations and requires the same rows in the same order.
type rowRef map[int32]bool

func (r rowRef) sorted() []int32 {
	out := make([]int32, 0, len(r))
	for k := range r {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TestSparseRowTrackingMatchesReference drives random touch / ZeroGrad /
// ClipGradNorm / Adam.Step sequences over a sparse and a dense parameter and
// checks every observable against the map+sort reference: touched rows and
// their order, GradNorm bits, the clip rescale, the Adam update, and that
// ZeroGrad zeroes exactly the touched rows and unmarks every one.
func TestSparseRowTrackingMatchesReference(t *testing.T) {
	const rows, cols = 64, 3
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sp := NewParam("sparse", rows, cols)
		sp.TrackRows()
		dn := NewParam("dense", 2, cols)
		lam := &Scalar{Name: "λ"}
		for _, p := range []*Param{sp, dn} {
			p.W.FillGaussian(rng, 1)
		}
		ps := ParamSet{Mats: []*Block{&sp.Block, &dn.Block}, Scalars: []*Scalar{lam}}
		opt := NewAdam(0.01)
		opt.WeightDecay = 1e-3

		ref := rowRef{}
		refG := tensor.NewMat(rows, cols) // shadow of sp's gradient
		refW := sp.W.Clone()
		refM, refV := tensor.NewMat(rows, cols), tensor.NewMat(rows, cols)
		step := 0

		refNorm := func() float64 {
			var s float64
			for _, r := range ref.sorted() {
				for _, g := range refG.Row(int(r)) {
					s += g * g
				}
			}
			for _, g := range dn.Grad().Data {
				s += g * g
			}
			s += lam.Grad * lam.Grad
			return math.Sqrt(s)
		}
		check := func(op string) {
			t.Helper()
			want := ref.sorted()
			got := sp.touchedRows()
			if len(got) != len(want) {
				t.Fatalf("seed %d after %s: %d touched rows, want %d", seed, op, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("seed %d after %s: touched[%d] = %d, want %d", seed, op, i, got[i], want[i])
				}
			}
			marks := 0
			for _, s := range sp.slots {
				if s < 0 {
					marks++
				}
			}
			if marks != len(want) {
				t.Fatalf("seed %d after %s: %d rows marked touched, want %d", seed, op, marks, len(want))
			}
			for i, g := range gradDense(sp) {
				if math.Float64bits(g) != math.Float64bits(refG.Data[i]) {
					t.Fatalf("seed %d after %s: G[%d] = %v, want %v", seed, op, i, g, refG.Data[i])
				}
			}
			if got, want := ps.GradNorm(), refNorm(); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("seed %d after %s: GradNorm %v, want %v", seed, op, got, want)
			}
		}

		for i := 0; i < 300; i++ {
			switch op := rng.Intn(10); {
			case op < 6: // backward: gradient lands in a row, the row is touched
				r := rng.Intn(rows)
				g := rng.NormFloat64()
				sp.touch(r).Axpy(g, tensor.Vec{1, -2, 0.5})
				refG.Row(r).Axpy(g, tensor.Vec{1, -2, 0.5})
				ref[int32(r)] = true
				dn.Grad().Data[rng.Intn(2*cols)] += rng.NormFloat64()
				lam.Grad += rng.NormFloat64()
				check("touch")
			case op < 7:
				max := math.Abs(rng.NormFloat64())
				want := refNorm()
				if got := ps.ClipGradNorm(max); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("seed %d: ClipGradNorm returned %v, want %v", seed, got, want)
				}
				if want > max && want != 0 {
					scale := max / want
					for _, r := range ref.sorted() {
						refG.Row(int(r)).Scale(scale)
					}
					// dn and lam were rescaled by ps itself; refNorm reads them.
				}
				check("clip")
			case op < 9:
				step++
				b1c := 1 - math.Pow(opt.Beta1, float64(step))
				b2c := 1 - math.Pow(opt.Beta2, float64(step))
				for _, r := range ref.sorted() {
					lo, hi := int(r)*cols, (int(r)+1)*cols
					opt.update(refG.Data[lo:hi], refW.Data[lo:hi], refM.Data[lo:hi], refV.Data[lo:hi], b1c, b2c)
				}
				opt.Step(&ps)
				for i, w := range sp.W.Data {
					if math.Float64bits(w) != math.Float64bits(refW.Data[i]) {
						t.Fatalf("seed %d: Adam moved W[%d] to %v, want %v", seed, i, w, refW.Data[i])
					}
				}
				check("adam")
			default:
				ps.ZeroGrad()
				refG.Zero()
				clear(ref)
				for i, g := range gradDense(sp) {
					if g != 0 {
						t.Fatalf("seed %d: ZeroGrad left G[%d] = %v", seed, i, g)
					}
				}
				check("zero")
			}
		}
		ps.ReleaseGrads()
		if sp.state != nil || sp.slots != nil || sp.touched != nil || dn.g != nil || dn.state != nil {
			t.Fatalf("seed %d: ReleaseGrads left training state behind", seed)
		}
	}
}

// TestAdamMomentsLiveInOptimizer: two optimizers over the same parameter do
// not share moments, and an unfrozen dense parameter no backward reached
// still takes its weight-decay step.
func TestAdamMomentsLiveInOptimizer(t *testing.T) {
	run := func(prior bool) float64 {
		p := NewParam("p", 1, 1)
		p.W.Data[0] = 1
		ps := ParamSet{Mats: []*Block{&p.Block}}
		if prior {
			warm := NewAdam(0.1)
			p.Grad().Data[0] = 3
			warm.Step(&ps)
			p.W.Data[0] = 1
		}
		p.Grad().Data[0] = 0.5
		NewAdam(0.1).Step(&ps)
		return p.W.Data[0]
	}
	if a, b := run(false), run(true); a != b {
		t.Fatalf("a fresh Adam inherited moments: %v vs %v", a, b)
	}

	p := NewParam("p", 1, 2)
	p.W.Data[0], p.W.Data[1] = 1, -1
	ps := ParamSet{Mats: []*Block{&p.Block}}
	opt := NewAdam(0.1)
	opt.WeightDecay = 0.1
	opt.Step(&ps)
	if p.W.Data[0] >= 1 || p.W.Data[1] <= -1 {
		t.Fatalf("weight decay must shrink an unreached dense parameter, got %v", p.W.Data)
	}
}
