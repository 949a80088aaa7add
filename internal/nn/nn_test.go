package nn

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// tinyNet is a minimal Embedding→tanh→Dense network used for gradient
// checking, with one trainable LoRA patch on each layer.
type tinyNet struct {
	emb   *Embedding
	dense *Dense
	coef  *Scalar
	ps    ParamSet
	pool  tensor.Pool
}

func newTinyNet(rng *rand.Rand) *tinyNet {
	n := &tinyNet{
		emb:  NewEmbedding("emb", 16, 5, rng),
		coef: &Scalar{Name: "lambda", Val: 0.7},
	}
	n.dense = NewDense("dense", 4, 5, rng)
	ea := n.emb.Attach("emb.p", 2, 1.5, n.coef, rng)
	da := n.dense.Attach("dense.p", 2, 1.5, n.coef, rng)
	// Give A non-zero values so its gradient path is exercised (the standard
	// zero init would make some gradients trivially correct).
	ea.A.W.FillGaussian(rng, 0.3)
	da.A.W.FillGaussian(rng, 0.3)
	n.ps.Add(n.emb.Params()...)
	n.ps.Add(n.dense.Params()...)
	n.ps.AddScalar(n.coef)
	return n
}

func (n *tinyNet) loss(x *tensor.Sparse, gold int) float64 {
	h := tensor.NewMat(1, 5)
	n.emb.ForwardBatch([]*tensor.Sparse{x}, h, &n.pool)
	TanhMat(h)
	return SoftmaxCE(denseRow(n.dense, h.Row(0)), gold, tensor.NewVec(4))
}

func (n *tinyNet) lossAndBackward(x *tensor.Sparse, gold int) float64 {
	xs := []*tensor.Sparse{x}
	h, y := tensor.NewMat(1, 5), tensor.NewMat(1, 4)
	tE := n.emb.ForwardTape(xs, h, &n.pool)
	TanhMat(h)
	tD := n.dense.ForwardTape(h, y, &n.pool)
	d, dh := tensor.NewMat(1, 4), tensor.NewMat(1, 5)
	loss := SoftmaxCE(y.Row(0), gold, d.Row(0))
	lamD, lamE := tensor.NewMat(1, 1), tensor.NewMat(1, 1)
	n.dense.BackwardBatch(h, tD, d, dh, lamD, &n.pool)
	TanhBackward(dh, h)
	n.emb.BackwardBatch(xs, tE, dh, lamE, &n.pool)
	n.dense.AddCoefGrads(lamD.Row(0))
	n.emb.AddCoefGrads(lamE.Row(0))
	return loss
}

// denseRow runs one input through d as a batch of one.
func denseRow(d *Dense, u tensor.Vec) tensor.Vec {
	y := tensor.NewMat(1, d.Out())
	d.ForwardBatch(&tensor.Mat{Rows: 1, Cols: len(u), Data: u}, y, &tensor.Pool{})
	return y.Row(0)
}

// denseStep runs one input forward and dy backward through d; it returns the
// output and the input gradient.
func denseStep(d *Dense, u, dy tensor.Vec) (y, du tensor.Vec) {
	var pool tensor.Pool
	U := &tensor.Mat{Rows: 1, Cols: len(u), Data: u}
	Y, dU := tensor.NewMat(1, d.Out()), tensor.NewMat(1, d.In())
	tape := d.ForwardTape(U, Y, &pool)
	lam := tensor.NewMat(1, len(d.Patches))
	d.BackwardBatch(U, tape, &tensor.Mat{Rows: 1, Cols: len(dy), Data: dy}, dU, lam, &pool)
	d.AddCoefGrads(lam.Row(0))
	return Y.Row(0), dU.Row(0)
}

func testInput() *tensor.Sparse {
	s := &tensor.Sparse{Idx: []int32{1, 3, 7, 15}, Val: []float64{0.5, -0.8, 1.2, 0.3}}
	s.Normalize()
	return s
}

// TestGradientCheck verifies every analytic gradient (embedding, dense,
// both LoRA factor pairs, and the shared fusion coefficient λ) against
// central finite differences.
func TestGradientCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	net := newTinyNet(rng)
	x := testInput()
	const gold = 2
	net.ps.ZeroGrad()
	net.lossAndBackward(x, gold)

	const eps = 1e-5
	checkMat := func(b *Block) {
		p := b.P
		for k := 0; k < b.NumParams(); k++ {
			i := k/b.Cols()*p.W.Cols + b.Lo + k%b.Cols() // flat index of block element k
			orig := p.W.Data[i]
			p.W.Data[i] = orig + eps
			lp := net.loss(x, gold)
			p.W.Data[i] = orig - eps
			lm := net.loss(x, gold)
			p.W.Data[i] = orig
			num := (lp - lm) / (2 * eps)
			ana := p.Grad().Data[i]
			if math.Abs(num-ana) > 1e-6*(1+math.Abs(num)) {
				t.Fatalf("%s[%d]: analytic %g vs numeric %g", p.Name, i, ana, num)
			}
		}
	}
	for _, p := range net.ps.Mats {
		checkMat(p)
	}
	// λ gradient.
	orig := net.coef.Val
	net.coef.Val = orig + eps
	lp := net.loss(x, gold)
	net.coef.Val = orig - eps
	lm := net.loss(x, gold)
	net.coef.Val = orig
	num := (lp - lm) / (2 * eps)
	if math.Abs(num-net.coef.Grad) > 1e-6*(1+math.Abs(num)) {
		t.Fatalf("lambda: analytic %g vs numeric %g", net.coef.Grad, num)
	}
}

// TestFrozenParamsGetNoUpdate checks that frozen parameters are untouched by
// Adam and that frozen patch coefficients block patch computation.
func TestFrozenParamsGetNoUpdate(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	net := newTinyNet(rng)
	net.emb.E.Frozen = true
	net.dense.W.Frozen = true
	before := net.emb.E.W.Clone()
	x := testInput()
	opt := NewAdam(0.01)
	for i := 0; i < 5; i++ {
		net.ps.ZeroGrad()
		net.lossAndBackward(x, 1)
		opt.Step(&net.ps)
	}
	for i := range before.Data {
		if net.emb.E.W.Data[i] != before.Data[i] {
			t.Fatal("frozen embedding changed under Adam")
		}
	}
}

// TestZeroFrozenCoefIsIdentity checks the defining LoRA-fusion property:
// a patch whose λ is frozen at 0 must not change the forward pass at all.
func TestZeroFrozenCoefIsIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	dense := NewDense("d", 3, 4, rng)
	u := tensor.Vec{0.1, -0.2, 0.3, 0.4}
	base := denseRow(dense, u)
	coef := &Scalar{Val: 0, Frozen: true}
	at := dense.Attach("p", 2, 2, coef, rng)
	at.A.W.FillGaussian(rng, 1)
	// The backward must not panic even though the forward skipped the patch.
	got, _ := denseStep(dense, u, tensor.Vec{1, 1, 1})
	for i := range base {
		if got[i] != base[i] {
			t.Fatalf("frozen zero-λ patch changed output: %v vs %v", got, base)
		}
	}
}

// TestZeroInitPatchIsIdentity: per Eq. 2, a freshly attached patch has A = 0
// so ΔW = B·A = 0 and the model output is unchanged even with λ = 1.
func TestZeroInitPatchIsIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	dense := NewDense("d", 3, 4, rng)
	u := tensor.Vec{0.5, 0.5, -0.5, 1}
	base := denseRow(dense, u)
	coef := &Scalar{Val: 1}
	dense.Attach("p", 2, 2, coef, rng) // A stays zero
	got := denseRow(dense, u)
	for i := range base {
		if math.Abs(got[i]-base[i]) > 1e-15 {
			t.Fatalf("zero-init patch changed output: %v vs %v", got, base)
		}
	}
}

// TestPatchEquivalentToMaterializedDelta: B(Ax) must equal (BA)x.
func TestPatchEquivalentToMaterializedDelta(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	const out, in, rank = 5, 7, 3
	dense := NewDense("d", out, in, rng)
	coef := &Scalar{Val: 0.9}
	at := dense.Attach("p", rank, 1.3, coef, rng)
	at.A.W.FillGaussian(rng, 0.5)
	u := tensor.NewVec(in)
	for i := range u {
		u[i] = rng.NormFloat64()
	}
	got := denseRow(dense, u)

	// Materialize W + α·λ·B·A and compare.
	eff := dense.W.W.Clone()
	for i := 0; i < out; i++ {
		for j := 0; j < in; j++ {
			var d float64
			for k := 0; k < rank; k++ {
				d += at.B.Values()[i*rank+k] * at.A.W.At(k, j)
			}
			eff.Set(i, j, eff.At(i, j)+1.3*0.9*d)
		}
	}
	want := tensor.NewVec(out)
	eff.MulVec(u, want)
	want.Axpy(1, dense.B.W.Row(0))
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("factored patch disagrees with materialized ΔW at %d: %g vs %g", i, got[i], want[i])
		}
	}
}

// TestSharedCoefAccumulatesAcrossLayers: λ shared by two layers must receive
// the sum of both layers' contributions.
func TestSharedCoefAccumulatesAcrossLayers(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	net := newTinyNet(rng)
	x := testInput()
	net.ps.ZeroGrad()
	net.lossAndBackward(x, 0)
	shared := net.coef.Grad

	// Rebuild the same network but give each layer its own coefficient; the
	// shared gradient must equal the sum of the two separate ones.
	rng2 := rand.New(rand.NewSource(12))
	net2 := newTinyNet(rng2)
	// Detach: give dense patch a separate scalar with same value.
	sep := &Scalar{Val: net2.coef.Val}
	net2.dense.Patches[0].Coef = sep
	net2.ps.ZeroGrad()
	sep.Grad = 0
	net2.lossAndBackward(x, 0)
	sum := net2.coef.Grad + sep.Grad
	if math.Abs(shared-sum) > 1e-10 {
		t.Fatalf("shared λ grad %g != sum of separate grads %g", shared, sum)
	}
}

func TestSoftmaxCE(t *testing.T) {
	scores := tensor.Vec{1, 2, 3}
	d := tensor.NewVec(3)
	loss := SoftmaxCE(scores, 2, d)
	if loss < 0 {
		t.Fatalf("loss must be non-negative, got %v", loss)
	}
	// Gradient sums to zero (softmax minus one-hot).
	var s float64
	for _, g := range d {
		s += g
	}
	if math.Abs(s) > 1e-12 {
		t.Fatalf("CE gradient should sum to 0, got %v", s)
	}
	// Gold gradient is negative, others positive.
	if d[2] >= 0 || d[0] <= 0 || d[1] <= 0 {
		t.Fatalf("unexpected gradient signs: %v", d)
	}
}

func TestSoftmaxNumericalStability(t *testing.T) {
	scores := tensor.Vec{1000, 999, 998}
	d := tensor.NewVec(3)
	loss := SoftmaxCE(scores, 0, d)
	if math.IsNaN(loss) || math.IsInf(loss, 0) || loss < 0 {
		t.Fatalf("softmax overflow: loss %v", loss)
	}
	// d is softmax minus one-hot: adding the one back must give
	// probabilities that sum to 1.
	s := 1.0
	for _, g := range d {
		if math.IsNaN(g) || math.IsInf(g, 0) {
			t.Fatalf("softmax overflow: gradient %v", d)
		}
		s += g
	}
	if math.Abs(s-1) > 1e-9 {
		t.Fatalf("softmax sums to %v", s)
	}
}

// TestAdamConvergesOnToyProblem: Adam must drive a simple regression loss
// near zero, smoke-testing the whole train loop machinery.
func TestAdamConvergesOnToyProblem(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	dense := NewDense("d", 2, 3, rng)
	var ps ParamSet
	ps.Add(dense.Params()...)
	opt := NewAdam(0.05)
	target := tensor.Vec{1.0, -2.0}
	u := tensor.Vec{0.3, 0.6, -0.2}
	var loss float64
	for i := 0; i < 400; i++ {
		ps.ZeroGrad()
		y := denseRow(dense, u)
		dy := tensor.NewVec(2)
		loss = 0
		for j := range y {
			diff := y[j] - target[j]
			loss += 0.5 * diff * diff
			dy[j] = diff
		}
		denseStep(dense, u, dy)
		opt.Step(&ps)
	}
	if loss > 1e-4 {
		t.Fatalf("Adam failed to converge, final loss %v", loss)
	}
}

func TestClipGradNorm(t *testing.T) {
	p := NewParam("p", 1, 3)
	copy(p.Grad().Data, []float64{3, 4, 0})
	var ps ParamSet
	ps.Add(&p.Block)
	pre := ps.ClipGradNorm(1)
	if math.Abs(pre-5) > 1e-12 {
		t.Fatalf("pre-clip norm = %v, want 5", pre)
	}
	if post := ps.GradNorm(); math.Abs(post-1) > 1e-12 {
		t.Fatalf("post-clip norm = %v, want 1", post)
	}
	// No-op when under the limit.
	ps.ClipGradNorm(10)
	if post := ps.GradNorm(); math.Abs(post-1) > 1e-12 {
		t.Fatalf("clip should be no-op under limit, norm = %v", post)
	}
}

func TestParamSetNumParams(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := NewDense("d", 2, 3, rng)
	var ps ParamSet
	ps.Add(d.Params()...)
	ps.AddScalar(&Scalar{}, &Scalar{Frozen: true})
	if got := ps.NumParams(); got != 2*3+2+1 {
		t.Fatalf("NumParams = %d, want %d", got, 2*3+2+1)
	}
	d.W.Frozen = true
	if got := ps.NumParams(); got != 2+1 {
		t.Fatalf("NumParams with frozen W = %d, want 3", got)
	}
}
