package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// This file keeps the per-patch arithmetic the factor bank replaced, as the
// reference the bank is compared against bit for bit: every patch owns a
// private out x rank B parameter — on an embedding with its own touched-row
// list — so each per-feature loop, each norm term and each Adam update runs
// once per patch over rank-wide rows. Nothing outside the tests calls it.

type refPatch struct {
	B, A  *Param
	Coef  *Scalar
	Alpha float64

	z, bz, dz tensor.Vec // Forward's projection and lift; Backward scratch
}

func (at *refPatch) skipped() bool { return at.Coef.Val == 0 && at.Coef.Frozen }

// newRefPatch draws B from rng exactly as Attach always has: row-major over
// the patch's own out x rank matrix.
func newRefPatch(out, in, rank int, alpha float64, coef *Scalar, sparse bool, rng *rand.Rand) *refPatch {
	b := NewParam("ref.B", out, rank)
	b.W.FillGaussian(rng, 1/math.Sqrt(float64(rank)))
	if sparse {
		b.TrackRows()
	}
	return &refPatch{B: b, A: NewParam("ref.A", rank, in), Coef: coef, Alpha: alpha,
		z: tensor.NewVec(rank), bz: tensor.NewVec(max(out, in)), dz: tensor.NewVec(rank)}
}

type refEmbedding struct {
	E       *Param
	Patches []*refPatch
	x       *tensor.Sparse
	out     tensor.Vec
}

func (l *refEmbedding) Forward(x *tensor.Sparse) tensor.Vec {
	l.x = x
	y := l.out
	y.Zero()
	for i, idx := range x.Idx {
		y.Axpy(x.Val[i], l.E.W.Row(int(idx)))
	}
	for _, at := range l.Patches {
		if at.skipped() {
			continue
		}
		u, ua := at.z, at.bz[:len(y)]
		u.Zero()
		for i, idx := range x.Idx {
			u.Axpy(x.Val[i], at.B.W.Row(int(idx)))
		}
		at.A.W.MulVecT(u, ua)
		y.Axpy(at.Alpha*at.Coef.Val, ua)
	}
	return y
}

func (l *refEmbedding) Backward(dy tensor.Vec) {
	x := l.x
	if !l.E.Frozen {
		g := l.E.Grad()
		for i, idx := range x.Idx {
			g.Row(int(idx)).Axpy(x.Val[i], dy)
			l.E.TouchRow(int(idx))
		}
	}
	for _, at := range l.Patches {
		if at.skipped() {
			continue
		}
		u, ua := at.z, at.bz[:len(dy)]
		scale := at.Alpha * at.Coef.Val
		if !at.Coef.Frozen {
			at.Coef.Grad += at.Alpha * dy.Dot(ua)
		}
		if !at.A.Frozen {
			at.A.Grad().RankOne(scale, u, dy)
		}
		if !at.B.Frozen {
			du := at.dz
			at.A.W.MulVec(dy, du)
			du.Scale(scale)
			g := at.B.Grad()
			for i, idx := range x.Idx {
				g.Row(int(idx)).Axpy(x.Val[i], du)
				at.B.TouchRow(int(idx))
			}
		}
	}
}

func (l *refEmbedding) ForwardBatch(xs []*tensor.Sparse, y *tensor.Mat, pool *tensor.Pool) {
	n := len(xs)
	for b, x := range xs {
		row := y.Row(b)
		row.Zero()
		for i, idx := range x.Idx {
			row.Axpy(x.Val[i], l.E.W.Row(int(idx)))
		}
	}
	for _, at := range l.Patches {
		if at.skipped() {
			continue
		}
		u := pool.GetMat(n, at.A.W.Rows)
		for b, x := range xs {
			urow := u.Row(b)
			urow.Zero()
			for i, idx := range x.Idx {
				urow.Axpy(x.Val[i], at.B.W.Row(int(idx)))
			}
		}
		ua := pool.GetMat(n, y.Cols)
		tensor.MatMulNN(u, at.A.W, ua)
		scale := at.Alpha * at.Coef.Val
		for b := 0; b < n; b++ {
			y.Row(b).Axpy(scale, ua.Row(b))
		}
		pool.PutMat(ua)
		pool.PutMat(u)
	}
}

type refDense struct {
	W, B    *Param
	Patches []*refPatch
	in      tensor.Vec
	out     tensor.Vec
	din     tensor.Vec
	tmp     tensor.Vec
}

func (l *refDense) Forward(u tensor.Vec) tensor.Vec {
	l.in = u
	y := l.out
	l.W.W.MulVec(u, y)
	y.Axpy(1, l.B.W.Row(0))
	for _, at := range l.Patches {
		if at.skipped() {
			continue
		}
		z, bz := at.z, at.bz[:len(y)]
		at.A.W.MulVec(u, z)
		at.B.W.MulVec(z, bz)
		y.Axpy(at.Alpha*at.Coef.Val, bz)
	}
	return y
}

func (l *refDense) Backward(dy tensor.Vec) tensor.Vec {
	in := l.in
	du := l.din
	l.W.W.MulVecT(dy, du)
	if !l.W.Frozen {
		l.W.Grad().RankOne(1, dy, in)
	}
	if !l.B.Frozen {
		l.B.Grad().Row(0).Axpy(1, dy)
	}
	for _, at := range l.Patches {
		if at.skipped() {
			continue
		}
		z, bz := at.z, at.bz[:len(dy)]
		scale := at.Alpha * at.Coef.Val
		if !at.Coef.Frozen {
			at.Coef.Grad += at.Alpha * dy.Dot(bz)
		}
		dz := at.dz
		at.B.W.MulVecT(dy, dz)
		dz.Scale(scale)
		if !at.B.Frozen {
			at.B.Grad().RankOne(scale, dy, z)
		}
		if !at.A.Frozen {
			at.A.Grad().RankOne(1, dz, in)
		}
		at.A.W.MulVecT(dz, l.tmp)
		du.Axpy(1, l.tmp)
	}
	return du
}

func (l *refDense) ForwardBatch(u, y *tensor.Mat, pool *tensor.Pool) {
	n := u.Rows
	tensor.MatMulNT(u, l.W.W, y)
	bias := l.B.W.Row(0)
	for b := 0; b < n; b++ {
		y.Row(b).Axpy(1, bias)
	}
	for _, at := range l.Patches {
		if at.skipped() {
			continue
		}
		z := pool.GetMat(n, at.A.W.Rows)
		tensor.MatMulNT(u, at.A.W, z)
		bz := pool.GetMat(n, y.Cols)
		tensor.MatMulNT(z, at.B.W, bz)
		scale := at.Alpha * at.Coef.Val
		for b := 0; b < n; b++ {
			y.Row(b).Axpy(scale, bz.Row(b))
		}
		pool.PutMat(bz)
		pool.PutMat(z)
	}
}

// bankCase is one seeded configuration: an embedding and a dense layer built
// twice with equal weights, once on the bank and once on the reference.
type bankCase struct {
	emb    *Embedding
	den    *Dense
	refEmb *refEmbedding
	refDen *refDense
	ps     ParamSet // bank side: per patch, per layer, B block then A
	refPS  ParamSet // reference side, same order
	coefs  [][2]*Scalar
}

const (
	refDim, refHidden, refOut = 24, 5, 4
)

// newBankCase draws 1–13 patches of mixed rank per layer. Each patch is
// trainable, frozen, B-frozen only, or has trainable factors under a
// coefficient frozen at 0; live coefficients are trainable or frozen at a
// non-zero value. Half the cases reserve the bank up front and half let every
// Attach regrow it, and half train the backbone too.
func newBankCase(seed int64) *bankCase {
	rng := rand.New(rand.NewSource(seed))
	c := &bankCase{}
	init := rand.New(rand.NewSource(seed + 1000))
	c.emb = NewEmbedding("e", refDim, refHidden, init)
	c.den = NewDense("d", refOut, refHidden, init)
	c.den.B.W.FillGaussian(init, 0.2)
	c.refEmb = &refEmbedding{E: NewParam("e.E", refDim, refHidden), out: tensor.NewVec(refHidden)}
	c.refEmb.E.TrackRows()
	c.refEmb.E.W.Copy(c.emb.E.W)
	c.refDen = &refDense{W: NewParam("d.W", refOut, refHidden), B: NewParam("d.b", 1, refOut),
		out: tensor.NewVec(refOut), din: tensor.NewVec(refHidden), tmp: tensor.NewVec(refHidden)}
	c.refDen.W.W.Copy(c.den.W.W)
	c.refDen.B.W.Copy(c.den.B.W)
	trainBase := rng.Intn(2) == 0
	for _, p := range []*Param{c.emb.E, c.den.W, c.den.B, c.refEmb.E, c.refDen.W, c.refDen.B} {
		p.Frozen = !trainBase
	}
	c.ps.Add(&c.emb.E.Block, &c.den.W.Block, &c.den.B.Block)
	c.refPS.Add(&c.refEmb.E.Block, &c.refDen.W.Block, &c.refDen.B.Block)

	n := 1 + rng.Intn(13)
	ranks := make([]int, n)
	total := 0
	for i := range ranks {
		ranks[i] = 1 + rng.Intn(4)
		total += ranks[i]
	}
	if rng.Intn(2) == 0 {
		c.emb.Reserve(total)
		c.den.Reserve(total)
	}
	// One stream per side and layer kind: the bank must consume draws exactly
	// as the private matrices do.
	eRng, eRef := rand.New(rand.NewSource(seed+1)), rand.New(rand.NewSource(seed+1))
	dRng, dRef := rand.New(rand.NewSource(seed+2)), rand.New(rand.NewSource(seed+2))
	for i, rank := range ranks {
		alpha := 0.5 + rng.Float64()
		coef := &Scalar{Name: fmt.Sprintf("λ%d", i), Val: rng.NormFloat64()}
		kind := rng.Intn(5)
		switch kind {
		case 3: // switched off: λ frozen at 0, factors still listed as trainable
			coef.Val, coef.Frozen = 0, true
		case 4: // live, λ frozen at a non-zero value
			coef.Frozen = true
		}
		refCoef := &Scalar{Name: coef.Name, Val: coef.Val, Frozen: coef.Frozen}
		c.coefs = append(c.coefs, [2]*Scalar{coef, refCoef})
		if !coef.Frozen {
			c.ps.AddScalar(coef)
			c.refPS.AddScalar(refCoef)
		}
		ea := c.emb.Attach("e.p", rank, alpha, coef, eRng)
		da := c.den.Attach("d.p", rank, alpha, coef, dRng)
		re := newRefPatch(refDim, refHidden, rank, alpha, refCoef, true, eRef)
		rd := newRefPatch(refOut, refHidden, rank, alpha, refCoef, false, dRef)
		c.refEmb.Patches = append(c.refEmb.Patches, re)
		c.refDen.Patches = append(c.refDen.Patches, rd)
		for _, pair := range [][2]*Param{{ea.A, re.A}, {da.A, rd.A}} {
			pair[0].W.FillGaussian(rng, 0.4)
			pair[1].W.Copy(pair[0].W)
		}
		switch kind {
		case 1: // frozen
			ea.B.Frozen, ea.A.Frozen, da.B.Frozen, da.A.Frozen = true, true, true, true
			re.B.Frozen, re.A.Frozen, rd.B.Frozen, rd.A.Frozen = true, true, true, true
		case 2: // B frozen, A trained
			ea.B.Frozen, da.B.Frozen, re.B.Frozen, rd.B.Frozen = true, true, true, true
		}
		c.ps.Add(da.Params()...)
		c.ps.Add(ea.Params()...)
		c.refPS.Add(&rd.B.Block, &rd.A.Block, &re.B.Block, &re.A.Block)
	}
	return c
}

func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v, want %v", what, i, got[i], want[i])
		}
	}
}

// gradValues gathers a block's gradient as Values gathers its weights.
func gradValues(b *Block) []float64 {
	g := b.P.Grad()
	out := make([]float64, 0, b.NumParams())
	for r := 0; r < b.Rows(); r++ {
		out = append(out, b.row(g, r)...)
	}
	return out
}

// compare checks every weight, every gradient and every coefficient of the
// two sides against each other.
func (c *bankCase) compare(t *testing.T, when string) {
	t.Helper()
	for i, b := range c.ps.Mats {
		rb := c.refPS.Mats[i]
		sameBits(t, fmt.Sprintf("%s: weights of block %d (%s)", when, i, rb.P.Name), b.Values(), rb.Values())
		if rb.P.g != nil || b.P.g != nil {
			sameBits(t, fmt.Sprintf("%s: gradient of block %d (%s)", when, i, rb.P.Name), gradValues(b), gradValues(rb))
		}
	}
	for i, pair := range c.coefs {
		sameBits(t, fmt.Sprintf("%s: λ%d value and gradient", when, i),
			[]float64{pair[0].Val, pair[0].Grad}, []float64{pair[1].Val, pair[1].Grad})
	}
}

func randSparse(rng *rand.Rand) *tensor.Sparse {
	x := &tensor.Sparse{}
	for idx := int32(rng.Intn(4)); idx < refDim; idx += 1 + int32(rng.Intn(8)) {
		v := rng.NormFloat64()
		if rng.Intn(8) == 0 {
			v = 0 // Axpy's zero skip
		}
		x.Idx = append(x.Idx, idx)
		x.Val = append(x.Val, v)
	}
	return x
}

func randVec(rng *rand.Rand, n int) tensor.Vec {
	v := tensor.NewVec(n)
	for i := range v {
		if rng.Intn(6) != 0 { // exact zeros exercise MulVecT's and RankOne's skips
			v[i] = rng.NormFloat64()
		}
	}
	return v
}

// checkBatches compares ForwardBatch at n = 1, 3 and 8 on both layers.
func (c *bankCase) checkBatches(t *testing.T, rng *rand.Rand, when string) {
	t.Helper()
	var pool, refPool tensor.Pool
	for _, n := range []int{1, 3, 8} {
		xs := make([]*tensor.Sparse, n)
		U := tensor.NewMat(n, refHidden)
		for i := range xs {
			xs[i] = randSparse(rng)
			copy(U.Row(i), randVec(rng, refHidden))
		}
		H, refH := tensor.NewMat(n, refHidden), tensor.NewMat(n, refHidden)
		c.emb.ForwardBatch(xs, H, &pool)
		c.refEmb.ForwardBatch(xs, refH, &refPool)
		sameBits(t, fmt.Sprintf("%s: embedding ForwardBatch n=%d", when, n), H.Data, refH.Data)
		Y, refY := tensor.NewMat(n, refOut), tensor.NewMat(n, refOut)
		c.den.ForwardBatch(U, Y, &pool)
		c.refDen.ForwardBatch(U, refY, &refPool)
		sameBits(t, fmt.Sprintf("%s: dense ForwardBatch n=%d", when, n), Y.Data, refY.Data)
	}
}

// TestBankMatchesPerPatchReference drives the bank and the per-patch
// reference through the same three accumulation windows (1–3 examples each,
// so windows end partial), clip and Adam step, over a few hundred seeded
// configurations, and requires equal bits everywhere: Forward and
// ForwardBatch outputs, the input gradient, every parameter gradient before
// and after the clip, GradNorm, and every weight after each Adam step.
func TestBankMatchesPerPatchReference(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		c := newBankCase(seed)
		rng := rand.New(rand.NewSource(seed + 7))
		opt, refOpt := NewAdam(0.05), NewAdam(0.05)
		if seed%2 == 0 {
			opt.WeightDecay, refOpt.WeightDecay = 1e-2, 1e-2
		}
		c.checkBatches(t, rng, fmt.Sprintf("seed %d before training", seed))
		for step := 0; step < 3; step++ {
			when := fmt.Sprintf("seed %d step %d", seed, step)
			c.ps.ZeroGrad()
			c.refPS.ZeroGrad()
			for ex := 1 + rng.Intn(3); ex > 0; ex-- {
				x, u := randSparse(rng), randVec(rng, refHidden)
				sameBits(t, when+": embedding Forward", c.emb.Forward(x), c.refEmb.Forward(x))
				sameBits(t, when+": dense Forward", c.den.Forward(u), c.refDen.Forward(u))
				dh, dy := randVec(rng, refHidden), randVec(rng, refOut)
				c.emb.Backward(dh)
				c.refEmb.Backward(dh)
				sameBits(t, when+": dense input gradient", c.den.Backward(dy), c.refDen.Backward(dy))
			}
			c.compare(t, when+" after backward")
			norm, refNorm := c.ps.GradNorm(), c.refPS.GradNorm()
			sameBits(t, when+": GradNorm", []float64{norm}, []float64{refNorm})
			// Every other window clips below the norm, so the rescale runs.
			max := refNorm * 2
			if step%2 == int(seed%2) {
				max = refNorm / 3
			}
			c.ps.ClipGradNorm(max)
			c.refPS.ClipGradNorm(max)
			c.compare(t, when+" after clip")
			opt.Step(&c.ps)
			refOpt.Step(&c.refPS)
			c.compare(t, when+" after Adam")
		}
		c.checkBatches(t, rng, fmt.Sprintf("seed %d after training", seed))
	}
}
