package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// This file keeps the arithmetic the batched passes and the factor bank
// replaced, as the reference both are compared against bit for bit: one row
// at a time, a Forward that caches its activations and a Backward that reads
// them, and every patch owning a private out x rank B parameter — on an
// embedding with its own touched-row list — so each per-feature loop, each
// norm term and each Adam update runs once per patch over rank-wide rows.
// Nothing outside the tests calls it.

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
		for i, idx := range x.Idx {
			l.E.touch(int(idx)).Axpy(x.Val[i], dy)
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
			for i, idx := range x.Idx {
				at.B.touch(int(idx)).Axpy(x.Val[i], du)
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
	copy(c.refEmb.E.W.Data, c.emb.E.W.Data)
	c.refDen = &refDense{W: NewParam("d.W", refOut, refHidden), B: NewParam("d.b", 1, refOut),
		out: tensor.NewVec(refOut), din: tensor.NewVec(refHidden), tmp: tensor.NewVec(refHidden)}
	copy(c.refDen.W.W.Data, c.den.W.W.Data)
	copy(c.refDen.B.W.Data, c.den.B.W.Data)
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
			copy(pair[1].W.Data, pair[0].W.Data)
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

// gradValues gathers a block's gradient as Values gathers its weights, zero
// where GradRow has none.
func gradValues(b *Block) []float64 {
	out := make([]float64, 0, b.NumParams())
	for r := 0; r < b.Rows(); r++ {
		if g := b.P.GradRow(r); g != nil {
			out = append(out, g[b.Lo:b.Hi]...)
		} else {
			out = append(out, make([]float64, b.Cols())...)
		}
	}
	return out
}

// gradDense is a parameter's whole gradient as a dense row-major slice.
func gradDense(p *Param) []float64 { return gradValues(&p.Block) }

// compare checks every weight, every gradient and every coefficient of the
// two sides against each other.
func (c *bankCase) compare(t *testing.T, when string) {
	t.Helper()
	for i, b := range c.ps.Mats {
		rb := c.refPS.Mats[i]
		sameBits(t, fmt.Sprintf("%s: weights of block %d (%s)", when, i, rb.P.Name), b.Values(), rb.Values())
		if rb.P.state != nil || b.P.state != nil {
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
// reference through the same three accumulation windows (1–3 rows each, so
// windows end partial), clip and Adam step, over a few hundred seeded
// configurations, and requires equal bits everywhere. The bank side runs each
// window as one ForwardTape + BackwardBatch per layer and folds the λ terms
// row by row; the reference runs every row alone, forward then backward, and
// adds its λ terms as it goes. Compared: ForwardTape and ForwardBatch
// outputs, the input gradient, every parameter gradient and λ before and
// after the clip, GradNorm, and every weight after each Adam step.
func TestBankMatchesPerPatchReference(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		c := newBankCase(seed)
		rng := rand.New(rand.NewSource(seed + 7))
		opt, refOpt := NewAdam(0.05), NewAdam(0.05)
		if seed%2 == 0 {
			opt.WeightDecay, refOpt.WeightDecay = 1e-2, 1e-2
		}
		var pool tensor.Pool
		c.checkBatches(t, rng, fmt.Sprintf("seed %d before training", seed))
		for step := 0; step < 3; step++ {
			when := fmt.Sprintf("seed %d step %d", seed, step)
			c.ps.ZeroGrad()
			c.refPS.ZeroGrad()
			n := 1 + rng.Intn(3)
			xs := make([]*tensor.Sparse, n)
			U, dH, dY := tensor.NewMat(n, refHidden), tensor.NewMat(n, refHidden), tensor.NewMat(n, refOut)
			for i := range xs {
				xs[i] = randSparse(rng)
				copy(U.Row(i), randVec(rng, refHidden))
				copy(dH.Row(i), randVec(rng, refHidden))
				copy(dY.Row(i), randVec(rng, refOut))
			}
			H, Y, dU := tensor.NewMat(n, refHidden), tensor.NewMat(n, refOut), tensor.NewMat(n, refHidden)
			tE, tD := c.emb.ForwardTape(xs, H, &pool), c.den.ForwardTape(U, Y, &pool)
			lamE, lamD := tensor.NewMat(n, len(c.emb.Patches)), tensor.NewMat(n, len(c.den.Patches))
			c.emb.BackwardBatch(xs, tE, dH, lamE, &pool)
			c.den.BackwardBatch(U, tD, dY, dU, lamD, &pool)
			pool.PutMat(tE)
			pool.PutMat(tD)
			for i, x := range xs {
				row := fmt.Sprintf("%s row %d", when, i)
				sameBits(t, row+": embedding forward", H.Row(i), c.refEmb.Forward(x))
				sameBits(t, row+": dense forward", Y.Row(i), c.refDen.Forward(U.Row(i)))
				c.refEmb.Backward(dH.Row(i))
				sameBits(t, row+": dense input gradient", dU.Row(i), c.refDen.Backward(dY.Row(i)))
				c.emb.AddCoefGrads(lamE.Row(i))
				c.den.AddCoefGrads(lamD.Row(i))
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

// denseOracle is the optimizer state of one sparse-tracked parameter as it was
// kept before slots: gradient and both Adam moments shaped like W, touched
// rows a set sorted on every read, and the Adam rule, the clip and ZeroGrad
// written out over them. Slot storage must leave exactly its bits.
type denseOracle struct {
	w, g, m, v *tensor.Mat
	rows       rowRef
	step       int
}

func newDenseOracle(p *Param) *denseOracle {
	r, c := p.W.Rows, p.W.Cols
	return &denseOracle{w: p.W.Clone(), g: tensor.NewMat(r, c), m: tensor.NewMat(r, c), v: tensor.NewMat(r, c), rows: rowRef{}}
}

func (o *denseOracle) touch(r int, scale float64, dir tensor.Vec) {
	o.g.Row(r).Axpy(scale, dir)
	o.rows[int32(r)] = true
}

// addSqNorm adds the squares of the touched rows' gradient, rows ascending.
func (o *denseOracle) addSqNorm(t float64) float64 {
	for _, r := range o.rows.sorted() {
		for _, g := range o.g.Row(int(r)) {
			t += g * g
		}
	}
	return t
}

func (o *denseOracle) scale(s float64) {
	for _, r := range o.rows.sorted() {
		o.g.Row(int(r)).Scale(s)
	}
}

// adam is one Adam step with opt's hyper-parameters over the touched rows.
func (o *denseOracle) adam(opt *Adam) {
	o.step++
	b1c := 1 - math.Pow(opt.Beta1, float64(o.step))
	b2c := 1 - math.Pow(opt.Beta2, float64(o.step))
	for _, r := range o.rows.sorted() {
		w, g, m, v := o.w.Row(int(r)), o.g.Row(int(r)), o.m.Row(int(r)), o.v.Row(int(r))
		for i, gi := range g {
			if opt.WeightDecay != 0 {
				gi += opt.WeightDecay * w[i]
			}
			m[i] = opt.Beta1*m[i] + (1-opt.Beta1)*gi
			v[i] = opt.Beta2*v[i] + (1-opt.Beta2)*gi*gi
			mh := m[i] / b1c
			vh := v[i] / b2c
			w[i] -= opt.LR * mh / (math.Sqrt(vh) + opt.Eps)
		}
	}
}

func (o *denseOracle) zero() {
	o.g.Zero()
	clear(o.rows)
}

// TestSlotStateMatchesDenseOracle drives a sparse-tracked parameter of 200
// rows (four slab chunks) and a dense one through seeded windows — 1–90
// touches each in random row order, rows repeated within and across windows —
// with weight decay on or off per seed and a clip threshold that every other
// window sits below the norm. After each window's backward, clip, Adam step
// and ZeroGrad it requires the dense oracle's bits: the gradient, GradNorm,
// the weights, and Adam's m and v, read through the row's slot (zero for a
// row without one).
func TestSlotStateMatchesDenseOracle(t *testing.T) {
	const rows, cols = 200, 3
	chunked := 0
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sp, dn := NewParam("sparse", rows, cols), NewParam("dense", 2, cols)
		sp.TrackRows()
		sp.W.FillGaussian(rng, 1)
		dn.W.FillGaussian(rng, 1)
		ps := ParamSet{Mats: []*Block{&sp.Block, &dn.Block}}
		opt := NewAdam(0.01)
		if seed%2 == 0 {
			opt.WeightDecay = 1e-3
		}
		o := newDenseOracle(sp)
		moments := func(r int) (m, v []float64) {
			if sp.slots[r] == 0 {
				return make([]float64, cols), make([]float64, cols)
			}
			_, m, v = sp.slotRow(int32(r))
			return m, v
		}
		check := func(when string) {
			t.Helper()
			sameBits(t, when+": gradient", gradDense(sp), o.g.Data)
			sameBits(t, when+": weights", sp.W.Data, o.w.Data)
			want := o.addSqNorm(0)
			for _, g := range dn.Grad().Data {
				want += g * g
			}
			sameBits(t, when+": GradNorm", []float64{ps.GradNorm()}, []float64{math.Sqrt(want)})
		}
		for window := 0; window < 8; window++ {
			when := fmt.Sprintf("seed %d window %d", seed, window)
			for n := 1 + rng.Intn(90); n > 0; n-- {
				r, s := rng.Intn(rows), rng.NormFloat64()
				dir := tensor.Vec{rng.NormFloat64(), 1, -0.5}
				sp.touch(r).Axpy(s, dir)
				o.touch(r, s, dir)
				dn.Grad().Data[rng.Intn(2*cols)] += rng.NormFloat64()
			}
			check(when + " after backward")
			norm := ps.GradNorm()
			max := 2 * norm
			if window%2 == int(seed%2) {
				max = norm / 3
				o.scale(max / norm)
			}
			ps.ClipGradNorm(max)
			check(when + " after clip")
			opt.Step(&ps)
			o.adam(opt)
			check(when + " after Adam")
			for r := 0; r < rows; r++ {
				m, v := moments(r)
				sameBits(t, fmt.Sprintf("%s: m of row %d", when, r), m, o.m.Row(r))
				sameBits(t, fmt.Sprintf("%s: v of row %d", when, r), v, o.v.Row(r))
			}
			ps.ZeroGrad()
			o.zero()
			check(when + " after ZeroGrad")
		}
		if len(sp.state) != (sp.nslots+slabRows-1)/slabRows {
			t.Fatalf("seed %d: %d slots in %d chunks", seed, sp.nslots, len(sp.state))
		}
		if sp.nslots > slabRows {
			chunked++
		}
	}
	if chunked == 0 {
		t.Fatal("no seed gave out more slots than one chunk holds")
	}
}
