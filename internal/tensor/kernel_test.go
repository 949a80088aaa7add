package tensor

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// The naive loops below are the arithmetic the kernels replaced, each with
// its caller's zero-coefficient skip: one y += a·row per term. The kernels must
// match them bit for bit. Their products are written float64(x * y) like the
// kernels', so that no GOARCH fuses the reference either.

func naiveAxpy(v Vec, a float64, w Vec) {
	if a == 0 {
		return
	}
	for i, x := range w {
		v[i] += float64(a * x)
	}
}

func naiveMulVecT(m *Mat, x, y Vec) {
	y.Zero()
	for i := 0; i < m.Rows; i++ {
		a := x[i]
		if a == 0 {
			continue
		}
		for j, w := range m.Row(i) {
			y[j] += float64(a * w)
		}
	}
}

func naiveRankOne(m *Mat, a float64, u, v Vec) {
	if a == 0 {
		return
	}
	for i := 0; i < m.Rows; i++ {
		s := a * u[i]
		if s == 0 {
			continue
		}
		row := m.Row(i)
		for j, x := range v {
			row[j] += float64(s * x)
		}
	}
}

func naiveMatMulNN(a, b, c *Mat) {
	c.Zero()
	for i := 0; i < a.Rows; i++ {
		crow := c.Row(i)
		for t, x := range a.Row(i) {
			if x == 0 {
				continue
			}
			for j, w := range b.Row(t) {
				crow[j] += float64(x * w)
			}
		}
	}
}

// specials are the values on which a reordered or fused loop would show:
// NaN, both infinities, both zeros, the smallest and a mid subnormal, and the
// largest finite value (whose sums overflow).
var specials = []float64{
	math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
	5e-324, -1e-310, math.MaxFloat64, -math.MaxFloat64,
}

// fill draws each element from specials one time in four and from a
// Gaussian otherwise.
func fill(rng *rand.Rand, v []float64) {
	for i := range v {
		if rng.Intn(4) == 0 {
			v[i] = specials[rng.Intn(len(specials))]
		} else {
			v[i] = rng.NormFloat64()
		}
	}
}

func randVec(rng *rand.Rand, n int) Vec {
	v := NewVec(n)
	fill(rng, v)
	return v
}

func randMat(rng *rand.Rand, r, c int) *Mat {
	m := NewMat(r, c)
	fill(rng, m.Data)
	return m
}

func requireBits(t *testing.T, label string, want, got []float64) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: length %d, naive loop %d", label, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
			t.Fatalf("%s: [%d] = %v (%#x), naive loop %v (%#x)", label, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestKernelsMatchNaiveLoops pins axpy, its callers and the rowSum kernels
// against the naive loops, bitwise, at every length 0–19 (every tail of the
// four-way unroll) with NaN, ±Inf, −0 and subnormals in the operands and in
// the coefficients. Zero coefficients meet NaN and ±Inf operands, and 0·NaN
// and 0·Inf are NaN, so a caller that lost its zero skip fails here.
func TestKernelsMatchNaiveLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	coefs := append([]float64{1, -2.5, 1e-300}, specials...)
	for n := 0; n < 20; n++ {
		for trial := 0; trial < 20; trial++ {
			a := coefs[rng.Intn(len(coefs))]
			if trial < len(coefs) {
				a = coefs[trial]
			}

			x, y := randVec(rng, n), randVec(rng, n)
			want, got := y.Clone(), y.Clone()
			for i, v := range x {
				want[i] += float64(a * v)
			}
			axpy(a, x, got)
			requireBits(t, "axpy", want, got)

			want, got = y.Clone(), y.Clone()
			naiveAxpy(want, a, x)
			got.Axpy(a, x)
			requireBits(t, "Vec.Axpy", want, got)

			m := randMat(rng, 5, n)
			u := randVec(rng, 5)
			wantY, gotY := randVec(rng, n), randVec(rng, n)
			naiveMulVecT(m, u, wantY)
			m.MulVecT(u, gotY)
			requireBits(t, "MulVecT", wantY, gotY)

			wantM, gotM := m.Clone(), m.Clone()
			naiveRankOne(wantM, a, u, x)
			gotM.RankOne(a, u, x)
			requireBits(t, "RankOne", wantM.Data, gotM.Data)

			p := randMat(rng, 3, 5)
			wantC, gotC := randMat(rng, 3, n), randMat(rng, 3, n)
			naiveMatMulNN(p, m, wantC)
			MatMulNN(p, m, gotC)
			requireBits(t, "MatMulNN", wantC.Data, gotC.Data)
		}
	}
}

// naiveAddRows is the gather AddRows replaced: one Vec.Axpy per feature.
func naiveAddRows(m *Mat, y Vec, idx []int32, val []float64) {
	for k, i := range idx {
		if val[k] == 0 {
			continue
		}
		for j, w := range m.Row(int(i)) {
			y[j] += float64(val[k] * w)
		}
	}
}

// sumCoefs are the coefficients the rowSum tests draw: both zeros (skipped),
// ordinary values, and the specials.
var sumCoefs = append([]float64{1, -2.5, 0.1, 1e-300, 3}, specials...)

// TestRowSumMatchesNaiveAxpy pins the blocked kernel through its three
// callers — AddRows, MulVecT and MatMulNN — against one naive axpy per term,
// at every term count 0–20 (a full pass of eight, then every 4-wide and
// single-term tail, twice over) and widths 0–9 and 13. Repeated indices,
// zero coefficients (both signs) against rows holding ±Inf and NaN, signed
// zeros and subnormals are all drawn; a zero coefficient must add nothing,
// and a NaN must carry the payload one axpy per term gives it.
func TestRowSumMatchesNaiveAxpy(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for _, width := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 13} {
		for terms := 0; terms <= 20; terms++ {
			for trial := 0; trial < 8; trial++ {
				m := randMat(rng, 6, width) // 6 rows: 20 terms repeat indices
				idx := make([]int32, terms)
				val := make([]float64, terms)
				for k := range idx {
					idx[k] = int32(rng.Intn(m.Rows))
					val[k] = sumCoefs[rng.Intn(len(sumCoefs))]
				}
				y := randVec(rng, width)
				want, got := y.Clone(), y.Clone()
				naiveAddRows(m, want, idx, val)
				m.AddRows(got, idx, val)
				requireBits(t, "AddRows", want, got)

				// The same coefficients as a dense x over a terms-row matrix.
				mt := randMat(rng, terms, width)
				wantY, gotY := randVec(rng, width), randVec(rng, width)
				naiveMulVecT(mt, val, wantY)
				mt.MulVecT(val, gotY)
				requireBits(t, "MulVecT", wantY, gotY)

				a := randMat(rng, 2, terms)
				copy(a.Row(1), val)
				wantC, gotC := randMat(rng, 2, width), randMat(rng, 2, width)
				naiveMatMulNN(a, mt, wantC)
				MatMulNN(a, mt, gotC)
				requireBits(t, "MatMulNN", wantC.Data, gotC.Data)
			}
		}
	}
}

// FuzzAddRows drives AddRows with fuzzer-chosen gathers and checks each
// against one naive axpy per term, bitwise. The source
// matrix (eight rows) and y are drawn like the other kernel tests' operands,
// a quarter of them specials, so rows of ±Inf and NaN meet zero coefficients.
//
// Input layout: the first byte seeds the draws and picks the width (modulo
// 18); then two bytes per term — a row index (modulo 8) and a coefficient
// code whose value comes from addValues.
func FuzzAddRows(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{5, 0, 2, 1, 3})                                               // under four terms
	f.Add([]byte{4, 0, 2, 1, 3, 2, 4, 3, 8, 4, 9})                             // one 4-wide pass and a tail
	f.Add([]byte{13, 1, 2, 1, 3, 1, 4, 1, 5, 1, 6, 1, 7, 1, 8, 1, 9, 2, 0, 2}) // repeats, eight and one
	f.Add([]byte{7, 3, 0, 3, 1, 3, 13, 3, 15, 3, 0, 3, 1, 3, 14, 3, 2, 3, 3, 3, 10, 3, 11})
	f.Add([]byte{17, 0, 15, 1, 14, 2, 13, 3, 12, 4, 11, 5, 10, 6, 9, 7, 8, 0, 7, 1, 6, 2, 5, 3, 4})
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) == 0 {
			return
		}
		width := int(in[0]) % 18
		rng := rand.New(rand.NewSource(int64(in[0])))
		m := randMat(rng, 8, width)
		y := randVec(rng, width)
		var idx []int32
		var val []float64
		for op := in[1:]; len(op) >= 2; op = op[2:] {
			idx = append(idx, int32(op[0]%8))
			val = append(val, addValues[int(op[1])%len(addValues)])
		}
		want, got := y.Clone(), y.Clone()
		naiveAddRows(m, want, idx, val)
		m.AddRows(got, idx, val)
		requireBits(t, "AddRows", want, got)
	})
}

// FuzzDenseBuilder drives the builder with fuzzer-chosen Add sequences and
// checks every build against a map-and-sort reference, bitwise: indices
// unique and ascending, each slot summed in Add order from an explicit +0,
// exact-zero sums (a lone −0 among them) dropped. The same builders and
// destination are reused across builds and inputs, at dims 1, 63, 64, 65 and
// 8192 — one word, a word's edges, and the encoder's size.
//
// Input layout: three bytes per Add — a little-endian 16-bit index (taken
// modulo dim) and a value code, whose low bits pick a value from addValues
// and whose high bit builds and checks before the Add.
func FuzzDenseBuilder(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{5, 0, 2, 2, 0, 2, 5, 0, 3, 9, 0, 3, 9, 0, 2})     // merge, cancel to zero
	f.Add([]byte{7, 0, 1, 7, 0, 1, 8, 0, 0x81, 8, 0, 3})           // −0 + −0, then a build
	f.Add([]byte{63, 0, 2, 64, 0, 2, 62, 0, 4, 65, 0, 5, 0, 0, 6}) // word boundaries
	f.Add([]byte{1, 0, 10, 1, 0, 10, 1, 0, 11, 2, 0, 8, 2, 0, 12, 2, 0, 9})
	f.Add([]byte{0xff, 0x1f, 13, 0, 0, 14, 0xff, 0x1f, 0x8e, 0, 0, 15})
	dims := []int{1, 63, 64, 65, 8192}
	builders := make([]*DenseBuilder, len(dims))
	for i, d := range dims {
		builders[i] = NewDenseBuilder(d)
	}
	var dst Sparse
	f.Fuzz(func(t *testing.T, ops []byte) {
		for di, dim := range dims {
			b := builders[di]
			ref := map[int32]float64{}
			check := func() {
				t.Helper()
				b.BuildInto(&dst)
				requireMatchesReference(t, dim, ref, &dst)
				clear(ref)
			}
			for op := ops; len(op) >= 3; op = op[3:] {
				code := op[2]
				if code&0x80 != 0 {
					check()
				}
				idx := int32((int(op[0]) | int(op[1])<<8) % dim)
				v := addValues[int(code&0x7f)%len(addValues)]
				b.Add(idx, v)
				if _, ok := ref[idx]; !ok {
					ref[idx] = 0
				}
				ref[idx] += v
			}
			check()
			check() // an empty build after a build is empty
		}
	})
}

// addValues mixes exact cancellations (±1, ±0.25), −0, sums that depend on
// order (0.1, 3, the largest finite value) and the non-finite values.
var addValues = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.25, -0.25, 0.1, -0.1, 3, -3,
	math.MaxFloat64, -math.MaxFloat64, 5e-324, math.Inf(1), math.Inf(-1), math.NaN(),
}

func requireMatchesReference(t *testing.T, dim int, ref map[int32]float64, got *Sparse) {
	t.Helper()
	var want []int32
	for idx, v := range ref {
		if v != 0 {
			want = append(want, idx)
		}
	}
	slices.Sort(want)
	if len(got.Idx) != len(want) || len(got.Val) != len(want) {
		t.Fatalf("dim %d: built %d indices / %d values, reference %d (%v)", dim, len(got.Idx), len(got.Val), len(want), want)
	}
	for i, idx := range want {
		if got.Idx[i] != idx || math.Float64bits(got.Val[i]) != math.Float64bits(ref[idx]) {
			t.Fatalf("dim %d: entry %d = (%d, %v), reference (%d, %v)", dim, i, got.Idx[i], got.Val[i], idx, ref[idx])
		}
	}
}
