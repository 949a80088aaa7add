package model

import (
	"math"

	"repro/internal/nn"
	"repro/internal/tasks"
	"repro/internal/tensor"
)

// referenceScores is the per-example kernel the forward is compared against:
// the input and then every candidate sent through its tower alone as a
// one-row ForwardBatch, one dot each — no batching, no candidate dedup, no
// shared scratch. It returns a fresh slice.
func referenceScores(m *Model, ex *tasks.Example) []float64 {
	b := m.checkout()
	defer m.checkin(b)
	var x tensor.Sparse
	b.enc.EncodeTo(&x, ex.Segments)
	f := referenceTower(m.inEmb, m.inDense, &x)
	inv := 1 / math.Sqrt(float64(m.Cfg.Hidden))
	scores := make([]float64, len(ex.Candidates))
	for k, c := range ex.Candidates {
		s := f.Dot(referenceTower(m.candEmb, m.candDense, b.encodeCand(c))) * inv
		if ex.Hints != nil {
			s += m.Trust.Val * ex.Hints[k]
		}
		scores[k] = s
	}
	return scores
}

// referenceTower is tanh(dense(tanh(emb(x)))) for one row.
func referenceTower(emb *nn.Embedding, dense *nn.Dense, x *tensor.Sparse) tensor.Vec {
	var pool tensor.Pool
	h, y := tensor.NewMat(1, emb.Hidden()), tensor.NewMat(1, dense.Out())
	emb.ForwardBatch([]*tensor.Sparse{x}, h, &pool)
	nn.TanhMat(h)
	dense.ForwardBatch(h, y, &pool)
	nn.TanhMat(y)
	return y.Row(0)
}

// referenceLoss is the softmax cross-entropy of an example without touching
// gradients — what the finite-difference gradient checks perturb.
func referenceLoss(m *Model, ex *tasks.Example) float64 {
	scores := referenceScores(m, ex)
	return nn.SoftmaxCE(scores, ex.Gold, make(tensor.Vec, len(scores)))
}

// one wraps a single example as the n = 1 batch every per-example caller
// hands the forward.
func one(ex *tasks.Example) []*tasks.Example { return []*tasks.Example{ex} }
