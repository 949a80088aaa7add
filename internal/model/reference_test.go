package model

import (
	"math"

	"repro/internal/nn"
	"repro/internal/tasks"
	"repro/internal/tensor"
)

// referenceScores is the per-example kernel ScoresBatch is compared against:
// the training forward Step runs (forwardInput, then forwardCand per
// candidate, one dot each), with no batching, no candidate dedup and no
// pooled scratch. It returns a fresh slice.
func referenceScores(m *Model, ex *tasks.Example) []float64 {
	var x tensor.Sparse
	b := m.checkout()
	defer m.checkin(b)
	b.enc.EncodeTo(&x, ex.Segments)
	f := m.forwardInput(&x)
	inv := 1 / math.Sqrt(float64(m.Cfg.Hidden))
	scores := make([]float64, len(ex.Candidates))
	for k, c := range ex.Candidates {
		s := f.Dot(m.forwardCand(b.encodeCand(c))) * inv
		if ex.Hints != nil {
			s += m.Trust.Val * ex.Hints[k]
		}
		scores[k] = s
	}
	return scores
}

// referenceLoss is the softmax cross-entropy of an example without touching
// gradients — what the finite-difference gradient checks perturb.
func referenceLoss(m *Model, ex *tasks.Example) float64 {
	scores := referenceScores(m, ex)
	return nn.SoftmaxCE(scores, ex.Gold, make(tensor.Vec, len(scores)))
}

// one wraps a single example as the n = 1 batch every per-example caller
// hands the inference path.
func one(ex *tasks.Example) []*tasks.Example { return []*tasks.Example{ex} }
