package model

import (
	"fmt"
	"math"

	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/tasks"
	"repro/internal/tensor"
)

// This file is the inference path, for any batch size n ≥ 1: one forward pass
// over a whole micro-batch of examples, with the union of candidate strings
// encoded once and each layer's matmul done once for the batch. Row by row it
// performs the float64 arithmetic of the training forward (forwardInput /
// forwardCand) in the same order; the reference kernel in the tests is built
// from that forward and the equivalence suite compares bit for bit.

// evalBatch bounds the internal batch size of PredictBatchWith so scratch
// matrices stay small regardless of dataset size.
const evalBatch = 64

// batchScratch owns every reusable buffer of the inference path. A Model is
// not safe for concurrent use — on the serve path the per-adapter batcher is
// the serialization point — so single ownership is enough.
type batchScratch struct {
	pool  tensor.Pool
	encs  []*tensor.Sparse // per-slot input encodings
	uniq  map[string]int   // candidate string -> column in G
	cands []*tensor.Sparse // unique candidate encodings, first-seen order

	flat   tensor.Vec  // backing store for per-example score rows
	scores [][]float64 // views into flat, one per example

	idxs    []int           // PredictBatch result scratch
	exs     []tasks.Example // PredictBatchWith example scratch
	exptrs  []*tasks.Example
	answers []string
}

func (m *Model) batchScratch() *batchScratch {
	if m.batch == nil {
		m.batch = &batchScratch{uniq: make(map[string]int)}
	}
	return m.batch
}

// Argmax returns the index of the maximum score, skipping NaNs (a NaN in slot
// 0 would otherwise poison every comparison and silently elect candidate 0),
// with ties broken deterministically toward the lower index. It also reports
// how many scores were NaN; when every score is NaN it falls back to
// candidate 0.
func Argmax(scores []float64) (best, nans int) {
	best = -1
	for k, s := range scores {
		if math.IsNaN(s) {
			nans++
			continue
		}
		if best < 0 || s > scores[best] {
			best = k
		}
	}
	if best < 0 {
		best = 0
	}
	return best, nans
}

// ScoresBatch runs one forward pass over exs (any n ≥ 1) and returns one raw
// candidate-score slice per example. The returned slices are scratch reused
// across calls. Candidate strings repeated across the batch are encoded and
// forwarded once. It panics on an example without candidates.
func (m *Model) ScoresBatch(exs []*tasks.Example) [][]float64 {
	n := len(exs)
	if n == 0 {
		return nil
	}
	m.Rec.Count("model.forward", int64(n))
	m.Rec.Count("model.batch_forward", 1)
	b := m.batchScratch()
	h := m.Cfg.Hidden

	// Encode every input into reused per-slot sparse vectors.
	for len(b.encs) < n {
		b.encs = append(b.encs, &tensor.Sparse{})
	}
	enc := m.encoder()
	for i, ex := range exs {
		if len(ex.Candidates) == 0 {
			panic(fmt.Sprintf("model: example %q has no candidates", ex.Prompt))
		}
		enc.EncodeTo(b.encs[i], ex.Segments)
	}

	// Input tower, one matmul per layer for the whole batch.
	H := b.pool.GetMat(n, h)
	m.inEmb.ForwardBatch(b.encs[:n], H, &b.pool)
	nn.TanhMat(H)
	F := b.pool.GetMat(n, h)
	m.inDense.ForwardBatch(H, F, &b.pool)
	nn.TanhMat(F)
	b.pool.PutMat(H)

	// Deduplicate the union of candidate strings across the batch and encode
	// each unique candidate once (through the candidate cache training
	// shares).
	clear(b.uniq)
	b.cands = b.cands[:0]
	total := 0
	for _, ex := range exs {
		total += len(ex.Candidates)
		for _, c := range ex.Candidates {
			if _, ok := b.uniq[c]; !ok {
				b.uniq[c] = len(b.cands)
				b.cands = append(b.cands, m.encodeCand(c))
			}
		}
	}
	u := len(b.cands)
	CH := b.pool.GetMat(u, h)
	m.candEmb.ForwardBatch(b.cands, CH, &b.pool)
	nn.TanhMat(CH)
	G := b.pool.GetMat(u, h)
	m.candDense.ForwardBatch(CH, G, &b.pool)
	nn.TanhMat(G)
	b.pool.PutMat(CH)

	// One Gram product scores every (input, unique candidate) pair; each
	// entry is the same register-accumulated dot Step computes.
	S := b.pool.GetMat(n, u)
	tensor.MatMulNT(F, G, S)
	b.pool.PutMat(F)
	b.pool.PutMat(G)

	// Gather per-example rows in Step's op order: dot, then *inv, then
	// + trust·hint.
	inv := 1 / math.Sqrt(float64(m.Cfg.Hidden))
	if cap(b.flat) < total {
		b.flat = tensor.NewVec(total)
	}
	b.scores = b.scores[:0]
	flat := b.flat[:0]
	for i, ex := range exs {
		row := S.Row(i)
		lo := len(flat)
		for k, c := range ex.Candidates {
			s := row[b.uniq[c]] * inv
			if ex.Hints != nil {
				s += m.Trust.Val * ex.Hints[k]
			}
			flat = append(flat, s)
		}
		b.scores = append(b.scores, flat[lo:len(flat):len(flat)])
	}
	b.pool.PutMat(S)
	return b.scores
}

// PredictBatch returns the highest-scoring candidate's index for each example
// via one forward pass. NaN scores are skipped (see Argmax) and counted in
// model.nan_scores.
func (m *Model) PredictBatch(exs []*tasks.Example) []int {
	scores := m.ScoresBatch(exs)
	m.Rec.Count("model.predict", int64(len(exs)))
	b := m.batchScratch()
	b.idxs = b.idxs[:0]
	nans := 0
	for _, sc := range scores {
		best, bad := Argmax(sc)
		nans += bad
		b.idxs = append(b.idxs, best)
	}
	if nans > 0 {
		m.Rec.Count("model.nan_scores", int64(nans))
	}
	return b.idxs
}

// PredictBatchWith serializes instances under the given knowledge (without
// rendering prompts) and predicts them in batches of evalBatch. The returned
// slice is scratch reused across calls. It satisfies akb.Predictor.
func (m *Model) PredictBatchWith(spec tasks.Spec, ins []*data.Instance, k *tasks.Knowledge) []string {
	b := m.batchScratch()
	if cap(b.answers) < len(ins) {
		b.answers = make([]string, 0, len(ins))
	}
	b.answers = b.answers[:0]
	for lo := 0; lo < len(ins); lo += evalBatch {
		hi := lo + evalBatch
		if hi > len(ins) {
			hi = len(ins)
		}
		chunk := ins[lo:hi]
		for len(b.exs) < len(chunk) {
			b.exs = append(b.exs, tasks.Example{})
			b.exptrs = append(b.exptrs, nil)
		}
		exptrs := b.exptrs[:len(chunk)]
		for i, in := range chunk {
			tasks.BuildExampleInto(&b.exs[i], spec, in, k)
			exptrs[i] = &b.exs[i]
		}
		for i, best := range m.PredictBatch(exptrs) {
			b.answers = append(b.answers, exptrs[i].Candidates[best])
		}
	}
	return b.answers
}
