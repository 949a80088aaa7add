package model

import (
	"fmt"
	"math"

	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/tasks"
	"repro/internal/tensor"
	"repro/internal/text"
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

// batchScratch is the unit of ownership of the inference path: everything a
// forward mutates — the streaming encoder, the candidate-encoding memo, the
// tensor pool and the example/score/index buffers — lives here, one scratch
// per call in flight, while the weights it reads stay shared on the Model.
type batchScratch struct {
	pool  tensor.Pool
	enc   *text.Encoder
	memo  map[string]*tensor.Sparse // candidate string -> encoding, kept across calls
	encs  []*tensor.Sparse          // per-slot input encodings
	uniq  map[string]int            // candidate string -> column in G
	cands []*tensor.Sparse          // unique candidate encodings, first-seen order

	flat   tensor.Vec  // backing store for per-example score rows
	scores [][]float64 // views into flat, one per example

	idxs   []int           // predictBatch result scratch
	exs    []tasks.Example // PredictBatchWith example scratch
	exptrs []*tasks.Example
}

// checkout takes a scratch off the model's free list, making one only when
// every existing scratch is in use — so the list never grows past the peak
// number of concurrent callers. It is a mutex-guarded slice, not a sync.Pool:
// a GC must not turn the next forward into a re-allocation of the encoder.
func (m *Model) checkout() *batchScratch {
	var b *batchScratch
	m.mu.Lock()
	if n := len(m.free); n > 0 {
		b, m.free = m.free[n-1], m.free[:n-1]
	}
	m.mu.Unlock()
	if b == nil {
		b = &batchScratch{
			enc:  text.NewEncoder(m.Hasher),
			memo: make(map[string]*tensor.Sparse),
			uniq: make(map[string]int),
		}
	}
	return b
}

func (m *Model) checkin(b *batchScratch) {
	m.mu.Lock()
	m.free = append(m.free, b)
	m.mu.Unlock()
}

// owned returns the scratch the model's single owner keeps checked out
// between calls: ScoresBatch and PredictBatch hand back views into it.
func (m *Model) owned() *batchScratch {
	if m.own == nil {
		m.own = m.checkout()
	}
	return m.own
}

// encodeCand returns the encoding of candidate string c, memoized on the
// scratch (an encoding depends on the hasher only, never on weights).
func (b *batchScratch) encodeCand(c string) *tensor.Sparse {
	if v, ok := b.memo[c]; ok {
		return v
	}
	v := &tensor.Sparse{}
	b.enc.EncodeTo(v, []text.Segment{{Text: c, Weight: 1}})
	if len(b.memo) > 1<<16 {
		b.memo = make(map[string]*tensor.Sparse)
	}
	b.memo[c] = v
	return v
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
// candidate-score slice per example. The returned slices are the owner's
// scratch, reused across calls. Candidate strings repeated across the batch
// are encoded and forwarded once. It panics on an example without candidates.
func (m *Model) ScoresBatch(exs []*tasks.Example) [][]float64 {
	return m.scoresBatch(m.owned(), exs)
}

func (m *Model) scoresBatch(b *batchScratch, exs []*tasks.Example) [][]float64 {
	n := len(exs)
	if n == 0 {
		return nil
	}
	m.Rec.Count("model.forward", int64(n))
	m.Rec.Count("model.batch_forward", 1)
	h := m.Cfg.Hidden

	// Encode every input into reused per-slot sparse vectors.
	for len(b.encs) < n {
		b.encs = append(b.encs, &tensor.Sparse{})
	}
	for i, ex := range exs {
		if len(ex.Candidates) == 0 {
			panic(fmt.Sprintf("model: example %q has no candidates", ex.Prompt))
		}
		b.enc.EncodeTo(b.encs[i], ex.Segments)
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
	// each unique candidate once (through the scratch's memo).
	clear(b.uniq)
	b.cands = b.cands[:0]
	total := 0
	for _, ex := range exs {
		total += len(ex.Candidates)
		for _, c := range ex.Candidates {
			if _, ok := b.uniq[c]; !ok {
				b.uniq[c] = len(b.cands)
				b.cands = append(b.cands, b.encodeCand(c))
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
// model.nan_scores. The returned slice is the owner's scratch.
func (m *Model) PredictBatch(exs []*tasks.Example) []int {
	return m.predictBatch(m.owned(), exs)
}

func (m *Model) predictBatch(b *batchScratch, exs []*tasks.Example) []int {
	scores := m.scoresBatch(b, exs)
	m.Rec.Count("model.predict", int64(len(exs)))
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
// rendering prompts) and predicts them in batches of evalBatch. It is safe
// for concurrent callers — each call runs on a scratch of its own, checked
// out for the duration — and the returned slice belongs to the caller. It
// satisfies akb.Predictor.
func (m *Model) PredictBatchWith(spec tasks.Spec, ins []*data.Instance, k *tasks.Knowledge) []string {
	b := m.checkout()
	defer m.checkin(b)
	answers := make([]string, 0, len(ins))
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
		for i, best := range m.predictBatch(b, exptrs) {
			answers = append(answers, exptrs[i].Candidates[best])
		}
	}
	return answers
}
