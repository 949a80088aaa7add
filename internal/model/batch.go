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

// This file is the one forward, for inference and training alike and for any
// batch size n ≥ 1: one pass over a whole micro-batch of examples, with the
// union of candidate strings encoded and forwarded once and each layer's
// matmul done once for the batch. Row by row it performs the float64
// arithmetic of each example sent through alone, in the same order; the
// reference kernel in the tests runs every example and every candidate as a
// one-row batch, and the equivalence suite compares bit for bit.

// evalBatch bounds the internal batch size of PredictBatchWith so scratch
// matrices stay small regardless of dataset size.
const evalBatch = 64

// batchScratch is the unit of ownership of a forward: everything one mutates —
// the streaming encoder, the candidate-encoding memo, the tensor pool, the
// example/score/index buffers and the activations a forward leaves for a
// backward — lives here, one scratch per call in flight, while the weights it
// reads stay shared on the Model.
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

	// acts is what the forward leaves for a backward; held lists every pool
	// matrix the call holds until release hands them back.
	acts  activations
	held  []*tensor.Mat
	pairs []pair
	xs    []*tensor.Sparse // per pair, the candidate's encoding
}

// activations is what a forward leaves for StepBatch's backward: each tower's
// two tanh outputs and each layer's tape (see nn.Embedding.ForwardTape).
type activations struct {
	h, f, ch, g *tensor.Mat
	tapes       [4]*tensor.Mat // in.emb, in.dense, cand.emb, cand.dense
}

// keep lists m, a pool matrix, for release.
func (b *batchScratch) keep(m *tensor.Mat) *tensor.Mat {
	b.held = append(b.held, m)
	return m
}

// hold draws a rows x cols matrix from the pool until release.
func (b *batchScratch) hold(rows, cols int) *tensor.Mat { return b.keep(b.pool.GetMat(rows, cols)) }

// release hands every held matrix back to the pool.
func (b *batchScratch) release() {
	for _, m := range b.held {
		b.pool.PutMat(m)
	}
	clear(b.held)
	b.held = b.held[:0]
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
	if len(exs) == 0 {
		return nil
	}
	m.Rec.Count("model.forward", int64(len(exs)))
	m.Rec.Count("model.batch_forward", 1)
	scores := m.scores(b, exs, m.forward(b, exs))
	b.release()
	return scores
}

// forward runs exs through both towers and returns S, one row per example of
// its dot with every unique candidate: b.cands in first-seen order, candidate
// string c in column b.uniq[c]; b.encs[:n] hold the inputs' encodings. What a
// backward reads stays in b.acts; every matrix, S included, is held until the
// caller's release — inference releases once the scores are read, a training
// step once its backward is done.
func (m *Model) forward(b *batchScratch, exs []*tasks.Example) *tensor.Mat {
	n, h, pool, a := len(exs), m.Cfg.Hidden, &b.pool, &b.acts

	// Encode every input into reused per-slot sparse vectors.
	for len(b.encs) < n {
		b.encs = append(b.encs, &tensor.Sparse{})
	}
	for i, ex := range exs {
		if len(ex.Candidates) == 0 {
			panic(fmt.Sprintf("model: example %d of a batch of %d has no candidates", i, n))
		}
		b.enc.EncodeTo(b.encs[i], ex.Segments)
	}

	// Input tower, one matmul per layer for the whole batch.
	a.h, a.f = b.hold(n, h), b.hold(n, h)
	a.tapes[0] = b.keep(m.inEmb.ForwardTape(b.encs[:n], a.h, pool))
	nn.TanhMat(a.h)
	a.tapes[1] = b.keep(m.inDense.ForwardTape(a.h, a.f, pool))
	nn.TanhMat(a.f)

	// Deduplicate the union of candidate strings across the batch and encode
	// each unique candidate once (through the scratch's memo). A repeated
	// forward would give the same bits, so a candidate shared by several
	// examples is one row.
	clear(b.uniq)
	b.cands = b.cands[:0]
	for _, ex := range exs {
		for _, c := range ex.Candidates {
			if _, ok := b.uniq[c]; !ok {
				b.uniq[c] = len(b.cands)
				b.cands = append(b.cands, b.encodeCand(c))
			}
		}
	}
	u := len(b.cands)
	a.ch, a.g = b.hold(u, h), b.hold(u, h)
	a.tapes[2] = b.keep(m.candEmb.ForwardTape(b.cands, a.ch, pool))
	nn.TanhMat(a.ch)
	a.tapes[3] = b.keep(m.candDense.ForwardTape(a.ch, a.g, pool))
	nn.TanhMat(a.g)

	// One Gram product scores every (input, unique candidate) pair; each
	// entry is the register-accumulated dot Vec.Dot computes.
	S := b.hold(n, u)
	tensor.MatMulNT(a.f, a.g, S)
	return S
}

// scores lays S out as one score slice per example, views into the scratch,
// each score in its fixed op order: dot, then *inv, then + trust·hint.
func (m *Model) scores(b *batchScratch, exs []*tasks.Example, S *tensor.Mat) [][]float64 {
	total := 0
	for _, ex := range exs {
		total += len(ex.Candidates)
	}
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
