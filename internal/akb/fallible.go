package akb

import (
	"context"
	"math"

	"repro/internal/tasks"
)

// FallibleOracle is the error-returning face of the closed-source LLM: the
// interface a production client backed by a remote API implements. Every
// method takes a context and may fail — SearchFallible degrades gracefully
// instead of assuming the oracle is infallible the way the plain Oracle
// interface does.
//
// internal/resilience wraps any FallibleOracle with retries and a circuit
// breaker; internal/faults turns an infallible Oracle into a FallibleOracle
// that injects a deterministic fault schedule for chaos testing.
type FallibleOracle interface {
	Generate(ctx context.Context, req GenerateRequest) ([]*tasks.Knowledge, error)
	Feedback(ctx context.Context, req FeedbackRequest) (string, error)
	Refine(ctx context.Context, req RefineRequest) ([]*tasks.Knowledge, error)
}

// infallible adapts a plain Oracle (which cannot fail) to FallibleOracle,
// so the search has a single error-aware code path.
type infallible struct{ o Oracle }

func (a infallible) Generate(_ context.Context, req GenerateRequest) ([]*tasks.Knowledge, error) {
	return a.o.Generate(req), nil
}

func (a infallible) Feedback(_ context.Context, req FeedbackRequest) (string, error) {
	return a.o.Feedback(req), nil
}

func (a infallible) Refine(_ context.Context, req RefineRequest) ([]*tasks.Knowledge, error) {
	return a.o.Refine(req), nil
}

// AsFallible wraps a plain Oracle in the error-returning interface. (The
// two interfaces are mutually exclusive — same method names, different
// signatures — so no dynamic check is possible or needed.)
func AsFallible(o Oracle) FallibleOracle {
	return infallible{o: o}
}

// MaxKnowledgeText caps the prose channel of an oracle-returned candidate.
// Legitimate knowledge text is a few hundred bytes; anything beyond this is
// a runaway or corrupted response and is truncated before it can blow up
// prompt construction.
const MaxKnowledgeText = 1 << 16

// SanitizeCandidates validates a candidate list returned by an oracle
// before it reaches Evaluate. It drops nil entries, removes rules whose
// weight is not a finite non-negative number (a NaN weight would poison
// every informativeness tie-break downstream), clamps weights to [0, 1],
// truncates oversized knowledge text, and rejects candidates whose content
// was entirely malformed. Healthy candidates pass through untouched (same
// pointers), so the well-behaved path is allocation-free; repairs operate
// on clones, never on the oracle's own objects. It returns the kept
// candidates and the number rejected outright.
func SanitizeCandidates(ks []*tasks.Knowledge) (kept []*tasks.Knowledge, rejected int) {
	if len(ks) == 0 {
		return ks, 0
	}
	kept = make([]*tasks.Knowledge, 0, len(ks))
	for _, k := range ks {
		if k == nil {
			// The no-knowledge baseline is always in the pool already.
			rejected++
			continue
		}
		s, ok := sanitizeKnowledge(k)
		if !ok {
			rejected++
			continue
		}
		kept = append(kept, s)
	}
	return kept, rejected
}

// sanitizeKnowledge returns a safe version of k (k itself when already
// clean) or ok=false when nothing salvageable remains of a malformed
// candidate.
func sanitizeKnowledge(k *tasks.Knowledge) (*tasks.Knowledge, bool) {
	dirty := len(k.Text) > MaxKnowledgeText
	for _, r := range k.Rules {
		if badWeight(r.Weight) {
			dirty = true
			break
		}
	}
	if !dirty {
		return k, true
	}
	s := k.Clone()
	if len(s.Text) > MaxKnowledgeText {
		s.Text = s.Text[:MaxKnowledgeText]
	}
	rules := s.Rules[:0]
	for _, r := range s.Rules {
		if math.IsNaN(r.Weight) || math.IsInf(r.Weight, 0) || r.Weight < 0 {
			continue // unrepairable: drop the rule
		}
		if r.Weight > 1 {
			r.Weight = 1
		}
		rules = append(rules, r)
	}
	s.Rules = rules
	if s.Empty() && !k.Empty() {
		// Every channel of a non-empty candidate was malformed: reject it
		// rather than add a duplicate of the empty baseline.
		return nil, false
	}
	return s, true
}

func badWeight(w float64) bool {
	return math.IsNaN(w) || math.IsInf(w, 0) || w < 0 || w > 1
}
