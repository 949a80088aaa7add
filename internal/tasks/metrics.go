package tasks

import (
	"fmt"
	"strings"
)

// Metric accumulates (prediction, gold) pairs and produces the task score on
// the paper's 100-point scale (Section VII-A: accuracy for DI; binary F1 for
// EM/ED/SM/DC/AVE-style tasks; micro-F1 for CTA).
type Metric interface {
	Add(pred, gold string)
	Score() float64
}

// NewMetric constructs the metric for a kind; it panics on an unknown kind.
func NewMetric(kind MetricKind) Metric {
	switch kind {
	case MetricAccuracy:
		return &accuracy{}
	case MetricBinaryF1:
		return &binaryF1{}
	case MetricMicroF1:
		return &microF1{}
	case MetricValueF1:
		return &valueF1{}
	default:
		panic(fmt.Sprintf("tasks: unknown metric %q", kind))
	}
}

func norm(s string) string { return strings.ToLower(strings.TrimSpace(s)) }

type accuracy struct{ correct, total int }

func (m *accuracy) Add(pred, gold string) {
	m.total++
	if norm(pred) == norm(gold) {
		m.correct++
	}
}

func (m *accuracy) Score() float64 {
	if m.total == 0 {
		return 0
	}
	return 100 * float64(m.correct) / float64(m.total)
}

// binaryF1 is the F1 of the positive ("yes") class.
type binaryF1 struct{ tp, fp, fn int }

func (m *binaryF1) Add(pred, gold string) {
	p := norm(pred) == AnswerYes
	g := norm(gold) == AnswerYes
	switch {
	case p && g:
		m.tp++
	case p && !g:
		m.fp++
	case !p && g:
		m.fn++
	}
}

func (m *binaryF1) Score() float64 { return f1(m.tp, m.fp, m.fn) }

// microF1 pools TP/FP/FN over all classes. For single-label predictions it
// coincides with accuracy, which is why the paper's CTA numbers read like
// accuracies; we implement the pooled form for fidelity.
type microF1 struct{ tp, fpfn int }

func (m *microF1) Add(pred, gold string) {
	if norm(pred) == norm(gold) {
		m.tp++
	} else {
		// A wrong single-label prediction is one FP (for the predicted
		// class) and one FN (for the gold class).
		m.fpfn += 2
	}
}

func (m *microF1) Score() float64 {
	denom := 2*m.tp + m.fpfn
	if denom == 0 {
		return 0
	}
	return 100 * 2 * float64(m.tp) / float64(denom)
}

// valueF1 scores extraction/correction tasks where "n/a" is abstention:
// precision over non-n/a predictions, recall over non-n/a golds.
type valueF1 struct{ tp, fp, fn int }

func (m *valueF1) Add(pred, gold string) {
	p, g := norm(pred), norm(gold)
	predNA := p == AnswerNA || p == ""
	goldNA := g == AnswerNA || g == ""
	switch {
	case !predNA && !goldNA && p == g:
		m.tp++
	case !predNA && (goldNA || p != g):
		m.fp++
		if !goldNA {
			m.fn++
		}
	case predNA && !goldNA:
		m.fn++
	}
}

func (m *valueF1) Score() float64 { return f1(m.tp, m.fp, m.fn) }

func f1(tp, fp, fn int) float64 {
	denom := 2*tp + fp + fn
	if denom == 0 {
		return 0
	}
	return 100 * 2 * float64(tp) / float64(denom)
}

// Score evaluates a batch of (pred, gold) pairs with the metric of the kind.
func Score(kind MetricKind, preds, golds []string) float64 {
	if len(preds) != len(golds) {
		panic("tasks: preds/golds length mismatch")
	}
	m := NewMetric(kind)
	for i := range preds {
		m.Add(preds[i], golds[i])
	}
	return m.Score()
}
