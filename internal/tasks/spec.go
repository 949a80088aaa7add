// Package tasks defines the seven data preparation tasks of Section III
// (EM, DI, SM, ED, DC, CTA, AVE): their prompt templates in the Jellyfish
// style of Listing 1, candidate-answer semantics, evaluation metrics, and —
// central to the AKB component — the executable Knowledge representation
// that dataset-informed knowledge compiles to.
package tasks

import "fmt"

// Kind identifies a data preparation task.
type Kind string

// The seven tasks of the paper. ED/DI/SM/EM are upstream tasks; CTA/AVE/DC
// are the novel downstream tasks.
const (
	EM  Kind = "EM"  // entity matching (binary)
	DI  Kind = "DI"  // data imputation (generation)
	SM  Kind = "SM"  // schema matching (binary)
	ED  Kind = "ED"  // error detection (binary)
	DC  Kind = "DC"  // data cleaning (generation)
	CTA Kind = "CTA" // column type annotation (multi-class)
	AVE Kind = "AVE" // attribute value extraction (generation)
)

// All lists every task kind in the paper's presentation order.
func All() []Kind { return []Kind{ED, DI, SM, EM, CTA, AVE, DC} }

// Binary answers shared by EM, SM and ED.
const (
	AnswerYes = "yes"
	AnswerNo  = "no"
	// AnswerNA is the abstention answer for extraction tasks.
	AnswerNA = "n/a"
)

// MetricKind selects the evaluation metric for a task (Section VII-A).
type MetricKind string

const (
	MetricAccuracy MetricKind = "accuracy"  // DI
	MetricBinaryF1 MetricKind = "binary-F1" // EM, ED, SM
	MetricMicroF1  MetricKind = "micro-F1"  // CTA
	MetricValueF1  MetricKind = "value-F1"  // AVE, DC
)

// Spec describes one task: its prompt scaffolding and metric.
type Spec struct {
	Kind        Kind
	Description string
	Question    string
	Metric      MetricKind
}

// specs holds the task prompt templates, adapted from the Jellyfish
// benchmark templates the paper reuses (Appendix B).
var specs = map[Kind]Spec{
	ED: {
		Kind: ED,
		Description: "Your task is to determine if there is an error in the value of a " +
			"specific attribute within the whole record provided. Errors may include, but " +
			"are not limited to, spelling errors, missing values, inconsistencies, or values " +
			"that don't make sense given the context of the whole record.",
		Question: "Is there an error in the value of the target attribute? Choose your answer from: [Yes, No]",
		Metric:   MetricBinaryF1,
	},
	DI: {
		Kind: DI,
		Description: "Your task is to infer the missing value of a specific attribute of " +
			"the record, based on the other attribute values in the same record.",
		Question: "What is the most likely value of the missing attribute?",
		Metric:   MetricAccuracy,
	},
	SM: {
		Kind: SM,
		Description: "Your task is to determine whether a pair of column names, each with " +
			"its description, refer to the same attribute (are semantically equivalent).",
		Question: "Do the two columns refer to the same attribute? Choose your answer from: [Yes, No]",
		Metric:   MetricBinaryF1,
	},
	EM: {
		Kind: EM,
		Description: "Your task is to determine whether the two records refer to the same " +
			"real-world entity, comparing their attribute values.",
		Question: "Do the two records refer to the same entity? Choose your answer from: [Yes, No]",
		Metric:   MetricBinaryF1,
	},
	DC: {
		Kind: DC,
		Description: "Your task is to correct the erroneous value of a specific attribute " +
			"within the record, based on the other attribute values in the same record.",
		Question: "What is the corrected value of the target attribute?",
		Metric:   MetricValueF1,
	},
	CTA: {
		Kind: CTA,
		Description: "Your task is to assign a semantic type to the entire column based on " +
			"the sample of cell values provided.",
		Question: "Which semantic type best describes the column?",
		Metric:   MetricMicroF1,
	},
	AVE: {
		Kind: AVE,
		Description: "Your task is to extract the value of the target attribute from the " +
			"product text. If the attribute is not present, answer n/a.",
		Question: "What is the value of the target attribute in the text?",
		Metric:   MetricValueF1,
	},
}

// SpecFor returns the Spec of a task kind; it panics on an unknown kind so
// misconfigured experiments fail loudly.
func SpecFor(k Kind) Spec {
	s, ok := specs[k]
	if !ok {
		panic(fmt.Sprintf("tasks: unknown task kind %q", k))
	}
	return s
}

// Spec returns the task's Spec; it panics on an unknown kind.
func (k Kind) Spec() Spec { return SpecFor(k) }

// IsBinary reports whether the task is a yes/no classification.
func (k Kind) IsBinary() bool { return k == EM || k == SM || k == ED }
