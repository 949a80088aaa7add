package analyze

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// BenchExperiment is the machine-readable record of one experiment run,
// the unit of the repository's bench trajectory (BENCH_run.json). The
// writer lives in cmd/knowtrans; the type lives here so analysis tooling
// and CI gates can load the documents without importing the CLI.
type BenchExperiment struct {
	ID          string  `json:"id"`
	Title       string  `json:"title"`
	WallSeconds float64 `json:"wall_seconds"`
	Scale       float64 `json:"scale"`
	Reps        int     `json:"reps"`
	Seed        int64   `json:"seed"`
	Rows        int     `json:"rows"`
	// Metrics holds the per-column averages of the rendered table — the
	// headline numbers (method scores, costs, round curves) in a form a
	// tracking script can diff across runs without parsing tables.
	Metrics map[string]float64 `json:"metrics"`
}

// BenchRun is the top-level BENCH_run.json document.
type BenchRun struct {
	SchemaVersion int               `json:"schema_version"`
	GeneratedAt   string            `json:"generated_at"`
	Experiments   []BenchExperiment `json:"experiments"`
	TotalSeconds  float64           `json:"total_wall_seconds"`
}

// LoadBenchRun reads one BENCH_run.json document. A report document —
// {"schema_version": N, "report": {numeric leaves}}, the shape
// BENCH_allocs.json has — is accepted too (recognized by the absence of
// experiments): its numbers become the metrics of a synthetic
// one-experiment run, so `obs diff` gates them with the same machinery as
// experiment metrics.
func LoadBenchRun(path string) (*BenchRun, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("analyze: %w", err)
	}
	var doc struct {
		BenchRun
		Report map[string]any `json:"report"`
	}
	if err := json.Unmarshal(blob, &doc); err != nil {
		return nil, fmt.Errorf("analyze: %s: %w", path, err)
	}
	run := &doc.BenchRun
	if len(run.Experiments) == 0 {
		exp := BenchExperiment{ID: "report", Title: "report", Metrics: map[string]float64{}}
		for k, v := range doc.Report {
			if f, ok := v.(float64); ok { // non-numeric leaves are skipped
				exp.Metrics[k] = f
			}
		}
		if len(exp.Metrics) > 0 {
			run.Experiments = []BenchExperiment{exp}
		}
	}
	return run, nil
}

// DeltaClass classifies one metric comparison.
type DeltaClass string

const (
	DeltaUnchanged DeltaClass = "unchanged"
	DeltaImproved  DeltaClass = "improved"
	DeltaRegressed DeltaClass = "regressed"
	DeltaOnlyInA   DeltaClass = "only_in_a"
	DeltaOnlyInB   DeltaClass = "only_in_b"
)

// MetricDelta is the comparison of one metric across two bench documents.
type MetricDelta struct {
	Experiment string     `json:"experiment"`
	Metric     string     `json:"metric"`
	A          float64    `json:"a"`
	B          float64    `json:"b"`
	Rel        float64    `json:"rel"` // (b-a)/max(|a|,eps), signed
	Class      DeltaClass `json:"class"`
}

// DiffOptions tunes the bench comparison.
type DiffOptions struct {
	// RelTol is the relative change below which a metric counts as
	// unchanged. Zero means any change is significant — the determinism
	// gate's setting.
	RelTol float64
	// WallTol, when > 0, additionally gates per-experiment wall time: a
	// relative increase beyond it is a regression. Zero ignores wall time
	// (it is noisy and reported informationally only).
	WallTol float64
	// Strict escalates improvements and structural changes (experiments or
	// metrics present on one side only) to regressions, turning the diff
	// into an any-change gate.
	Strict bool
	// LowerIsBetter marks metric-name substrings (case-insensitive) whose
	// direction is inverted: a decrease is an improvement. Defaults to
	// DefaultLowerIsBetter when nil.
	LowerIsBetter []string
}

// DefaultLowerIsBetter are the metric-name substrings treated as
// lower-is-better by default: the cost and latency columns of Table III
// and the time/bytes/allocs per op of BENCH_allocs.json.
var DefaultLowerIsBetter = []string{
	"cost", "latency", "seconds", "time", "price", "token",
	"alloc", "bytes",
}

func (o DiffOptions) lowerIsBetter(metric string) bool {
	subs := o.LowerIsBetter
	if subs == nil {
		subs = DefaultLowerIsBetter
	}
	m := strings.ToLower(metric)
	for _, s := range subs {
		if strings.Contains(m, strings.ToLower(s)) {
			return true
		}
	}
	return false
}

// BenchDiff is the outcome of comparing two bench documents.
type BenchDiff struct {
	Deltas      []MetricDelta `json:"deltas"`
	Regressions int           `json:"regressions"`
	Improved    int           `json:"improved"`
	Unchanged   int           `json:"unchanged"`
	// WallDeltas reports per-experiment wall-time changes (always
	// informational unless WallTol gated them).
	WallDeltas []MetricDelta `json:"wall_deltas,omitempty"`
}

// HasRegressions reports whether the diff should fail a gate.
func (d *BenchDiff) HasRegressions() bool { return d.Regressions > 0 }

// DiffBenchRuns compares two bench documents metric-by-metric. Experiments
// are matched by id; within an experiment, metrics by column name. The
// regression direction respects DiffOptions.LowerIsBetter.
func DiffBenchRuns(a, b *BenchRun, opt DiffOptions) *BenchDiff {
	d := &BenchDiff{}
	byID := func(run *BenchRun) map[string]BenchExperiment {
		m := make(map[string]BenchExperiment, len(run.Experiments))
		for _, e := range run.Experiments {
			m[e.ID] = e
		}
		return m
	}
	am, bm := byID(a), byID(b)
	ids := make([]string, 0, len(am)+len(bm))
	for id := range am {
		ids = append(ids, id)
	}
	for id := range bm {
		if _, ok := am[id]; !ok {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)

	for _, id := range ids {
		ae, aok := am[id]
		be, bok := bm[id]
		switch {
		case !bok:
			d.addStructural(opt, MetricDelta{Experiment: id, Metric: "*", Class: DeltaOnlyInA})
			continue
		case !aok:
			d.addStructural(opt, MetricDelta{Experiment: id, Metric: "*", Class: DeltaOnlyInB})
			continue
		}
		names := make([]string, 0, len(ae.Metrics)+len(be.Metrics))
		for n := range ae.Metrics {
			names = append(names, n)
		}
		for n := range be.Metrics {
			if _, ok := ae.Metrics[n]; !ok {
				names = append(names, n)
			}
		}
		sort.Strings(names)
		for _, n := range names {
			av, aok := ae.Metrics[n]
			bv, bok := be.Metrics[n]
			switch {
			case !bok:
				d.addStructural(opt, MetricDelta{Experiment: id, Metric: n, A: av, Class: DeltaOnlyInA})
				continue
			case !aok:
				d.addStructural(opt, MetricDelta{Experiment: id, Metric: n, B: bv, Class: DeltaOnlyInB})
				continue
			}
			md := classify(id, n, av, bv, opt.RelTol, opt.lowerIsBetter(n))
			if opt.Strict && md.Class == DeltaImproved {
				md.Class = DeltaRegressed
			}
			switch md.Class {
			case DeltaRegressed:
				d.Regressions++
			case DeltaImproved:
				d.Improved++
			default:
				d.Unchanged++
			}
			d.Deltas = append(d.Deltas, md)
		}
		// Wall time: informational, gated only by WallTol.
		wd := classify(id, "wall_seconds", ae.WallSeconds, be.WallSeconds, opt.WallTol, true)
		if opt.WallTol <= 0 {
			if wd.Class == DeltaRegressed || wd.Class == DeltaImproved {
				wd.Class = DeltaUnchanged
			}
		} else if wd.Class == DeltaRegressed {
			d.Regressions++
		}
		d.WallDeltas = append(d.WallDeltas, wd)
	}
	return d
}

// addStructural records a one-sided experiment or metric. Disappearing data
// always gates (a metric you stopped measuring cannot prove it didn't
// regress); data that is new on the B side gates only under Strict.
func (d *BenchDiff) addStructural(opt DiffOptions, md MetricDelta) {
	if md.Class == DeltaOnlyInA || opt.Strict {
		d.Regressions++
	}
	d.Deltas = append(d.Deltas, md)
}

func classify(exp, metric string, a, b, tol float64, lowerBetter bool) MetricDelta {
	md := MetricDelta{Experiment: exp, Metric: metric, A: a, B: b}
	den := math.Abs(a)
	if den < 1e-12 {
		den = 1e-12
	}
	md.Rel = (b - a) / den
	switch {
	case math.Abs(md.Rel) <= tol || a == b:
		md.Class = DeltaUnchanged
	case (md.Rel < 0) == lowerBetter:
		md.Class = DeltaImproved
	default:
		md.Class = DeltaRegressed
	}
	return md
}

// WriteJSON emits the diff as indented JSON.
func (d *BenchDiff) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}

// WriteText renders the diff as an aligned table: every changed metric,
// then a summary line. Unchanged metrics are elided unless verbose.
func (d *BenchDiff) WriteText(w io.Writer, verbose bool) error {
	var sb strings.Builder
	rows := [][]string{{"EXPERIMENT", "METRIC", "A", "B", "REL", "CLASS"}}
	emit := func(md MetricDelta) {
		rows = append(rows, []string{
			md.Experiment, md.Metric,
			fmt.Sprintf("%.4g", md.A), fmt.Sprintf("%.4g", md.B),
			fmt.Sprintf("%+.2f%%", 100*md.Rel), string(md.Class),
		})
	}
	for _, md := range d.Deltas {
		if verbose || md.Class != DeltaUnchanged {
			emit(md)
		}
	}
	for _, md := range d.WallDeltas {
		if verbose {
			emit(md)
		}
	}
	if len(rows) > 1 {
		writeAligned(&sb, rows)
	} else {
		sb.WriteString("  (no metric changes)\n")
	}
	fmt.Fprintf(&sb, "\n%d regressed, %d improved, %d unchanged\n",
		d.Regressions, d.Improved, d.Unchanged)
	_, err := io.WriteString(w, sb.String())
	return err
}
