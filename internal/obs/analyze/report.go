package analyze

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// Report is the complete analysis of one trace, the source of the text
// rendering `knowtrans obs trace` prints.
type Report struct {
	Spans     int     `json:"spans"`
	Events    int     `json:"events"`
	Roots     int     `json:"roots"`
	Orphans   int     `json:"orphans,omitempty"`
	Truncated bool    `json:"truncated,omitempty"`
	RootUS    int64   `json:"root_us"`
	Coverage  float64 `json:"self_time_coverage"` // Σ self time / root duration

	Stats        []NameStat  `json:"stats"`
	CriticalPath []PathStep  `json:"critical_path"`
	Slowest      []SlowSpan  `json:"slowest"`
	EventStats   []EventStat `json:"event_stats,omitempty"`
}

// NewReport analyzes the trace. topN bounds the slowest-spans section
// (10 when <= 0).
func NewReport(t *Trace, topN int) *Report {
	if topN <= 0 {
		topN = 10
	}
	r := &Report{
		Spans:        t.Spans,
		Events:       len(t.Events),
		Roots:        len(t.Roots),
		Orphans:      t.Orphans,
		Truncated:    t.Truncated,
		RootUS:       t.RootUS(),
		Stats:        t.Aggregate(),
		CriticalPath: t.CriticalPath(),
		Slowest:      t.Slowest(topN),
		EventStats:   t.EventStats(),
	}
	var self int64
	for _, s := range r.Stats {
		self += s.SelfUS
	}
	if r.RootUS > 0 {
		r.Coverage = float64(self) / float64(r.RootUS)
	}
	return r
}

// fmtUS renders microseconds in a human scale (µs/ms/s).
func fmtUS(us int64) string {
	return fmtUSf(float64(us))
}

func fmtUSf(us float64) string {
	switch {
	case us >= 1e6:
		return fmt.Sprintf("%.2fs", us/1e6)
	case us >= 1e3:
		return fmt.Sprintf("%.2fms", us/1e3)
	default:
		return fmt.Sprintf("%.0fµs", us)
	}
}

// WriteText renders the report as aligned plain-text tables: header,
// per-name aggregates, the critical path, the slowest spans, and the event
// summary.
func (r *Report) WriteText(w io.Writer) error {
	var sb strings.Builder
	fmt.Fprintf(&sb, "trace: %d spans, %d events, %d roots, wall %s\n",
		r.Spans, r.Events, r.Roots, fmtUS(r.RootUS))
	if r.Truncated {
		sb.WriteString("note: final line truncated (run aborted mid-write); analyzed the loadable prefix\n")
	}
	if r.Orphans > 0 {
		fmt.Fprintf(&sb, "note: %d orphan span(s) promoted to roots (parents never flushed or form a cycle)\n", r.Orphans)
	}
	fmt.Fprintf(&sb, "self-time coverage: %.1f%% of root duration\n\n", 100*r.Coverage)

	sb.WriteString("per-span aggregates (by self time):\n")
	rows := [][]string{{"NAME", "COUNT", "TOTAL", "SELF", "SELF%", "P50", "P95", "MAX"}}
	for _, s := range r.Stats {
		pct := 0.0
		if r.RootUS > 0 {
			pct = 100 * float64(s.SelfUS) / float64(r.RootUS)
		}
		rows = append(rows, []string{
			s.Name, fmt.Sprintf("%d", s.Count), fmtUS(s.TotalUS), fmtUS(s.SelfUS),
			fmt.Sprintf("%.1f", pct), fmtUSf(s.P50US), fmtUSf(s.P95US), fmtUS(s.MaxUS),
		})
	}
	writeAligned(&sb, rows)

	sb.WriteString("\ncritical path:\n")
	for _, p := range r.CriticalPath {
		fmt.Fprintf(&sb, "  %s%s  %s (self %s)\n",
			strings.Repeat("  ", p.Depth), p.Name, fmtUS(p.DurUS), fmtUS(p.SelfUS))
	}

	fmt.Fprintf(&sb, "\nslowest spans (top %d):\n", len(r.Slowest))
	rows = [][]string{{"NAME", "DUR", "SELF", "START", "TRACE", "ATTRS"}}
	for _, s := range r.Slowest {
		rows = append(rows, []string{
			s.Name, fmtUS(s.DurUS), fmtUS(s.SelfUS), fmtUS(s.StartUS), s.Trace, attrString(s.Attrs),
		})
	}
	writeAligned(&sb, rows)

	if len(r.EventStats) > 0 {
		sb.WriteString("\nevents:\n")
		rows = [][]string{{"NAME", "COUNT"}}
		for _, e := range r.EventStats {
			rows = append(rows, []string{e.Name, fmt.Sprintf("%d", e.Count)})
		}
		writeAligned(&sb, rows)
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

// attrString renders span attributes compactly and deterministically.
func attrString(attrs map[string]any) string {
	if len(attrs) == 0 {
		return ""
	}
	keys := make([]string, 0, len(attrs))
	for k := range attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s=%v", k, attrs[k]))
	}
	s := strings.Join(parts, " ")
	if len(s) > 60 {
		s = s[:57] + "..."
	}
	return s
}

// writeAligned prints rows with columns padded to their widest cell; the
// last column is left unpadded.
func writeAligned(sb *strings.Builder, rows [][]string) {
	if len(rows) == 0 {
		return
	}
	widths := make([]int, len(rows[0]))
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	for _, row := range rows {
		sb.WriteString("  ")
		for i, cell := range row {
			if i == len(row)-1 {
				sb.WriteString(cell)
			} else {
				fmt.Fprintf(sb, "%-*s  ", widths[i], cell)
			}
		}
		sb.WriteString("\n")
	}
}
