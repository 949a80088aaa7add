package eval

import (
	"fmt"
	"math"
	"strings"
)

// Table is a rendered experiment result: named columns, one row per
// dataset (or series point), with optional per-task and overall averages —
// the same layout as the paper's result tables.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    []Row
}

// Row is one result line. Score cells may be NaN-free floats or absent
// (rendered as "-").
type Row struct {
	Task    string
	Dataset string
	Cells   map[string]float64
	// IsAverage marks synthesized average rows.
	IsAverage bool
}

// AddRow appends a result row.
func (t *Table) AddRow(task, dataset string, cells map[string]float64) {
	t.Rows = append(t.Rows, Row{Task: task, Dataset: dataset, Cells: cells})
}

// WithAverages returns a copy of the table with per-task average rows (for
// tasks having more than one dataset) and a final overall average row,
// mirroring the paper's table layout.
func (t *Table) WithAverages() *Table {
	out := &Table{ID: t.ID, Title: t.Title, Columns: t.Columns}
	byTask := map[string][]Row{}
	var taskOrder []string
	for _, r := range t.Rows {
		if _, ok := byTask[r.Task]; !ok {
			taskOrder = append(taskOrder, r.Task)
		}
		byTask[r.Task] = append(byTask[r.Task], r)
	}
	avgOf := func(rows []Row) map[string]float64 {
		cells := map[string]float64{}
		for _, c := range t.Columns {
			var sum float64
			var n int
			for _, r := range rows {
				if v, ok := r.Cells[c]; ok {
					sum += v
					n++
				}
			}
			if n > 0 {
				cells[c] = sum / float64(n)
			}
		}
		return cells
	}
	for _, task := range taskOrder {
		rows := byTask[task]
		out.Rows = append(out.Rows, rows...)
		if len(rows) > 1 {
			out.Rows = append(out.Rows, Row{Task: task, Dataset: "Average", Cells: avgOf(rows), IsAverage: true})
		}
	}
	out.Rows = append(out.Rows, Row{Task: "", Dataset: "Average (all)", Cells: avgOf(t.Rows), IsAverage: true})
	return out
}

// Render produces an aligned plain-text table.
func (t *Table) Render() string {
	headers := append([]string{"Task", "Dataset"}, t.Columns...)
	widths := make([]int, len(headers))
	for i, h := range headers {
		widths[i] = len(h)
	}
	cells := make([][]string, 0, len(t.Rows))
	for _, r := range t.Rows {
		row := []string{r.Task, r.Dataset}
		for _, c := range t.Columns {
			v, ok := r.Cells[c]
			switch {
			case !ok:
				row = append(row, "-")
			case v == math.Trunc(v):
				row = append(row, fmt.Sprintf("%.0f", v))
			case math.Abs(v) < 0.05:
				// Sub-cent costs (Table III) need more precision.
				row = append(row, fmt.Sprintf("%.4g", v))
			default:
				row = append(row, fmt.Sprintf("%.2f", v))
			}
		}
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
		cells = append(cells, row)
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s — %s\n", t.ID, t.Title)
	writeRow := func(row []string) {
		for i, cell := range row {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], cell)
		}
		sb.WriteString("\n")
	}
	writeRow(headers)
	total := len(headers) - 1
	for _, w := range widths {
		total += w + 1
	}
	sb.WriteString(strings.Repeat("-", total) + "\n")
	for i, row := range cells {
		if t.Rows[i].IsAverage {
			sb.WriteString(strings.Repeat("-", total) + "\n")
		}
		writeRow(row)
	}
	return sb.String()
}

// CellAt returns the cell at (task, dataset, column), skipping synthesized
// average rows (0 and false when absent). Dataset names repeat across tasks
// — Rayyan appears under both ED and DC, Beer under ED and DC — so lookups
// must be task-qualified to read the right task's score.
func (t *Table) CellAt(task, dataset, column string) (float64, bool) {
	for _, r := range t.Rows {
		if r.IsAverage || r.Task != task || r.Dataset != dataset {
			continue
		}
		v, ok := r.Cells[column]
		return v, ok
	}
	return 0, false
}
