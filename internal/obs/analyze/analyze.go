// Package analyze is the consumption side of the observability layer: it
// loads the JSONL span traces internal/obs records (with the runtime.sample
// events internal/obs/profile writes into them), rebuilds the span tree,
// and answers the questions the raw records cannot — which stage dominates
// wall time, what the critical path through a run was, what one request's
// path through shared batches was, whether a process is leaking.
//
// The package is pure analysis of one run: it never writes telemetry, so it
// can be linked into tooling (the `knowtrans obs` subcommands, tests)
// without dragging the recording machinery along, and it never compares two
// runs — numbers from two commits meet only in benchmark/.
package analyze

import (
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/obs"
)

// Node is one span in the reconstructed trace tree. Children are ordered
// by start time. SelfUS is the span's duration minus the duration of its
// children (clamped at zero when children overlap the parent's tail, which
// clock skew can produce).
type Node struct {
	Rec      obs.SpanRecord
	Children []*Node
	SelfUS   int64
}

// Trace is a parsed and reassembled trace: the span forest (multiple roots
// when a run traced several top-level operations), the structured events,
// and parse bookkeeping.
type Trace struct {
	Roots  []*Node
	Events []obs.SpanRecord
	Spans  int
	// Records holds every parsed record in file order (spans and events),
	// retained for record-level consumers — trace-ID filtering, follow mode —
	// that need more than the reassembled tree.
	Records []obs.SpanRecord
	// Truncated reports that the final line of the stream did not parse —
	// the signature of a run that aborted mid-write. The loadable prefix is
	// analyzed anyway.
	Truncated bool
	// Orphans counts spans whose parent never flushed (an aborted run's
	// open spans) or whose parents form a cycle; they are promoted to roots
	// so their subtrees stay visible.
	Orphans int
}

// Load reads a JSONL trace stream leniently: a final line that fails to
// parse (truncated by an aborted run) is skipped and flagged, while a
// malformed line in the middle of the stream is a hard error.
func Load(r io.Reader) (*Trace, error) {
	recs, truncated, err := obs.ReadJSONL[obs.SpanRecord](r)
	if err != nil {
		return nil, err
	}
	t := build(recs)
	t.Truncated = truncated
	return t, nil
}

// LoadFile reads a trace file with Load.
func LoadFile(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("analyze: %w", err)
	}
	defer f.Close()
	t, err := Load(f)
	if err != nil {
		return nil, fmt.Errorf("analyze: %s: %w", path, err)
	}
	return t, nil
}

// build reassembles the span forest from flat records (file order = span
// end order, children before parents).
func build(recs []obs.SpanRecord) *Trace {
	t := &Trace{Records: recs}
	index := map[uint64]int{}
	var spans []*Node
	for _, rec := range recs {
		if rec.IsEvent() {
			t.Events = append(t.Events, rec)
			continue
		}
		index[rec.Span] = len(spans)
		spans = append(spans, &Node{Rec: rec})
	}
	t.Spans = len(spans)
	// up[i] is the index of span i's parent, -1 for a root.
	up := make([]int, len(spans))
	for i, n := range spans {
		up[i] = -1
		if n.Rec.Parent == 0 {
			continue
		}
		// A parent id only attaches within the same trace: a serve.request
		// span's parent is the *remote* span behind the traceparent header,
		// whose id lives in the client's process and must not collide with a
		// local span that happens to share the number. Remote-parented spans
		// become clean roots of their trace; a missing *local* parent is the
		// debris of an aborted run and still counts as an orphan.
		if p, ok := index[n.Rec.Parent]; ok && spans[p].Rec.Trace == n.Rec.Trace {
			up[i] = p
		} else if !n.Rec.Remote {
			t.Orphans++
		}
	}
	// Spans whose parents form a cycle (a span naming itself, two naming each
	// other, or a duplicated span id closing one) reach no root and would
	// vanish from every report: each span on a cycle is promoted to a root
	// and counted as an orphan. walked[i] is 1 + the walk that reached span i.
	walked := make([]int, len(spans))
	for i := range spans {
		j := i
		for j >= 0 && walked[j] == 0 {
			walked[j] = i + 1
			j = up[j]
		}
		if j < 0 || walked[j] != i+1 {
			continue // reached a root, or a span an earlier walk settled
		}
		for up[j] >= 0 {
			next := up[j]
			up[j] = -1
			t.Orphans++
			j = next
		}
	}
	for i, n := range spans {
		if up[i] < 0 {
			t.Roots = append(t.Roots, n)
		} else {
			spans[up[i]].Children = append(spans[up[i]].Children, n)
		}
	}
	var finish func(n *Node)
	finish = func(n *Node) {
		sort.Slice(n.Children, func(i, j int) bool {
			return n.Children[i].Rec.StartUS < n.Children[j].Rec.StartUS
		})
		var childUS int64
		for _, c := range n.Children {
			childUS += c.Rec.DurUS
			finish(c)
		}
		n.SelfUS = n.Rec.DurUS - childUS
		if n.SelfUS < 0 {
			n.SelfUS = 0
		}
	}
	sort.Slice(t.Roots, func(i, j int) bool { return t.Roots[i].Rec.StartUS < t.Roots[j].Rec.StartUS })
	for _, r := range t.Roots {
		finish(r)
	}
	return t
}

// RootUS returns the summed duration of all root spans — the traced wall
// time of the run.
func (t *Trace) RootUS() int64 {
	var total int64
	for _, r := range t.Roots {
		total += r.Rec.DurUS
	}
	return total
}

// Walk visits every span depth-first (parents before children).
func (t *Trace) Walk(f func(n *Node, depth int)) {
	var rec func(n *Node, d int)
	rec = func(n *Node, d int) {
		f(n, d)
		for _, c := range n.Children {
			rec(c, d+1)
		}
	}
	for _, r := range t.Roots {
		rec(r, 0)
	}
}

// NameStat aggregates every span sharing one name: how often the stage
// ran, its total and self (exclusive) time, and the distribution of
// per-span durations.
type NameStat struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalUS int64   `json:"total_us"`
	SelfUS  int64   `json:"self_us"`
	P50US   float64 `json:"p50_us"`
	P95US   float64 `json:"p95_us"`
	MaxUS   int64   `json:"max_us"`
}

// Aggregate computes per-span-name statistics, sorted by self time
// descending (the stages that themselves burn the clock come first).
// Because every span's self time is its duration minus its children's,
// summing SelfUS over all stats reproduces the root spans' total duration
// exactly on a complete trace — the invariant the `obs trace` coverage
// line reports.
func (t *Trace) Aggregate() []NameStat {
	byName := map[string]*NameStat{}
	durs := map[string][]int64{}
	t.Walk(func(n *Node, _ int) {
		s := byName[n.Rec.Name]
		if s == nil {
			s = &NameStat{Name: n.Rec.Name}
			byName[n.Rec.Name] = s
		}
		s.Count++
		s.TotalUS += n.Rec.DurUS
		s.SelfUS += n.SelfUS
		if n.Rec.DurUS > s.MaxUS {
			s.MaxUS = n.Rec.DurUS
		}
		durs[n.Rec.Name] = append(durs[n.Rec.Name], n.Rec.DurUS)
	})
	out := make([]NameStat, 0, len(byName))
	for name, s := range byName {
		ds := durs[name]
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
		s.P50US = obs.SampleQuantile(ds, 0.50)
		s.P95US = obs.SampleQuantile(ds, 0.95)
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].SelfUS != out[j].SelfUS {
			return out[i].SelfUS > out[j].SelfUS
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// PathStep is one hop of the critical path.
type PathStep struct {
	Name   string `json:"name"`
	DurUS  int64  `json:"dur_us"`
	SelfUS int64  `json:"self_us"`
	Depth  int    `json:"depth"`
}

// CriticalPath descends from the longest root span into the longest child
// at every level — the chain of spans that bounded the run's wall time.
func (t *Trace) CriticalPath() []PathStep {
	if len(t.Roots) == 0 {
		return nil
	}
	cur := t.Roots[0]
	for _, r := range t.Roots[1:] {
		if r.Rec.DurUS > cur.Rec.DurUS {
			cur = r
		}
	}
	var path []PathStep
	depth := 0
	for cur != nil {
		path = append(path, PathStep{Name: cur.Rec.Name, DurUS: cur.Rec.DurUS, SelfUS: cur.SelfUS, Depth: depth})
		var next *Node
		for _, c := range cur.Children {
			if next == nil || c.Rec.DurUS > next.Rec.DurUS {
				next = c
			}
		}
		cur = next
		depth++
	}
	return path
}

// SlowSpan is one entry of the top-N slowest report. Trace carries the
// span's trace ID so a slow entry can be pulled whole with
// `obs trace -trace-id`.
type SlowSpan struct {
	Name    string         `json:"name"`
	Trace   string         `json:"trace,omitempty"`
	DurUS   int64          `json:"dur_us"`
	SelfUS  int64          `json:"self_us"`
	StartUS int64          `json:"start_us"`
	Attrs   map[string]any `json:"attrs,omitempty"`
}

// Slowest returns the n spans with the largest durations.
func (t *Trace) Slowest(n int) []SlowSpan {
	var all []SlowSpan
	t.Walk(func(nd *Node, _ int) {
		all = append(all, SlowSpan{
			Name: nd.Rec.Name, Trace: nd.Rec.Trace, DurUS: nd.Rec.DurUS, SelfUS: nd.SelfUS,
			StartUS: nd.Rec.StartUS, Attrs: nd.Rec.Attrs,
		})
	})
	sort.Slice(all, func(i, j int) bool {
		if all[i].DurUS != all[j].DurUS {
			return all[i].DurUS > all[j].DurUS
		}
		return all[i].StartUS < all[j].StartUS
	})
	if n > 0 && len(all) > n {
		all = all[:n]
	}
	return all
}

// EventStat summarizes the structured events sharing one name.
type EventStat struct {
	Name  string `json:"name"`
	Count int    `json:"count"`
}

// EventStats counts events per name, sorted by count descending.
func (t *Trace) EventStats() []EventStat {
	byName := map[string]int{}
	for _, e := range t.Events {
		byName[e.Name]++
	}
	out := make([]EventStat, 0, len(byName))
	for name, c := range byName {
		out = append(out, EventStat{Name: name, Count: c})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Name < out[j].Name
	})
	return out
}
