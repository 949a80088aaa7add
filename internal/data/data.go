// Package data defines the common data model of the reproduction: relational
// tables, supervised instances for the seven DP tasks, datasets with
// deterministic splits, and the stratified few-shot sampling the paper's
// experimental protocol uses (20 labeled examples per novel dataset).
package data

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync/atomic"
)

// Table is a named relational table with an ordered schema, the raw material
// of every data preparation task (Section III).
type Table struct {
	Name  string
	Attrs []string
	Rows  [][]string
}

// NewTable allocates an empty table with the given schema.
func NewTable(name string, attrs ...string) *Table {
	return &Table{Name: name, Attrs: attrs}
}

// Append adds a row; it panics if the arity does not match the schema.
func (t *Table) Append(row ...string) {
	if len(row) != len(t.Attrs) {
		panic(fmt.Sprintf("data: row arity %d does not match schema %d of %q", len(row), len(t.Attrs), t.Name))
	}
	t.Rows = append(t.Rows, row)
}

// Field is one (attribute, value) pair of an instance's record context.
// Entity distinguishes the two sides of a matching pair ("A"/"B"); it is
// empty for single-record tasks.
type Field struct {
	Entity string
	Name   string
	Value  string
}

// Instance is one supervised example of any DP task, already lifted out of
// its table: the record context, the question, the candidate answer set, and
// the gold answer. Open-domain generation tasks (DI, DC, AVE) are realized
// as ranking over task-enumerated candidates; see DESIGN.md.
type Instance struct {
	ID         string
	Fields     []Field
	Target     string   // attribute under consideration (ED/DC/DI/AVE), if any
	Candidates []string // answer options; Gold indexes into it
	Gold       int
	Meta       map[string]string // free-form extras (e.g. latent error type)

	derived atomic.Pointer[any] // see Derived
}

// Derived returns compute(in), computed on first use and kept with the
// instance, so the memo is collected when the instance is. There is one
// slot: every caller passes the same pure function of in.Fields
// (internal/tasks' alignment features). Instances are treated as immutable
// once built, which is what makes the memo sound; Clone does not carry it.
// Concurrent first uses may each compute, and all return equal values.
func (in *Instance) Derived(compute func(*Instance) any) any {
	if p := in.derived.Load(); p != nil {
		return *p
	}
	v := compute(in)
	in.derived.Store(&v)
	return v
}

// GoldText returns the gold answer string.
func (in *Instance) GoldText() string {
	if in.Gold < 0 || in.Gold >= len(in.Candidates) {
		return ""
	}
	return in.Candidates[in.Gold]
}

// FieldValue returns the value of the first field with the given name, or ""
// if absent.
func (in *Instance) FieldValue(name string) string {
	for _, f := range in.Fields {
		if f.Name == name {
			return f.Value
		}
	}
	return ""
}

// Clone returns a deep copy of the instance.
func (in *Instance) Clone() *Instance {
	out := &Instance{ID: in.ID, Target: in.Target, Gold: in.Gold}
	out.Fields = append([]Field(nil), in.Fields...)
	out.Candidates = append([]string(nil), in.Candidates...)
	if in.Meta != nil {
		out.Meta = make(map[string]string, len(in.Meta))
		for k, v := range in.Meta {
			out.Meta[k] = v
		}
	}
	return out
}

// Dataset is a named collection of instances for one task with the paper's
// train / few-shot / test protocol (Table I).
type Dataset struct {
	Name string
	Task string // task code: EM, DI, SM, ED, DC, CTA, AVE
	// Train is the full labeled pool; the experiments draw few-shot subsets
	// from it. Test is held out.
	Train []*Instance
	Test  []*Instance
}

// Key returns the task-qualified dataset identifier used in result tables.
func (d *Dataset) Key() string { return d.Task + "/" + d.Name }

// FewShot draws n instances from Train, stratified by gold answer so binary
// tasks keep both classes represented (the paper uses 20 samples and its
// upstream sets are heavily imbalanced). Sampling is deterministic in rng.
func (d *Dataset) FewShot(rng *rand.Rand, n int) []*Instance {
	if n >= len(d.Train) {
		out := append([]*Instance(nil), d.Train...)
		shuffle(rng, out)
		return out
	}
	byClass := map[string][]*Instance{}
	var classes []string
	for _, in := range d.Train {
		c := in.GoldText()
		if _, ok := byClass[c]; !ok {
			classes = append(classes, c)
		}
		byClass[c] = append(byClass[c], in)
	}
	sort.Strings(classes)
	for _, c := range classes {
		shuffle(rng, byClass[c])
	}
	// For tasks with many "classes" (open generation), stratification
	// degenerates to uniform sampling, which is what we want there.
	var out []*Instance
	for len(out) < n {
		progress := false
		for _, c := range classes {
			if len(out) >= n {
				break
			}
			if pool := byClass[c]; len(pool) > 0 {
				out = append(out, pool[len(pool)-1])
				byClass[c] = pool[:len(pool)-1]
				progress = true
			}
		}
		if !progress {
			break
		}
	}
	shuffle(rng, out)
	return out
}

func shuffle(rng *rand.Rand, ins []*Instance) {
	rng.Shuffle(len(ins), func(i, j int) { ins[i], ins[j] = ins[j], ins[i] })
}

// RenderRecord serializes an instance's fields in the Jellyfish prompt style
// of Listing 1: `Record [attr: value, ...]`, grouping by entity for pair
// tasks. It is the canonical human-readable form (the model input is built
// by internal/tasks, which may apply knowledge directives first).
func RenderRecord(fields []Field) string {
	byEntity := map[string][]Field{}
	var order []string
	for _, f := range fields {
		if _, ok := byEntity[f.Entity]; !ok {
			order = append(order, f.Entity)
		}
		byEntity[f.Entity] = append(byEntity[f.Entity], f)
	}
	var sb strings.Builder
	for i, e := range order {
		if i > 0 {
			sb.WriteString(" ")
		}
		if e != "" {
			sb.WriteString(e)
			sb.WriteString(": ")
		}
		sb.WriteString("[")
		for j, f := range byEntity[e] {
			if j > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(f.Name)
			sb.WriteString(": ")
			sb.WriteString(f.Value)
		}
		sb.WriteString("]")
	}
	return sb.String()
}
