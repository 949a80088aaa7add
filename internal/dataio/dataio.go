// Package dataio moves datasets across the process boundary: CSV tables in,
// JSON datasets in/out. It is what lets a downstream user run KnowTrans on
// their own data instead of the synthetic suite — load a CSV, declare the
// task, and get data.Instances the rest of the pipeline consumes.
package dataio

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"repro/internal/data"
	"repro/internal/tasks"
)

// ReadCSV parses a CSV stream (first row = header) into a Table.
func ReadCSV(name string, r io.Reader) (*data.Table, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("dataio: reading header of %q: %w", name, err)
	}
	t := data.NewTable(name, header...)
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("dataio: reading %q line %d: %w", name, line, err)
		}
		if len(rec) != len(header) {
			return nil, fmt.Errorf("dataio: %q line %d has %d fields, header has %d", name, line, len(rec), len(header))
		}
		t.Append(rec...)
	}
	return t, nil
}

// EDInstances lifts a labeled error-detection table into instances. The
// label column must hold yes/no (case-insensitive; 1/0 and true/false are
// accepted); target names the attribute under verification.
func EDInstances(t *data.Table, target, labelCol string) ([]*data.Instance, error) {
	li, err := colIndex(t, labelCol)
	if err != nil {
		return nil, err
	}
	if _, err := colIndex(t, target); err != nil {
		return nil, err
	}
	var out []*data.Instance
	for i, row := range t.Rows {
		gold, err := parseBinaryLabel(row[li])
		if err != nil {
			return nil, fmt.Errorf("dataio: %s row %d: %w", t.Name, i, err)
		}
		in := &data.Instance{
			ID:         fmt.Sprintf("%s-%d", t.Name, i),
			Target:     target,
			Candidates: []string{tasks.AnswerYes, tasks.AnswerNo},
			Gold:       gold,
		}
		for j, attr := range t.Attrs {
			if j == li {
				continue
			}
			in.Fields = append(in.Fields, data.Field{Name: attr, Value: row[j]})
		}
		out = append(out, in)
	}
	return out, nil
}

// EMInstances lifts a labeled pair table into entity-matching instances.
// Columns prefixed "left_" and "right_" form the two entities; the label
// column holds the match flag.
func EMInstances(t *data.Table, labelCol string) ([]*data.Instance, error) {
	li, err := colIndex(t, labelCol)
	if err != nil {
		return nil, err
	}
	var sawLeft, sawRight bool
	for _, a := range t.Attrs {
		if strings.HasPrefix(a, "left_") {
			sawLeft = true
		}
		if strings.HasPrefix(a, "right_") {
			sawRight = true
		}
	}
	if !sawLeft || !sawRight {
		return nil, fmt.Errorf("dataio: %s: EM tables need left_*/right_* columns", t.Name)
	}
	var out []*data.Instance
	for i, row := range t.Rows {
		gold, err := parseBinaryLabel(row[li])
		if err != nil {
			return nil, fmt.Errorf("dataio: %s row %d: %w", t.Name, i, err)
		}
		in := &data.Instance{
			ID:         fmt.Sprintf("%s-%d", t.Name, i),
			Candidates: []string{tasks.AnswerYes, tasks.AnswerNo},
			Gold:       gold,
		}
		for j, attr := range t.Attrs {
			if j == li {
				continue
			}
			switch {
			case strings.HasPrefix(attr, "left_"):
				in.Fields = append(in.Fields, data.Field{Entity: "A", Name: strings.TrimPrefix(attr, "left_"), Value: row[j]})
			case strings.HasPrefix(attr, "right_"):
				in.Fields = append(in.Fields, data.Field{Entity: "B", Name: strings.TrimPrefix(attr, "right_"), Value: row[j]})
			default:
				in.Fields = append(in.Fields, data.Field{Name: attr, Value: row[j]})
			}
		}
		out = append(out, in)
	}
	return out, nil
}

// DIInstances lifts a table into data-imputation instances: target is the
// column to impute; every row's target value becomes the gold answer and
// candidates are the distinct values of the target column (closed-world
// imputation) plus n/a. Values are compared trimmed and case-insensitively,
// so " Sony" and "sony" are the candidate "Sony". A row whose target is
// empty (after trimming) has no gold answer and yields no instance.
func DIInstances(t *data.Table, target string) ([]*data.Instance, error) {
	ti, err := colIndex(t, target)
	if err != nil {
		return nil, err
	}
	// index maps a value's lowered form to its candidate: the first
	// spelling seen stands for every spelling, and every row's gold.
	index := map[string]int{}
	var vocab []string
	for _, row := range t.Rows {
		v := strings.TrimSpace(row[ti])
		key := strings.ToLower(v)
		if _, dup := index[key]; v == "" || dup {
			continue
		}
		index[key] = len(vocab)
		vocab = append(vocab, v)
	}
	vocab = append(vocab, tasks.AnswerNA)
	var out []*data.Instance
	for i, row := range t.Rows {
		gold, ok := index[strings.ToLower(strings.TrimSpace(row[ti]))]
		if !ok {
			continue
		}
		in := &data.Instance{
			ID:         fmt.Sprintf("%s-%d", t.Name, i),
			Target:     target,
			Candidates: vocab,
			Gold:       gold,
		}
		for j, attr := range t.Attrs {
			v := row[j]
			if j == ti {
				v = "nan"
			}
			in.Fields = append(in.Fields, data.Field{Name: attr, Value: v})
		}
		out = append(out, in)
	}
	return out, nil
}

func colIndex(t *data.Table, name string) (int, error) {
	for i, a := range t.Attrs {
		if strings.EqualFold(a, name) {
			return i, nil
		}
	}
	return -1, fmt.Errorf("dataio: %s: no column %q (have %v)", t.Name, name, t.Attrs)
}

func parseBinaryLabel(v string) (gold int, err error) {
	switch strings.ToLower(strings.TrimSpace(v)) {
	case "yes", "1", "true", "match":
		return 0, nil
	case "no", "0", "false", "non-match", "nonmatch":
		return 1, nil
	default:
		return 0, fmt.Errorf("unparseable binary label %q", v)
	}
}

// JSONDataset is the on-disk dataset layout shared with cmd/dpgen.
type JSONDataset struct {
	Name          string         `json:"name"`
	Task          string         `json:"task"`
	SeedKnowledge string         `json:"seed_knowledge,omitempty"`
	Train         []JSONInstance `json:"train"`
	Test          []JSONInstance `json:"test"`
}

// JSONInstance is the serialized instance form.
type JSONInstance struct {
	ID         string            `json:"id"`
	Fields     []data.Field      `json:"fields"`
	Target     string            `json:"target,omitempty"`
	Candidates []string          `json:"candidates"`
	Gold       int               `json:"gold"`
	GoldText   string            `json:"gold_text"`
	Meta       map[string]string `json:"meta,omitempty"`
}

// EncodeJSON serializes a dataset.
func EncodeJSON(ds *data.Dataset, seedKnowledge string, w io.Writer) error {
	out := JSONDataset{
		Name:          ds.Name,
		Task:          ds.Task,
		SeedKnowledge: seedKnowledge,
		Train:         toJSON(ds.Train),
		Test:          toJSON(ds.Test),
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// DecodeJSON reads r to its end and parses what it read with ParseJSON.
func DecodeJSON(r io.Reader) (*data.Dataset, error) {
	blob, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("dataio: reading dataset: %w", err)
	}
	return ParseJSON(blob)
}

// ParseJSON parses a dataset previously written by EncodeJSON / dpgen from
// bytes already in memory, without first copying them. blob must hold
// exactly one dataset: anything but whitespace after it is an error, so two
// concatenated datasets are refused rather than silently cut to the first.
func ParseJSON(blob []byte) (*data.Dataset, error) {
	var in JSONDataset
	if err := json.Unmarshal(blob, &in); err != nil {
		return nil, fmt.Errorf("dataio: decoding dataset: %w", err)
	}
	ds := &data.Dataset{Name: in.Name, Task: in.Task}
	var err error
	if ds.Train, err = fromJSON(in.Train); err != nil {
		return nil, fmt.Errorf("dataio: %s train: %w", in.Name, err)
	}
	if ds.Test, err = fromJSON(in.Test); err != nil {
		return nil, fmt.Errorf("dataio: %s test: %w", in.Name, err)
	}
	return ds, nil
}

func toJSON(ins []*data.Instance) []JSONInstance {
	out := make([]JSONInstance, 0, len(ins))
	for _, in := range ins {
		out = append(out, JSONInstance{
			ID: in.ID, Fields: in.Fields, Target: in.Target,
			Candidates: in.Candidates, Gold: in.Gold, GoldText: in.GoldText(), Meta: in.Meta,
		})
	}
	return out
}

func fromJSON(ins []JSONInstance) ([]*data.Instance, error) {
	out := make([]*data.Instance, 0, len(ins))
	for _, ji := range ins {
		if ji.Gold < 0 || ji.Gold >= len(ji.Candidates) {
			return nil, fmt.Errorf("instance %s: gold %d out of range (%d candidates)", ji.ID, ji.Gold, len(ji.Candidates))
		}
		out = append(out, &data.Instance{
			ID: ji.ID, Fields: ji.Fields, Target: ji.Target,
			Candidates: ji.Candidates, Gold: ji.Gold, Meta: ji.Meta,
		})
	}
	return out, nil
}
