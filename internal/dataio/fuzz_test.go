package dataio

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"

	"repro/internal/data"
)

// FuzzDecodeJSON: a job input is untrusted bytes. Whatever they are,
// DecodeJSON returns (never panics) and agrees with the reference decoder,
// encoding/json into JSONDataset (referenceParse): it errors exactly when
// the reference does, and otherwise decodes the same dataset, save that an
// input holding a duplicate key is refused (holdsDuplicateKey). A dataset it
// accepts survives its own encoding: EncodeJSON then DecodeJSON gives the
// same name, task and instances. A nil and an empty list or map count as
// the same (EncodeJSON omits an empty Meta). The corpus spells a field's
// keys both ways: the lowercase tags EncodeJSON writes and the capitalized
// keys of files written before the tags.
func FuzzDecodeJSON(f *testing.F) {
	one := `{"name":"x","task":"ED","train":[{"id":"1","fields":[{"Name":"abv","Value":"5%"}],"target":"abv","candidates":["yes","no"],"gold":0,"meta":{"k":"v"}}],"test":[]}`
	withGold := func(gold string) string {
		return `{"name":"g","test":[{"id":"1","candidates":["yes","no"],"gold":` + gold + `}]}`
	}
	// n arrays under an unknown key of the dataset (level 1): 9,999 reach
	// encoding/json's limit of 10,000 levels, one more passes it.
	nested := func(n int) string {
		return `{"name":"deep","x":` + strings.Repeat("[", n) + strings.Repeat("]", n) + `}`
	}
	for _, s := range []string{
		one,
		one + "\n",
		one + " trailing garbage {{{",
		one + one,
		`{"name":"y","task":"EM","train":[],"test":[{"id":"2","fields":[{"Entity":"A","Name":"t","Value":"é�"}],"candidates":["yes"],"gold":0,"meta":{}}]}`,
		`{"name":"y","task":"EM","train":[],"test":[{"id":"2","fields":[{"entity":"A","name":"t","value":"é�"},{"name":"n","value":""}],"candidates":["yes"],"gold":0}]}`,
		`{"name":"z","train":[{"id":"3","candidates":[],"gold":0}]}`,
		`{"name":"w","test":[{"id":"4","fields":null,"candidates":null,"gold":-1}]}`,
		`{"NAME":"case","Task":"DI","train":null,"test":null}`,
		"{\"name\":\"\xff\xfe\",\"task\":\"ED\",\"train\":[{\"id\":\"\xc3\",\"candidates\":[\"a\",\"b\"],\"gold\":1}]}", // invalid UTF-8
		`[]`, `null`, `{`, ``, `{"train":[{"gold":1e400}]}`, ` null `,
		`{"n\u0061me":"escaped key","t\u0041sk":"ED"}`,
		`{"name":"folded","ſeed_knowledge":"ſ folds to s","tasK":"K is the Kelvin sign"}`,
		`{"name":"folded","ſeed_knowledge":{}}`,
		`{"name":"\ud83d\ude00 pair","task":"\ud800 lone high, \udc00 lone low, \ud800\u0041 high then A, \ud800\ud800\udc00"}`,
		`{"name":"\u00e9\/\b\f\n\r\t\"\\"}`,
		`{"name":"\'"}`, `{"name":"\u12"}`, "{\"name\":\"tab\tinside\"}", `{"name":"\`,
		withGold("1"), withGold("1.0"), withGold("-0"), withGold(`"1"`), withGold("9223372036854775808"),
		withGold("-9223372036854775809"), withGold("1e2"), withGold("01"), withGold("-"), withGold("null"), withGold("true"),
		`{"name":"x","test":[{"candidates":["yes"],"gold":0,"gold_text":5}]}`,
		`{"name":"x","test":[{"candidates":["yes"],"gold":0,"gold_text":"yes","seed_knowledge":[1,{"a":[true,false,null,-1.5e+3,"s"]}]}]}`,
		`{"name":"x","test":[{"candidates":["yes",null,"no"],"gold":1}]}`,
		`{"name":"x","test":[{"fields":[null,{"name":"a","value":null,"extra":{}}],"candidates":["yes"],"gold":0}]}`,
		`{"name":"x","test":[{"candidates":["yes"],"gold":0,"meta":{"k":null,"K":"v"}}]}`,
		`{"name":"x","test":[null]}`,
		`{"name":"a","name":"b"}`,
		`{"name":"a","NAME":"b"}`,
		`{"name":"x","test":[{"candidates":["yes"],"candidates":["no"],"gold":0}]}`,
		`{"name":"x","test":[{"candidates":["yes"],"gold":0,"meta":{"k":"a","k":"b"}}]}`,
		`{"name":"x","extra":1,"extra":2}`,
		`{"name":"x","extra":tru}`, `{"name":"x","extra":nul}`, `{"name":"x","extra":[trux,fals3,nuLL]}`, `{"name":"x","extra":[1,]}`, `{"name":"x","extra":01}`,
		`{"name":"x","extra":-}`, `{"name":"x","extra":1.}`, `{"name":"x","extra":1e}`, `{"name":"x","extra":{"a"}}`,
		`{"name":"x","extra":{"a":1,}}`, `{"name":"x","extra":"\q"}`, `{"name":"x","extra":[}`, `{"name":"x","extra":{1:2}}`,
		`{"name":"x","extra":{"a":[{"b":1,"b":2}]}}`,
		nested(9999),
		nested(10000),
		nested(10001),
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, blob []byte) {
		ds, err := DecodeJSON(bytes.NewReader(blob))
		if err != nil && ds != nil {
			t.Fatalf("DecodeJSON failed (%v) but returned a dataset", err)
		}
		ref, refErr := referenceParse(blob)
		switch {
		case refErr != nil:
			if err == nil {
				t.Fatalf("accepted what encoding/json refuses (%v)", refErr)
			}
		case holdsDuplicateKey(t, blob):
			if err == nil {
				t.Fatal("accepted an object holding a duplicate key")
			}
		case err != nil:
			t.Fatalf("refused what encoding/json accepts: %v", err)
		default:
			sameDataset(t, "against encoding/json", ds, ref)
		}
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := EncodeJSON(ds, "", &buf); err != nil {
			t.Fatal(err)
		}
		back, err := DecodeJSON(&buf)
		if err != nil {
			t.Fatalf("an accepted dataset does not decode from its own encoding: %v\n%s", err, buf.Bytes())
		}
		sameDataset(t, "in the round trip", back, ds)
	})
}

// referenceParse is the decoder ParseJSON replaced: encoding/json into
// JSONDataset, then the gold range check.
func referenceParse(blob []byte) (*data.Dataset, error) {
	var in JSONDataset
	if err := json.Unmarshal(blob, &in); err != nil {
		return nil, err
	}
	ds := &data.Dataset{Name: in.Name, Task: in.Task}
	for _, split := range []struct {
		from []JSONInstance
		to   *[]*data.Instance
	}{{in.Train, &ds.Train}, {in.Test, &ds.Test}} {
		for _, ji := range split.from {
			if ji.Gold < 0 || ji.Gold >= len(ji.Candidates) {
				return nil, fmt.Errorf("instance %s: gold %d out of range (%d candidates)", ji.ID, ji.Gold, len(ji.Candidates))
			}
			*split.to = append(*split.to, &data.Instance{
				ID: ji.ID, Fields: ji.Fields, Target: ji.Target,
				Candidates: ji.Candidates, Gold: ji.Gold, Meta: ji.Meta,
			})
		}
	}
	return ds, nil
}

// jsonShape is what holdsDuplicateKey knows of an object: the members a key
// may select (encoding/json's rule: an exact match, else a case-folded one)
// and the shape of each member's value. An array has its slot's shape, each
// element in turn; an object outside the three shapes has no members.
type jsonShape struct {
	members []string
	values  map[string]*jsonShape
}

var (
	fieldShape    = &jsonShape{members: []string{"entity", "name", "value"}}
	instanceShape = &jsonShape{
		members: []string{"id", "fields", "target", "candidates", "gold", "gold_text", "meta"},
		values:  map[string]*jsonShape{"fields": fieldShape},
	}
	datasetShape = &jsonShape{
		members: []string{"name", "task", "seed_knowledge", "train", "test"},
		values:  map[string]*jsonShape{"train": instanceShape, "test": instanceShape},
	}
)

// holdsDuplicateKey reports whether an input encoding/json accepts holds an
// object with one key twice (compared unquoted), or two keys that select one
// member of a dataset, an instance or a field.
func holdsDuplicateKey(t *testing.T, blob []byte) bool {
	dec := json.NewDecoder(bytes.NewReader(blob))
	dec.UseNumber()
	var walk func(s *jsonShape) bool
	token := func() json.Token {
		tok, err := dec.Token()
		if err != nil {
			t.Fatalf("walking an input encoding/json accepts: %v", err)
		}
		return tok
	}
	walk = func(s *jsonShape) bool {
		switch token() {
		case json.Delim('['):
			for dec.More() {
				if walk(s) {
					return true
				}
			}
		case json.Delim('{'):
			seen := map[string]bool{}
			for dec.More() {
				key := token().(string)
				id, value := "="+key, (*jsonShape)(nil)
				if s != nil {
					if i := selects(key, s.members); i >= 0 {
						id = s.members[i]
						value = s.values[id]
					}
				}
				if seen[id] || walk(value) {
					return true
				}
				seen[id] = true
			}
		default:
			return false
		}
		token() // the closer
		return false
	}
	return walk(datasetShape)
}

func selects(key string, members []string) int {
	if i := slices.Index(members, key); i >= 0 {
		return i
	}
	return slices.IndexFunc(members, func(m string) bool { return strings.EqualFold(key, m) })
}

func sameDataset(t *testing.T, how string, got, want *data.Dataset) {
	t.Helper()
	if got.Name != want.Name || got.Task != want.Task {
		t.Fatalf("%s: name/task %q/%q, want %q/%q", how, got.Name, got.Task, want.Name, want.Task)
	}
	for _, split := range []struct {
		name      string
		got, want []*data.Instance
	}{{"train", got.Train, want.Train}, {"test", got.Test, want.Test}} {
		if len(split.got) != len(split.want) {
			t.Fatalf("%s: %s has %d instances, want %d", how, split.name, len(split.got), len(split.want))
		}
		for i, w := range split.want {
			if g := split.got[i]; !sameInstance(g, w) {
				t.Fatalf("%s: %s[%d] differs:\n got %+v\nwant %+v", how, split.name, i, g, w)
			}
		}
	}
}

func sameInstance(a, b *data.Instance) bool {
	return a.ID == b.ID && a.Target == b.Target && a.Gold == b.Gold &&
		slices.Equal(a.Fields, b.Fields) && slices.Equal(a.Candidates, b.Candidates) &&
		maps.Equal(a.Meta, b.Meta)
}

// FuzzReadCSV: a job's CSV input is untrusted bytes. ReadCSV and the three
// lifters never panic; every row ReadCSV accepts has the header's arity;
// every instance's Gold indexes its Candidates; and DIInstances yields
// exactly one instance per row whose trimmed target is non-empty. Every
// column is tried as the target, the last one as the label.
func FuzzReadCSV(f *testing.F) {
	for _, s := range []string{
		beerCSV,
		pairCSV,
		"name,brand\nx, Sony\ny,Apple\nz,\n",
		"name,brand\nphone one,Acme\nphone two,acme \nphone three,ACME\n",
		"x,brand\n1,n/a\n2,N/A\n",
		"a,A\n1,2\n",
		"a,b\n1\n",
		"\"unterminated\n",
		"a\n\n\n",
		"left_t,right_t,label\nx,y,yes\nx,z,maybe\n",
		"",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, blob []byte) {
		tb, err := ReadCSV("fuzz", bytes.NewReader(blob))
		if err != nil {
			if tb != nil {
				t.Fatalf("ReadCSV failed (%v) but returned a table", err)
			}
			return
		}
		for i, row := range tb.Rows {
			if len(row) != len(tb.Attrs) {
				t.Fatalf("row %d has %d fields, header has %d", i, len(row), len(tb.Attrs))
			}
		}
		goldOK := func(lifter string, ins []*data.Instance) {
			for _, in := range ins {
				if in.Gold < 0 || in.Gold >= len(in.Candidates) {
					t.Fatalf("%s: %s has gold %d over %d candidates", lifter, in.ID, in.Gold, len(in.Candidates))
				}
			}
		}
		label := tb.Attrs[len(tb.Attrs)-1]
		if ins, err := EMInstances(tb, label); err == nil {
			goldOK("EMInstances", ins)
		}
		for _, target := range tb.Attrs {
			if ins, err := EDInstances(tb, target, label); err == nil {
				goldOK("EDInstances", ins)
			}
			ins, err := DIInstances(tb, target)
			if err != nil {
				t.Fatalf("DIInstances(%q): %v", target, err)
			}
			goldOK("DIInstances", ins)
			ti, _ := colIndex(tb, target)
			want := 0
			for _, row := range tb.Rows {
				if strings.TrimSpace(row[ti]) != "" {
					want++
				}
			}
			if len(ins) != want {
				t.Fatalf("DIInstances(%q) gave %d instances, %d rows have a non-empty target", target, len(ins), want)
			}
		}
	})
}
