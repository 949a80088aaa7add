package dataio

import (
	"bytes"
	"maps"
	"slices"
	"strings"
	"testing"

	"repro/internal/data"
)

// FuzzDecodeJSON: a job input is untrusted bytes. Whatever they are,
// DecodeJSON returns (never panics), and a dataset it accepts survives its
// own encoding: EncodeJSON then DecodeJSON gives the same name, task and
// instances. A nil and an empty list or map count as the same (EncodeJSON
// omits an empty Meta).
func FuzzDecodeJSON(f *testing.F) {
	one := `{"name":"x","task":"ED","train":[{"id":"1","fields":[{"Name":"abv","Value":"5%"}],"target":"abv","candidates":["yes","no"],"gold":0,"meta":{"k":"v"}}],"test":[]}`
	for _, s := range []string{
		one,
		one + "\n",
		one + " trailing garbage {{{",
		one + one,
		`{"name":"y","task":"EM","train":[],"test":[{"id":"2","fields":[{"Entity":"A","Name":"t","Value":"é�"}],"candidates":["yes"],"gold":0,"meta":{}}]}`,
		`{"name":"z","train":[{"id":"3","candidates":[],"gold":0}]}`,
		`{"name":"w","test":[{"id":"4","fields":null,"candidates":null,"gold":-1}]}`,
		`{"NAME":"case","Task":"DI","train":null,"test":null}`,
		"{\"name\":\"\xff\xfe\",\"task\":\"ED\",\"train\":[{\"id\":\"\xc3\",\"candidates\":[\"a\",\"b\"],\"gold\":1}]}", // invalid UTF-8
		`[]`, `null`, `{`, ``, `{"train":[{"gold":1e400}]}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, blob []byte) {
		ds, err := DecodeJSON(bytes.NewReader(blob))
		if err != nil {
			if ds != nil {
				t.Fatalf("DecodeJSON failed (%v) but returned a dataset", err)
			}
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
		if back.Name != ds.Name || back.Task != ds.Task {
			t.Fatalf("name/task %q/%q came back as %q/%q", ds.Name, ds.Task, back.Name, back.Task)
		}
		for _, split := range []struct {
			name      string
			got, want []*data.Instance
		}{{"train", back.Train, ds.Train}, {"test", back.Test, ds.Test}} {
			if len(split.got) != len(split.want) {
				t.Fatalf("%s: %d instances came back as %d", split.name, len(split.want), len(split.got))
			}
			for i, want := range split.want {
				if got := split.got[i]; !sameInstance(got, want) {
					t.Fatalf("%s[%d] changed in the round trip:\n got %+v\nwant %+v", split.name, i, got, want)
				}
			}
		}
	})
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
