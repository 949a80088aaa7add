package dataio

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"runtime/debug"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/data"
	"repro/internal/datagen"
	"repro/internal/tasks"
)

const beerCSV = `beer_name,abv,city,label
Hop Storm,0.05,Springfield,no
Iron Haze,0.07%,Riverside,yes
Cloud Fox,nan,Dover,yes
`

func TestReadCSV(t *testing.T) {
	tb, err := ReadCSV("beer", strings.NewReader(beerCSV))
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Attrs) != 4 || len(tb.Rows) != 3 {
		t.Fatalf("shape = %d cols x %d rows", len(tb.Attrs), len(tb.Rows))
	}
	if tb.Rows[1][1] != "0.07%" {
		t.Fatalf("cell = %q", tb.Rows[1][1])
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := ReadCSV("x", strings.NewReader("")); err == nil {
		t.Fatal("empty stream should error")
	}
	ragged := "a,b\n1\n"
	if _, err := ReadCSV("x", strings.NewReader(ragged)); err == nil {
		t.Fatal("ragged rows should error")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	tb, err := ReadCSV("beer", strings.NewReader(beerCSV))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w := csv.NewWriter(&buf)
	if err := w.WriteAll(append([][]string{tb.Attrs}, tb.Rows...)); err != nil {
		t.Fatal(err)
	}
	tb2, err := ReadCSV("beer", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb2.Rows) != len(tb.Rows) {
		t.Fatal("round trip lost rows")
	}
	for i := range tb.Rows {
		for j := range tb.Rows[i] {
			if tb.Rows[i][j] != tb2.Rows[i][j] {
				t.Fatalf("cell (%d,%d) changed", i, j)
			}
		}
	}
}

func TestEDInstances(t *testing.T) {
	tb, _ := ReadCSV("beer", strings.NewReader(beerCSV))
	ins, err := EDInstances(tb, "abv", "label")
	if err != nil {
		t.Fatal(err)
	}
	if len(ins) != 3 {
		t.Fatalf("got %d instances", len(ins))
	}
	if ins[0].GoldText() != tasks.AnswerNo || ins[1].GoldText() != tasks.AnswerYes {
		t.Fatalf("labels wrong: %s, %s", ins[0].GoldText(), ins[1].GoldText())
	}
	if ins[0].Target != "abv" {
		t.Fatalf("target = %q", ins[0].Target)
	}
	// The label column must not leak into the record fields.
	for _, f := range ins[0].Fields {
		if f.Name == "label" {
			t.Fatal("label column leaked into the record")
		}
	}
	if _, err := EDInstances(tb, "nope", "label"); err == nil {
		t.Fatal("unknown target must error")
	}
	if _, err := EDInstances(tb, "abv", "nope"); err == nil {
		t.Fatal("unknown label column must error")
	}
}

const pairCSV = `left_title,left_price,right_title,right_price,match
acme blender bx-1,9.99,acme bx-1 blender,10.99,1
acme blender bx-1,9.99,zuma toaster tk-2,8.99,0
`

func TestEMInstances(t *testing.T) {
	tb, _ := ReadCSV("pairs", strings.NewReader(pairCSV))
	ins, err := EMInstances(tb, "match")
	if err != nil {
		t.Fatal(err)
	}
	if len(ins) != 2 {
		t.Fatalf("got %d instances", len(ins))
	}
	if ins[0].GoldText() != tasks.AnswerYes || ins[1].GoldText() != tasks.AnswerNo {
		t.Fatal("labels wrong")
	}
	var a, b int
	for _, f := range ins[0].Fields {
		switch f.Entity {
		case "A":
			a++
		case "B":
			b++
		}
	}
	if a != 2 || b != 2 {
		t.Fatalf("entity split wrong: %d/%d", a, b)
	}
	// Missing left_/right_ prefixes must error.
	flat, _ := ReadCSV("flat", strings.NewReader("x,match\n1,1\n"))
	if _, err := EMInstances(flat, "match"); err == nil {
		t.Fatal("non-pair table must error")
	}
}

func TestDIInstances(t *testing.T) {
	csv := "name,brand\nphone one,Acme\nphone two,Zuma\nphone three,Acme\n"
	tb, _ := ReadCSV("phones", strings.NewReader(csv))
	ins, err := DIInstances(tb, "brand")
	if err != nil {
		t.Fatal(err)
	}
	if len(ins) != 3 {
		t.Fatalf("got %d instances", len(ins))
	}
	for _, in := range ins {
		if in.FieldValue("brand") != "nan" {
			t.Fatal("target must be masked")
		}
		if in.Gold < 0 {
			t.Fatal("gold missing")
		}
	}
	// Candidates = distinct brands + n/a.
	if len(ins[0].Candidates) != 3 {
		t.Fatalf("candidates = %v", ins[0].Candidates)
	}

	// Padded and case-differing values are their trimmed candidate; an
	// empty target has no gold and yields no instance.
	csv = "name,brand\nx, Sony\ny,Apple\nz,\nw,sony \nv,APPLE\n"
	tb, _ = ReadCSV("padded", strings.NewReader(csv))
	ins, err = DIInstances(tb, "brand")
	if err != nil {
		t.Fatal(err)
	}
	want := []struct{ id, gold string }{
		{"padded-0", "Sony"}, {"padded-1", "Apple"}, {"padded-3", "Sony"}, {"padded-4", "Apple"},
	}
	if len(ins) != len(want) {
		t.Fatalf("got %d instances from 5 rows (one empty), want %d", len(ins), len(want))
	}
	for i, w := range want {
		if ins[i].ID != w.id || ins[i].GoldText() != w.gold {
			t.Fatalf("instance %d = %s gold %q, want %s gold %q", i, ins[i].ID, ins[i].GoldText(), w.id, w.gold)
		}
	}
	if got := ins[0].Candidates; len(got) != 3 || got[0] != "Sony" || got[1] != "Apple" || got[2] != tasks.AnswerNA {
		t.Fatalf("candidates = %q, want [Sony Apple %s]", got, tasks.AnswerNA)
	}
}

func TestParseBinaryLabel(t *testing.T) {
	for _, v := range []string{"yes", "1", "TRUE", "match"} {
		if g, err := parseBinaryLabel(v); err != nil || g != 0 {
			t.Fatalf("parse(%q) = %d, %v", v, g, err)
		}
	}
	for _, v := range []string{"no", "0", "False"} {
		if g, err := parseBinaryLabel(v); err != nil || g != 1 {
			t.Fatalf("parse(%q) = %d, %v", v, g, err)
		}
	}
	if _, err := parseBinaryLabel("maybe"); err == nil {
		t.Fatal("bad label should error")
	}
}

// JSON round trip against the real generated datasets.
func TestJSONRoundTripGeneratedDataset(t *testing.T) {
	b := datagen.ByKey("ED/Beer", 1, 0.05)
	var buf bytes.Buffer
	if err := EncodeJSON(b.DS, tasks.RenderKnowledgeText(b.Seed), &buf); err != nil {
		t.Fatal(err)
	}
	ds, err := DecodeJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Name != b.DS.Name || ds.Task != b.DS.Task {
		t.Fatal("metadata lost")
	}
	if len(ds.Train) != len(b.DS.Train) || len(ds.Test) != len(b.DS.Test) {
		t.Fatal("split sizes changed")
	}
	for i := range ds.Train {
		if ds.Train[i].GoldText() != b.DS.Train[i].GoldText() {
			t.Fatalf("gold changed at %d", i)
		}
		if len(ds.Train[i].Fields) != len(b.DS.Train[i].Fields) {
			t.Fatalf("fields changed at %d", i)
		}
	}
}

// A field has one JSON shape: lowercase keys, entity omitted when empty.
// Files written before the keys were tagged spell them "Entity"/"Name"/
// "Value"; they decode to the same instances.
func TestFieldJSONShape(t *testing.T) {
	ds := &data.Dataset{Name: "x", Task: "EM", Test: []*data.Instance{{
		ID:         "1",
		Fields:     []data.Field{{Entity: "A", Name: "t", Value: "v"}, {Name: "abv", Value: "5%"}},
		Candidates: []string{"yes", "no"},
	}}}
	var buf bytes.Buffer
	if err := EncodeJSON(ds, "", &buf); err != nil {
		t.Fatal(err)
	}
	var flat bytes.Buffer
	if err := json.Compact(&flat, buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	want := `"fields":[{"entity":"A","name":"t","value":"v"},{"name":"abv","value":"5%"}]`
	if !strings.Contains(flat.String(), want) {
		t.Fatalf("encoded %s\nwant it to hold %s", flat.Bytes(), want)
	}
	old := `{"name":"x","task":"EM","train":[],"test":[{"id":"1","fields":[{"Entity":"A","Name":"t","Value":"v"},{"Entity":"","Name":"abv","Value":"5%"}],"candidates":["yes","no"],"gold":0}]}`
	for _, blob := range []string{buf.String(), old} {
		back, err := DecodeJSON(strings.NewReader(blob))
		if err != nil {
			t.Fatal(err)
		}
		if got := back.Test[0].Fields; !slices.Equal(got, ds.Test[0].Fields) {
			t.Fatalf("%s decoded fields %+v, want %+v", blob, got, ds.Test[0].Fields)
		}
	}
}

const oneDataset = `{"name":"x","task":"ED","train":[],"test":[{"id":"1","fields":[],"candidates":["yes","no"],"gold":1}]}`

// A job input holding two concatenated datasets must not run only the first
// under a hash that covers both.
func TestDecodeJSONRejectsTrailingBytes(t *testing.T) {
	for _, tail := range []string{" trailing garbage {{{", oneDataset, "\n" + oneDataset + "\n", "]", " null"} {
		if _, err := DecodeJSON(strings.NewReader(oneDataset + tail)); err == nil {
			t.Fatalf("accepted trailing bytes %q", tail)
		}
	}
}

// Trailing whitespace, such as the newline EncodeJSON ends with, is not data.
func TestDecodeJSONAcceptsTrailingWhitespace(t *testing.T) {
	for _, tail := range []string{"\n", " \t\r\n\n"} {
		ds, err := DecodeJSON(strings.NewReader(oneDataset + tail))
		if err != nil {
			t.Fatalf("tail %q: %v", tail, err)
		}
		if len(ds.Test) != 1 {
			t.Fatalf("tail %q: decoded %d test rows, want 1", tail, len(ds.Test))
		}
	}
}

func TestDecodeJSONRejectsBadGold(t *testing.T) {
	bad := `{"name":"x","task":"ED","train":[{"id":"1","fields":[],"candidates":["yes"],"gold":5}],"test":[]}`
	if _, err := DecodeJSON(strings.NewReader(bad)); err == nil {
		t.Fatal("out-of-range gold must be rejected")
	}
}

// bulkInput is a job input the size of the bulk benchmark's: 2,000 test
// rows of six flight fields, encoded as EncodeJSON writes it.
func bulkInput(t testing.TB) []byte {
	names := []string{"datasource", "flight", "scheduled_departure", "actual_departure", "scheduled_arrival", "actual_arrival"}
	sources := []string{"flightview", "flightaware", "airtravelcenter", "orbitz"}
	ds := &data.Dataset{Name: "bulk", Task: "ED"}
	for i := range 2000 {
		in := &data.Instance{
			ID:         fmt.Sprintf("bulk-%05d", i),
			Target:     names[1+i%5],
			Candidates: []string{tasks.AnswerYes, tasks.AnswerNo},
			Gold:       i % 2,
			Meta:       map[string]string{"error_type": []string{"clean", "typo", "format"}[i%3]},
		}
		in.Fields = append(in.Fields,
			data.Field{Name: names[0], Value: sources[i%4]},
			data.Field{Name: names[1], Value: fmt.Sprintf("AA-%d", 100+i*7%4900)})
		for j, name := range names[2:] {
			in.Fields = append(in.Fields, data.Field{Name: name, Value: fmt.Sprintf("%d:%02d %s Dec %d", 1+(i+j)%12, (i*13+j)%60, []string{"a.m.", "p.m."}[j%2], 1+i%28)})
		}
		ds.Test = append(ds.Test, in)
	}
	var buf bytes.Buffer
	if err := EncodeJSON(ds, "", &buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func BenchmarkParseJSON(b *testing.B) {
	blob := bulkInput(b)
	b.SetBytes(int64(len(blob)))
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if _, err := ParseJSON(blob); err != nil {
			b.Fatal(err)
		}
	}
}

// TestParseJSONAllocs is the decoder's allocation budget on bulkInput: per
// instance, one string for its ID and field values and its Meta map; the
// instances, fields and candidates come from slabs, and names, targets and
// candidates are interned. The allocs/op limit is exact. Decoding through
// encoding/json into JSONDataset, then copying into instances, the same
// input cost 60,029 allocs/op and 3,925,933 B/op.
//
// AllocsPerRun counts every goroutine's mallocs, and a collection can run
// work that allocates (the cleanups of package unique, which net/netip
// links, run after each GC), so the count is taken with the collector off:
// the exact limit then counts the decoder alone, whatever the test binary
// links.
func TestParseJSONAllocs(t *testing.T) {
	const maxAllocs, maxBytes = 6_105, 1_810_000
	blob := bulkInput(t)
	allocs := func() float64 {
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		return testing.AllocsPerRun(5, func() {
			if _, err := ParseJSON(blob); err != nil {
				t.Fatal(err)
			}
		})
	}()
	r := testing.Benchmark(BenchmarkParseJSON)
	t.Logf("%d-byte input: %.0f allocs/op, %d B/op, %v/op", len(blob), allocs, r.AllocedBytesPerOp(), time.Duration(r.NsPerOp()))
	if allocs > maxAllocs {
		t.Errorf("%.0f allocs/op, limit %d", allocs, maxAllocs)
	}
	if r.AllocedBytesPerOp() > maxBytes {
		t.Errorf("%d B/op, limit %d", r.AllocedBytesPerOp(), maxBytes)
	}
}
