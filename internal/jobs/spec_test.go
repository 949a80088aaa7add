package jobs

import (
	"strings"
	"testing"
)

const jsonSpec = `{
  "adapter": "EM/Walmart-Amazon",
  "input": {"path": "in.json"},
  "output": {"path": "out.csv"}
}`

// Same job again: keys reordered, formats and every default spelled out.
const jsonSpecReordered = `{
  "output": {"format": "csv", "path": "out.csv"},
  "shards": 4,
  "limits": {"row_timeout_s": 120, "concurrency": 8, "shard_parallelism": 2, "retries": 2},
  "input": {"split": "test", "format": "json", "path": "in.json"},
  "adapter": "EM/Walmart-Amazon"
}`

func TestSpecHashStable(t *testing.T) {
	specs := map[string]string{
		"json":           jsonSpec,
		"json-reordered": jsonSpecReordered,
	}
	hashes := map[string]string{}
	for name, blob := range specs {
		sp, err := ParseSpec([]byte(blob))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		hashes[name] = sp.Hash()
		if got := sp.ID(); got != "j"+sp.Hash()[:16] {
			t.Fatalf("%s: ID %q does not match hash %q", name, got, sp.Hash())
		}
	}
	if hashes["json"] != hashes["json-reordered"] {
		t.Fatalf("hash not stable across encodings: %v", hashes)
	}

	// A materially different spec must hash differently.
	other, err := ParseSpec([]byte(strings.Replace(jsonSpec, `"out.csv"`, `"other.csv"`, 1)))
	if err != nil {
		t.Fatal(err)
	}
	if other.Hash() == hashes["json"] {
		t.Fatalf("different specs share hash %s", other.Hash())
	}
}

func TestSpecNormalizeDefaults(t *testing.T) {
	sp, err := ParseSpec([]byte(jsonSpec))
	if err != nil {
		t.Fatal(err)
	}
	if sp.Input.Format != "json" || sp.Input.Split != "test" {
		t.Fatalf("input defaults not applied: %+v", sp.Input)
	}
	if sp.Output.Format != "csv" {
		t.Fatalf("output format not defaulted: %+v", sp.Output)
	}
	if sp.Shards != 4 || sp.Limits.Concurrency != 8 || sp.Limits.ShardParallelism != 2 ||
		sp.Limits.Retries != 2 || sp.Limits.RowTimeoutS != 120 {
		t.Fatalf("defaults not applied: shards=%d limits=%+v", sp.Shards, sp.Limits)
	}
}

func TestSpecNormalizeErrors(t *testing.T) {
	cases := map[string]string{
		"bad adapter":        `{"adapter":"nope","input":{"path":"a.json"},"output":{"path":"o.csv"}}`,
		"missing input":      `{"adapter":"EM/A","output":{"path":"o.csv"}}`,
		"missing output":     `{"adapter":"EM/A","input":{"path":"a.json"}}`,
		"unknown field":      `{"adapter":"EM/A","input":{"path":"a.json"},"output":{"path":"o.csv"},"bogus":1}`,
		"split on csv":       `{"adapter":"EM/A","input":{"path":"a.csv","label":"l","split":"test"},"output":{"path":"o.csv"}}`,
		"kind on json":       `{"adapter":"EM/A","input":{"path":"a.json","kind":"em"},"output":{"path":"o.csv"}}`,
		"em csv sans label":  `{"adapter":"EM/A","input":{"path":"a.csv"},"output":{"path":"o.csv"}}`,
		"bad output format":  `{"adapter":"EM/A","input":{"path":"a.json"},"output":{"path":"o.xml"}}`,
		"negative shards":    `{"adapter":"EM/A","input":{"path":"a.json"},"output":{"path":"o.csv"},"shards":-1}`,
		"csv kind from task": `{"adapter":"TX/A","input":{"path":"a.csv"},"output":{"path":"o.csv"}}`,
		"not JSON":           "adapter: EM/A\ninput:\n  path: a.json\noutput:\n  path: o.csv\n",
		"trailing bytes":     `{"adapter":"EM/A","input":{"path":"a.json"},"output":{"path":"o.csv"}} trailing {{{`,
		"two specs":          `{"adapter":"EM/A","input":{"path":"a.json"},"output":{"path":"o.csv"}}{"adapter":"EM/B","input":{"path":"b.json"},"output":{"path":"o.csv"}}`,
		// 1e10 s is 1e19 ns, past what a time.Duration holds: converted, it
		// is negative, and every attempt's context would start expired.
		"row timeout overflows":  `{"adapter":"EM/A","input":{"path":"a.json"},"output":{"path":"o.csv"},"limits":{"row_timeout_s":1e10}}`,
		"row timeout below 1 ns": `{"adapter":"EM/A","input":{"path":"a.json"},"output":{"path":"o.csv"},"limits":{"row_timeout_s":1e-10}}`,
	}
	for name, blob := range cases {
		if _, err := ParseSpec([]byte(blob)); err == nil {
			t.Errorf("%s: parsed without error", name)
		}
	}
}
