package jobs

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// FuzzParseSpec: a job spec arrives over HTTP as untrusted bytes. Whatever
// they are, ParseSpec returns (never panics). A spec it accepts is already in
// normal form — normalizing it again, or marshaling it and parsing that,
// gives the same hash, which is the job's identity and its checkpoint log's
// name — its row timeout is a positive time.Duration, and once confined to a jobs directory it names no path outside it
// and no checkpoint log.
func FuzzParseSpec(f *testing.F) {
	for _, s := range []string{
		`{"adapter":"EM/Walmart-Amazon","input":{"path":"in.json"},"output":{"path":"out.csv"}}`,
		`{"adapter":"ED/Beer","input":{"path":"a/b.csv","target":"abv","label":"err"},"output":{"path":"o.jsonl"},"shards":3,"limits":{"retries":1,"row_timeout_s":0.5}}`,
		`{"adapter":"EM/A","input":{"path":"../../etc/passwd","format":"json"},"output":{"path":"/tmp/x.csv"}}`,
		`{"adapter":"EM/A","input":{"path":"a/../../b.json"},"output":{"path":"c/./d/../o.csv"}}`,
		`{"adapter":"DI/Phone","input":{"path":"in.csv","kind":"di","target":"brand"},"output":{"path":"out.csv","format":"jsonl"},"limits":{"concurrency":-1}}`,
		`{"adapter":"EM/A","input":{"path":"in.json","split":"all"},"output":{"path":"o.csv"},"shards":-2}`,
		`{"adapter":"EM/A","input":{"path":"in.json"},"output":{"path":"o.csv"},"surprise":1}`,
		`{"adapter":"EM/A","input":{"path":"in.json"},"output":{"path":"o.csv"}} trailing`,
		`{"adapter":"EM/A","input":{"path":"in.json"},"output":{"path":"o.csv"}}{"adapter":"EM/B","input":{"path":"in.json"},"output":{"path":"o.csv"}}`,
		"{\"adapter\":\"EM/A\",\"input\":{\"path\":\"in.json\"},\"output\":{\"path\":\"o.csv\"}}\n\t ",
		`{"adapter":"","input":{},"output":{}}`,
		`[]`, `null`, ` `, `{`,
		`{"adapter":"EM/A","input":{"path":"in.json"},"output":{"path":"sub/job-j0123456789abcdef.Ckpt.jsonl"}}`,
		`{"adapter":"EM/A","input":{"path":"in.json"},"output":{"path":"o.csv"},"limits":{"row_timeout_s":1e10}}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, blob []byte) {
		sp, err := ParseSpec(blob)
		if err != nil {
			if sp != nil {
				t.Fatalf("ParseSpec failed (%v) but returned %+v", err, sp)
			}
			return
		}
		if d := sp.Limits.rowTimeout(); d <= 0 {
			t.Fatalf("accepted row_timeout_s %g is the time.Duration %d", sp.Limits.RowTimeoutS, d)
		}
		hash := sp.Hash()
		again := *sp
		if err := again.Normalize(); err != nil || again.Hash() != hash {
			t.Fatalf("normalizing an accepted spec again: %v, hash %s → %s\n%+v", err, hash, again.Hash(), sp)
		}
		raw, err := json.Marshal(sp)
		if err != nil {
			t.Fatal(err)
		}
		if back, err := ParseSpec(raw); err != nil || back.Hash() != hash {
			t.Fatalf("an accepted spec does not survive its own JSON: %v\n%s", err, raw)
		}

		const dir = "/srv/jobs"
		if err := sp.confine(dir); err != nil {
			return
		}
		for _, p := range []string{sp.Input.Path, sp.Output.Path} {
			if rel, err := filepath.Rel(dir, p); err != nil || rel == ".." || strings.HasPrefix(rel, "../") || filepath.IsAbs(rel) {
				t.Fatalf("confined path %q is outside %s (rel %q, %v)", p, dir, rel, err)
			}
			if strings.HasSuffix(strings.ToLower(p), ckptExt) {
				t.Fatalf("confined path %q names a checkpoint log", p)
			}
		}
	})
}

// FuzzReadLog: the checkpoint log is read back after a crash, so any prefix
// of what was written is a legal input. From the fuzzer's bytes the target
// builds a valid log (a plan, shard records whose answers are those bytes in
// pieces, a done record), cuts it at an arbitrary offset, and requires what
// the torn-tail rule promises: no error, validOff on a record boundary at or
// before the cut, and exactly the shards whose records lie wholly before it,
// with their answers intact. A full record written after that cut must be
// refused unless the cut fell on a record boundary: it would share the torn
// record's line, which is why a Log appends nothing after a failed write.
// The raw bytes themselves are read as a log too: that may fail, but never
// panics and never reports an offset inside a line.
func FuzzReadLog(f *testing.F) {
	f.Add([]byte("a,b\nc\"d\\e\x00f"), uint16(3), uint16(40))
	f.Add([]byte(`{"v":1,"type":"plan","rows":4,"shards":1}`+"\n"+`{"type":"shard","shard":0,"answers":["a"]}`+"\n"), uint16(1), uint16(60))
	f.Add([]byte(`{"v":99,"type":"plan"}`+"\n"), uint16(0), uint16(0))
	f.Add([]byte("not json at all\n{\"type\":\"done\"}\n"), uint16(2), uint16(9999))
	f.Add([]byte{}, uint16(5), uint16(1))
	f.Add([]byte(`{"v":1,"type":"plan","rows":2,"shards":2}`+"\n"+`{"type":"shard","shard":0,"answers":["a`+
		`{"type":"shard","shard":1,"answers":["b"]}`+"\n"), uint16(1), uint16(90))
	path := filepath.Join(f.TempDir(), "fuzz.ckpt.jsonl")
	f.Fuzz(func(t *testing.T, data []byte, nShards, cut uint16) {
		// Arbitrary bytes.
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if st, err := ReadLog(path); err == nil {
			if off := st.validOff; off < 0 || off > int64(len(data)) || (off > 0 && data[off-1] != '\n') {
				t.Fatalf("validOff %d is not a line boundary of a %d-byte log", off, len(data))
			}
		}

		// A valid log, cut anywhere.
		n := int(nShards%8) + 1
		recs := []*Record{{V: recordV, Type: recPlan, SpecHash: "h", Rows: len(data), Shards: n, InputSHA: "s"}}
		for i := 0; i < n; i++ {
			lo, hi := len(data)*i/n, len(data)*(i+1)/n
			var answers []string
			for _, piece := range bytes.SplitAfter(data[lo:hi], []byte{'\n'}) {
				answers = append(answers, strings.ToValidUTF8(string(piece), "?"))
			}
			recs = append(recs, &Record{Type: recShard, Shard: i, Rows: hi - lo, Answers: answers})
		}
		recs = append(recs, &Record{Type: recDone, Rows: len(data)})
		var log bytes.Buffer
		var ends []int // offset just past each record
		for _, rec := range recs {
			raw, err := json.Marshal(rec)
			if err != nil {
				t.Fatal(err)
			}
			log.Write(append(raw, '\n'))
			ends = append(ends, log.Len())
		}
		prefix := log.Bytes()[:int(cut)%(log.Len()+1)]
		if err := os.WriteFile(path, prefix, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := ReadLog(path)
		if err != nil {
			t.Fatalf("a %d-byte prefix of a valid %d-byte log: %v", len(prefix), log.Len(), err)
		}
		whole := 0 // records wholly inside the prefix
		for whole < len(ends) && ends[whole] <= len(prefix) {
			whole++
		}
		wantOff := 0
		if whole > 0 {
			wantOff = ends[whole-1]
		}
		if st.validOff != int64(wantOff) || st.Truncated != (len(prefix) > wantOff) {
			t.Fatalf("validOff %d truncated %v; want %d, %v (prefix %d of %d, %d whole records)",
				st.validOff, st.Truncated, wantOff, len(prefix) > wantOff, len(prefix), log.Len(), whole)
		}
		if (st.Plan != nil) != (whole >= 1) || st.Done != (whole == len(recs)) {
			t.Fatalf("plan %v done %v with %d of %d records whole", st.Plan != nil, st.Done, whole, len(recs))
		}
		wantShards := min(max(whole-1, 0), n)
		if len(st.Shards) != wantShards {
			t.Fatalf("%d committed shards recovered, want %d", len(st.Shards), wantShards)
		}
		for i, got := range st.Shards {
			if !reflect.DeepEqual(got.Answers, recs[1+i].Answers) {
				t.Fatalf("shard %d answers %q, want %q", i, got.Answers, recs[1+i].Answers)
			}
		}

		// A full record after the cut.
		if err := os.WriteFile(path, append(prefix, `{"type":"done"}`+"\n"...), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadLog(path); (err == nil) != (len(prefix) == wantOff) {
			t.Fatalf("a full record after a %d-byte prefix (%d whole): err %v", len(prefix), wantOff, err)
		}
	})
}
