package jobs

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
)

func writeLog(t *testing.T, path string, recs ...*Record) {
	t.Helper()
	st, err := ReadLog(path)
	if err != nil {
		t.Fatal(err)
	}
	lg, err := st.OpenAppend(path)
	if err != nil {
		t.Fatal(err)
	}
	defer lg.Close()
	for _, rec := range recs {
		if err := lg.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCheckpointMissingFile(t *testing.T) {
	st, err := ReadLog(filepath.Join(t.TempDir(), "nope.ckpt.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if st.Plan != nil || len(st.Shards) != 0 || st.Done || st.Truncated {
		t.Fatalf("missing file should read as empty state, got %+v", st)
	}
}

func TestCheckpointTruncatedTail(t *testing.T) {
	path := CheckpointPath(t.TempDir(), "jdeadbeef")
	writeLog(t, path,
		&Record{V: recordV, Type: recPlan, SpecHash: "abc", Rows: 8, Shards: 2, InputSHA: "def"},
		&Record{Type: recShard, Shard: 0, Rows: 4, Answers: []string{"a", "b", "c", "d"}},
	)
	// A SIGKILL mid-append leaves an unterminated final line.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"type":"shard","shard":1,"answers":["e","f`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	st, err := ReadLog(path)
	if err != nil {
		t.Fatalf("torn tail must be tolerated: %v", err)
	}
	if !st.Truncated {
		t.Fatal("Truncated not reported")
	}
	if st.Plan == nil || st.Plan.Rows != 8 {
		t.Fatalf("plan record lost: %+v", st.Plan)
	}
	if len(st.Shards) != 1 || st.Shards[0] == nil {
		t.Fatalf("committed shard lost: %+v", st.Shards)
	}
	if _, ok := st.Shards[1]; ok {
		t.Fatal("torn shard record must not count as committed")
	}

	// Reopening truncates the torn tail away; the next append lands clean.
	lg, err := st.OpenAppend(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := lg.Append(&Record{Type: recShard, Shard: 1, Rows: 4, Answers: []string{"e", "f", "g", "h"}}); err != nil {
		t.Fatal(err)
	}
	lg.Close()
	st2, err := ReadLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Truncated {
		t.Fatal("tail should be clean after truncating reopen")
	}
	if len(st2.Shards) != 2 || strings.Join(st2.Shards[1].Answers, "") != "efgh" {
		t.Fatalf("recommitted shard misread: %+v", st2.Shards[1])
	}
}

func TestCheckpointCorruptMidStream(t *testing.T) {
	path := CheckpointPath(t.TempDir(), "jc0ffee")
	if err := os.WriteFile(path, []byte(
		`{"v":1,"type":"plan","rows":4,"shards":1}`+"\n"+
			`not json at all`+"\n"+
			`{"type":"shard","shard":0,"answers":["a"]}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadLog(path); err == nil {
		t.Fatal("terminated garbage mid-stream must be a hard error, not tolerated")
	}
}

func TestCheckpointVersionGate(t *testing.T) {
	path := CheckpointPath(t.TempDir(), "jbadver")
	if err := os.WriteFile(path, []byte(`{"v":99,"type":"plan","rows":4,"shards":1}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadLog(path); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("want version error, got %v", err)
	}
}

// cutFile is a checkpoint file that takes left more bytes, cuts the write
// that goes past them short, and then takes everything again: a disk that
// filled up until something else freed space, or one transient I/O error.
// Its failSync-th Sync fails the same way.
type cutFile struct {
	*os.File
	left     int
	failSync int
}

func (c *cutFile) Sync() error {
	if c.failSync--; c.failSync == 0 {
		return syscall.EIO
	}
	return c.File.Sync()
}

func (c *cutFile) Write(p []byte) (int, error) {
	if len(p) <= c.left {
		c.left -= len(p)
		return c.File.Write(p)
	}
	n, _ := c.File.Write(p[:c.left])
	c.left = math.MaxInt
	return n, syscall.ENOSPC
}

// TestCheckpointFailedAppendKeepsLogReadable: a write cut short leaves part
// of a record in the log. With two shards committing, the next shard's
// record would land on that torn line, and a terminated malformed line is
// corruption ReadLog refuses, so no shard could ever resume. A failed
// append therefore stops the log: at every cut of shard 1's record, shard
// 2's Append fails, and ReadLog recovers every record whose Append returned
// nil, with the torn one as the dropped tail. A failed fsync after a whole
// write stops the log too.
func TestCheckpointFailedAppendKeepsLogReadable(t *testing.T) {
	recs := []*Record{
		{V: recordV, Type: recPlan, SpecHash: "abc", Rows: 12, Shards: 3, InputSHA: "def"},
		{Type: recShard, Shard: 0, Rows: 4, Answers: []string{"a", "b", "c", "d"}},
		{Type: recShard, Shard: 1, Rows: 4, Answers: []string{"e", "f", "g", "h"}},
		{Type: recShard, Shard: 2, Rows: 4, Answers: []string{"i", "j", "k", "l"}},
	}
	var lens []int // each record's bytes, newline included
	for _, rec := range recs {
		raw, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		lens = append(lens, len(raw)+1)
	}
	dir := t.TempDir()
	for k := 0; k <= lens[2]; k++ {
		path := filepath.Join(dir, fmt.Sprintf("cut-%d%s", k, ckptExt))
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		lg := &Log{f: &cutFile{File: f, left: lens[0] + lens[1] + k}}
		landed := map[int]bool{} // shards whose Append returned nil
		for i, rec := range recs {
			err := lg.Append(rec)
			switch {
			case i < 2 && err != nil:
				t.Fatalf("cut %d: record %d: %v", k, i, err)
			case i == 3 && err == nil:
				t.Fatalf("cut %d: shard 2 appended after shard 1's write failed", k)
			case rec.Type == recShard && err == nil:
				landed[rec.Shard] = true
			}
		}
		if err := lg.Close(); err != nil {
			t.Fatal(err)
		}
		st, err := ReadLog(path)
		if err != nil {
			t.Fatalf("cut %d of shard 1's %d bytes: %v", k, lens[2], err)
		}
		if st.Plan == nil || st.Truncated != (k > 0 && k < lens[2]) {
			t.Errorf("cut %d: plan %v, truncated %v", k, st.Plan, st.Truncated)
		}
		for shard := range landed {
			if st.Shards[shard] == nil {
				t.Errorf("cut %d: shard %d's Append returned nil, ReadLog lost it", k, shard)
			}
		}
		if st.Shards[2] != nil {
			t.Errorf("cut %d: shard 2 is in the log though its Append failed", k)
		}
	}

	f, err := os.Create(filepath.Join(dir, "sync"+ckptExt))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	lg := &Log{f: &cutFile{File: f, left: math.MaxInt, failSync: 3}}
	for i, rec := range recs {
		if err := lg.Append(rec); (err != nil) != (i >= 2) {
			t.Errorf("record %d with shard 1's fsync failing: %v", i, err)
		}
	}
}
