package jobs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// The checkpoint log is an append-only JSONL file, one record per line,
// named by the spec hash (job-<id>.ckpt.jsonl): a "plan" record first
// (pinning spec hash, input content hash, and shard layout), one "shard"
// record per committed shard carrying its answers, and a final "done"
// record. Appends are fsynced, so a record that made it to the log
// survives a SIGKILL; a record torn mid-write is dropped on the next open,
// exactly the tolerance obs/analyze gives trace files.
const (
	recordV  = 1
	recPlan  = "plan"
	recShard = "shard"
	recDone  = "done"
	ckptExt  = ".ckpt.jsonl"
	ckptPref = "job-"
)

// Record is one line of the checkpoint log; Type says which fields are
// meaningful (plan: V/SpecHash/Adapter/Rows/Shards/InputSHA; shard:
// Shard/Rows/Answers/Failures/Retries; done: Rows).
type Record struct {
	V        int      `json:"v,omitempty"`
	Type     string   `json:"type"`
	SpecHash string   `json:"spec_hash,omitempty"`
	Adapter  string   `json:"adapter,omitempty"`
	Rows     int      `json:"rows,omitempty"`
	Shards   int      `json:"shards,omitempty"`
	InputSHA string   `json:"input_sha,omitempty"`
	Shard    int      `json:"shard"`
	Answers  []string `json:"answers,omitempty"`
	Failures int      `json:"failures,omitempty"`
	Retries  int64    `json:"retries,omitempty"`
}

// LogState is what a read of the checkpoint log recovered: the plan
// record, every committed shard, and where the valid prefix of the file
// ends (a torn tail past it is dropped when the log is reopened).
type LogState struct {
	Plan   *Record
	Shards map[int]*Record
	Done   bool
	// Truncated reports that the file ended in a partial record — the
	// signature of a write torn by a kill — which was tolerated and will
	// be truncated away by OpenAppend.
	Truncated bool
	validOff  int64
}

// CheckpointPath is the log file for one spec id under dir.
func CheckpointPath(dir, id string) string {
	return filepath.Join(dir, ckptPref+id+ckptExt)
}

// ReadLog recovers the state of a checkpoint log. A missing file is an
// empty state, not an error. The final line is allowed to be a torn,
// unterminated record (dropped, Truncated set); a malformed record
// *before* fully-terminated ones is real corruption and a hard error —
// the same contract analyze.Load applies to trace files.
func ReadLog(path string) (*LogState, error) {
	st := &LogState{Shards: map[int]*Record{}}
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return st, nil
	}
	if err != nil {
		return nil, fmt.Errorf("jobs: %w", err)
	}
	defer f.Close()
	br := bufio.NewReader(f)
	var off int64
	line := 0
	for {
		raw, rerr := br.ReadBytes('\n')
		if len(raw) > 0 {
			line++
			if rerr != nil {
				// No trailing newline: the writer terminates every record,
				// so this is a tail torn by a kill. Tolerate and drop it —
				// its shard simply reruns.
				st.Truncated = true
				break
			}
			trimmed := bytes.TrimSpace(raw)
			if len(trimmed) > 0 {
				var rec Record
				if err := json.Unmarshal(trimmed, &rec); err != nil || rec.Type == "" {
					return nil, fmt.Errorf("jobs: checkpoint %s line %d: corrupt record %q", path, line, trimmed)
				}
				switch rec.Type {
				case recPlan:
					if st.Plan != nil {
						return nil, fmt.Errorf("jobs: checkpoint %s line %d: duplicate plan record", path, line)
					}
					if rec.V != recordV {
						return nil, fmt.Errorf("jobs: checkpoint %s: record version %d, this build speaks %d", path, rec.V, recordV)
					}
					st.Plan = &rec
				case recShard:
					st.Shards[rec.Shard] = &rec
				case recDone:
					st.Done = true
				default:
					return nil, fmt.Errorf("jobs: checkpoint %s line %d: unknown record type %q", path, line, rec.Type)
				}
			}
			off += int64(len(raw))
			st.validOff = off
		}
		if rerr != nil {
			if rerr == io.EOF {
				return st, nil
			}
			return nil, fmt.Errorf("jobs: reading %s: %w", path, rerr)
		}
	}
	return st, nil
}

// Log is the append handle over a checkpoint log. Appends are serialized
// and fsynced: once Append returns, the record survives a SIGKILL.
type Log struct {
	mu sync.Mutex
	f  logFile
	// err is the first failed write or sync. It may have left part of a
	// record in the file, so every later Append returns it: a record
	// written after the torn one would share its line, and ReadLog
	// tolerates a torn record only as the file's unterminated tail.
	err error
}

// logFile is what a Log writes to: the *os.File OpenAppend opens, or in
// tests a file that fails part-way.
type logFile interface {
	Write([]byte) (int, error)
	Sync() error
	Close() error
}

// OpenAppend opens the log for appending, first truncating away the torn
// tail ReadLog tolerated (so the file is a clean prefix of fully-
// terminated records before anything new lands after it).
func (st *LogState) OpenAppend(path string) (*Log, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, fmt.Errorf("jobs: %w", err)
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("jobs: %w", err)
	}
	if err := f.Truncate(st.validOff); err != nil {
		f.Close()
		return nil, fmt.Errorf("jobs: truncating torn tail of %s: %w", path, err)
	}
	if _, err := f.Seek(st.validOff, io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("jobs: %w", err)
	}
	return &Log{f: f}, nil
}

// Append writes one record and fsyncs. After a failed write or sync it
// writes nothing and returns that first error.
func (l *Log) Append(rec *Record) error {
	raw, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("jobs: marshal checkpoint record: %w", err)
	}
	raw = append(raw, '\n')
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return l.err
	}
	if _, err := l.f.Write(raw); err != nil {
		l.err = fmt.Errorf("jobs: appending checkpoint: %w", err)
	} else if err := l.f.Sync(); err != nil {
		l.err = fmt.Errorf("jobs: syncing checkpoint: %w", err)
	}
	return l.err
}

// Close closes the log file.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.f.Close()
}
