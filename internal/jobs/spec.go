// Package jobs is the bulk data-preparation tier: a declarative JobSpec
// (JSON) drives a Plan→Shard→Predict→Verify→Commit pipeline that
// fans contiguous row shards out over the serving tier through the
// serve.Resolver seam — the local Registry for offline runs, the cluster
// Router for fleet-scale ones. An append-only JSONL checkpoint log,
// content-addressed by spec hash, records every committed shard, so a
// SIGKILLed job resumes exactly where it stopped with zero duplicated
// oracle Transfers and byte-identical output. One engine backs both faces:
// POST /v1/jobs on the serve mux (async, progress snapshots, cancel) and
// the `knowtrans job run|plan|resume` CLI.
package jobs

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/serve"
)

// Spec is the declarative description of one bulk job (the dsort idiom:
// the spec says *what*, the engine decides *how*). Specs are JSON; field
// names below are the canonical keys.
type Spec struct {
	// Adapter is the task/dataset key the rows are answered under
	// (serve.ValidateKey shape, e.g. "EM/Walmart-Amazon").
	Adapter string `json:"adapter"`
	Input   Input  `json:"input"`
	Output  Output `json:"output"`
	// Shards is how many contiguous row ranges the input is split into
	// (default 4, clamped to the row count). Each shard is the unit of
	// checkpointing: a committed shard is never recomputed on resume.
	Shards int    `json:"shards,omitempty"`
	Limits Limits `json:"limits,omitempty"`
}

// Input names the rows to process, loaded through internal/dataio.
type Input struct {
	Path string `json:"path"`
	// Format is "csv" or "json" (a dpgen/EncodeJSON dataset); default by
	// file extension.
	Format string `json:"format,omitempty"`
	// Kind picks the CSV→instance lifting: "em" (left_*/right_* pair
	// table), "ed" (error detection), or "di" (imputation). Defaults from
	// the adapter's task code when that code is one of those three.
	Kind string `json:"kind,omitempty"`
	// Target is the column under verification (ed) or imputation (di).
	Target string `json:"target,omitempty"`
	// Label is the label column of em/ed CSV tables.
	Label string `json:"label,omitempty"`
	// Split selects rows from a JSON dataset: "test" (default), "train",
	// or "all" (train then test).
	Split string `json:"split,omitempty"`
}

// Output names the sink the answers are written to, one row per input row
// in input order.
type Output struct {
	Path string `json:"path"`
	// Format is "csv" (id,answer with header) or "jsonl" (one
	// {"id","answer"} object per line); default by file extension.
	Format string `json:"format,omitempty"`
}

// Limits are the fault/throughput knobs of one job.
type Limits struct {
	// Concurrency is the number of row predicts in flight per shard
	// (default 8) — concurrent Predicts through one Resolver ride the
	// per-adapter micro-batch loop, so this is also the batch fuel.
	Concurrency int `json:"concurrency,omitempty"`
	// ShardParallelism is how many shards run at once (default 2).
	ShardParallelism int `json:"shard_parallelism,omitempty"`
	// Retries is how many times one row is retried past its first attempt
	// on transient errors — shed load, drains, timeouts, backend 5xx
	// (default 2). Terminal errors (bad/unknown key) are never retried.
	Retries int `json:"retries,omitempty"`
	// MaxRowFailures is how many rows may exhaust their retries or fail
	// verification before the job aborts (default 0: the first lost row
	// kills the job; it stays resumable).
	MaxRowFailures int `json:"max_row_failures,omitempty"`
	// RowTimeoutS bounds one predict attempt in seconds (default 120 —
	// a cold adapter pays a full Transfer on its first predict).
	RowTimeoutS float64 `json:"row_timeout_s,omitempty"`
}

// ParseSpec decodes a JSON spec and normalizes it: defaults applied, shape
// validated, unknown fields and anything after the spec rejected.
func ParseSpec(blob []byte) (*Spec, error) {
	if len(bytes.TrimSpace(blob)) == 0 {
		return nil, fmt.Errorf("jobs: empty spec")
	}
	var sp Spec
	dec := json.NewDecoder(bytes.NewReader(blob))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sp); err != nil {
		return nil, fmt.Errorf("jobs: bad JSON spec: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("jobs: bad JSON spec: data after the spec at byte %d", dec.InputOffset())
	}
	if err := sp.Normalize(); err != nil {
		return nil, err
	}
	return &sp, nil
}

// ParseSpecFile reads and parses one spec file.
func ParseSpecFile(path string) (*Spec, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("jobs: %w", err)
	}
	sp, err := ParseSpec(blob)
	if err != nil {
		return nil, fmt.Errorf("jobs: spec %s: %w", path, err)
	}
	return sp, nil
}

// confine is what a spec from the network gets instead of the submitter's
// view of the filesystem: its paths must be local (relative, no ".." that
// escapes — filepath.IsLocal) and are resolved under dir. dir also holds
// the checkpoint logs, so a path named like one (in any case) is refused:
// an output there would replace another job's log. Nothing has been read
// and no directory made when it refuses.
func (s *Spec) confine(dir string) error {
	for _, p := range []*string{&s.Input.Path, &s.Output.Path} {
		if !filepath.IsLocal(*p) {
			return fmt.Errorf("jobs: path %q must be relative to the server's jobs directory and stay inside it", *p)
		}
		if strings.HasSuffix(strings.ToLower(*p), ckptExt) {
			return fmt.Errorf("jobs: path %q names a checkpoint log, which the server's jobs directory keeps for its jobs", *p)
		}
		*p = filepath.Join(dir, *p)
	}
	return nil
}

// formatFromExt maps a file extension to a format name.
func formatFromExt(path string) string {
	switch strings.ToLower(filepath.Ext(path)) {
	case ".csv":
		return "csv"
	case ".json":
		return "json"
	case ".jsonl", ".ndjson":
		return "jsonl"
	}
	return ""
}

// Normalize applies defaults and validates the spec in place. It is
// idempotent, and Hash is defined over the normalized form — so a spec
// that spells a default out and one that omits it are the same job.
func (s *Spec) Normalize() error {
	if err := serve.ValidateKey(s.Adapter); err != nil {
		return fmt.Errorf("jobs: adapter: %w", err)
	}
	if s.Input.Path == "" {
		return fmt.Errorf("jobs: input.path is required")
	}
	if s.Input.Format == "" {
		s.Input.Format = formatFromExt(s.Input.Path)
	}
	task, _, _ := strings.Cut(s.Adapter, "/")
	switch s.Input.Format {
	case "csv":
		if s.Input.Kind == "" {
			switch strings.ToLower(task) {
			case "em", "ed", "di":
				s.Input.Kind = strings.ToLower(task)
			default:
				return fmt.Errorf("jobs: csv input needs input.kind (em|ed|di); task %q implies none", task)
			}
		}
		switch s.Input.Kind {
		case "em":
			if s.Input.Label == "" {
				return fmt.Errorf("jobs: em csv input needs input.label")
			}
		case "ed":
			if s.Input.Target == "" || s.Input.Label == "" {
				return fmt.Errorf("jobs: ed csv input needs input.target and input.label")
			}
		case "di":
			if s.Input.Target == "" {
				return fmt.Errorf("jobs: di csv input needs input.target")
			}
		default:
			return fmt.Errorf("jobs: unknown input.kind %q (want em|ed|di)", s.Input.Kind)
		}
		if s.Input.Split != "" {
			return fmt.Errorf("jobs: input.split applies to json inputs only")
		}
	case "json":
		if s.Input.Split == "" {
			s.Input.Split = "test"
		}
		switch s.Input.Split {
		case "test", "train", "all":
		default:
			return fmt.Errorf("jobs: unknown input.split %q (want test|train|all)", s.Input.Split)
		}
		if s.Input.Kind != "" || s.Input.Target != "" || s.Input.Label != "" {
			return fmt.Errorf("jobs: input.kind/target/label apply to csv inputs only")
		}
	default:
		return fmt.Errorf("jobs: unknown input format %q for %s (want csv|json)", s.Input.Format, s.Input.Path)
	}
	if s.Output.Path == "" {
		return fmt.Errorf("jobs: output.path is required")
	}
	if s.Output.Format == "" {
		s.Output.Format = formatFromExt(s.Output.Path)
	}
	switch s.Output.Format {
	case "csv", "jsonl":
	default:
		return fmt.Errorf("jobs: unknown output format %q for %s (want csv|jsonl)", s.Output.Format, s.Output.Path)
	}
	if s.Shards == 0 {
		s.Shards = 4
	}
	if s.Shards < 1 {
		return fmt.Errorf("jobs: shards must be >= 1, got %d", s.Shards)
	}
	if s.Limits.Concurrency == 0 {
		s.Limits.Concurrency = 8
	}
	if s.Limits.ShardParallelism == 0 {
		s.Limits.ShardParallelism = 2
	}
	if s.Limits.Retries == 0 {
		s.Limits.Retries = 2
	}
	if s.Limits.RowTimeoutS == 0 {
		s.Limits.RowTimeoutS = 120
	}
	if s.Limits.Concurrency < 1 || s.Limits.ShardParallelism < 1 || s.Limits.Retries < 0 ||
		s.Limits.MaxRowFailures < 0 || s.Limits.RowTimeoutS < 0 {
		return fmt.Errorf("jobs: negative limits: %+v", s.Limits)
	}
	return nil
}

// Hash is the job's content address: sha256 over the canonical JSON of the
// normalized spec. Struct marshaling fixes field order, and Normalize
// fills defaults first, so the hash is stable across key reordering and
// spelled-out defaults. The checkpoint log is named by it.
func (s *Spec) Hash() string {
	raw, err := json.Marshal(s)
	if err != nil {
		// A Spec is plain data; Marshal cannot fail on it.
		panic(fmt.Sprintf("jobs: marshal spec: %v", err))
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:])
}

// ID is the short job identifier derived from the hash — what /v1/jobs
// routes and checkpoint filenames use.
func (s *Spec) ID() string {
	return "j" + s.Hash()[:16]
}
