package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/data"
	"repro/internal/dataio"
	"repro/internal/obs"
	"repro/internal/obs/profile"
)

// knowtrans runs the CLI's main() on args in a helper process (TestMain's
// "main" mode) and returns what it printed and how it exited.
func knowtrans(t *testing.T, args ...string) (stdout, stderr string, exit int) {
	t.Helper()
	cmd := child("main", args...)
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	err := cmd.Run()
	var ee *exec.ExitError
	if err != nil && !errors.As(err, &ee) {
		t.Fatalf("knowtrans %v: %v", args, err)
	}
	return out.String(), errb.String(), cmd.ProcessState.ExitCode()
}

// TestOperatorMistakesExitTwo pins the CLI's error contract: a missing input
// file, an unknown subcommand or flag, or a service started without what it
// needs is an operator mistake — exit 2 with the usage text, never a panic
// (exit 2 without usage), a crash or a success — and it leaves nothing
// behind: a mistake is refused before any obs flag creates its file.
func TestOperatorMistakesExitTwo(t *testing.T) {
	dir := t.TempDir()
	missing := filepath.Join(dir, "no-such-file.jsonl")
	obsFiles := []string{"-trace", filepath.Join(dir, "t.jsonl"), "-cpuprofile", filepath.Join(dir, "c.pprof")}
	// A trace recorded without -sample holds no runtime samples to summarize.
	unsampled := filepath.Join(t.TempDir(), "unsampled.jsonl")
	if err := os.WriteFile(unsampled, []byte(`{"span":1,"name":"experiment","start_us":0,"dur_us":5}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	mistakes := [][]string{
		{"obs", "trace", missing},
		{"obs", "prof", missing},
		{"obs", "prof", missing, "-gate"},
		{"obs", "prof", unsampled, "-gate"},
		// Removed: no caller set the window count; it is 4.
		{"obs", "prof", unsampled, "-windows", "4"},
		// Removed: each analyzer prints one report, its text.
		{"obs", "trace", unsampled, "-json"},
		{"obs", "prof", unsampled, "-json"},
		// Removed: runtime samples ride the -trace file.
		{"transfer", "-dataset", "ED/Beer", "-scale", "0.05", "-sample", "1ms", "-timeline", filepath.Join(dir, "runtime.jsonl")},
		// Runtime samples are trace events: without -trace there is nowhere to
		// write them.
		{"transfer", "-dataset", "ED/Beer", "-scale", "0.05", "-sample", "10ms",
			"-cpuprofile", filepath.Join(dir, "c.pprof"), "-metrics", filepath.Join(dir, "m.json")},
		{"obs", "diff", missing, missing}, // removed: numbers are compared by benchmark/ only
		{"obs", "frobnicate"},
		{"obs"},
		{"frobnicate"},
		// Removed: the drills are Go tests (drill_scenarios_test.go), not modes
		// of the product.
		{"serve", "-selftest"},
		{"route", "-selftest"},
		{"job", "-selftest"},
		{"job", "run", "-kill-after-shards", "1", "-spec", "x"},
		// Removed: each spelled an option that exists (`job plan`, `obs top -n 1`).
		append([]string{"job", "run", "-dry-run", "-spec", "x"}, obsFiles...),
		{"obs", "top", "-once", "-url", "http://127.0.0.1:1"},
		{"route"},
		{"job", "run"},
		append([]string{"route"}, obsFiles...),
		append([]string{"job", "run"}, obsFiles...),
		// The zoo's flags and transfer's -dataset are checked before setup too.
		append([]string{"serve", "-faults", "garbage"}, obsFiles...),
		append([]string{"serve", "-scale", "0"}, obsFiles...),
		// Removed: a non-full batch leaves when nothing of its adapter is in
		// flight, so there is no linger to set.
		append([]string{"serve", "-batch-wait", "2ms"}, obsFiles...),
		append([]string{"transfer", "-dataset", "nope"}, obsFiles...),
		append([]string{"experiment", "table6", "-faults", "garbage"}, obsFiles...),
		append([]string{"experiment", "nope"}, obsFiles...),
		append([]string{"job", "run", "-spec", "x", "-faults", "garbage"}, obsFiles...),
	}
	// Removed: the router knobs no caller ever set are constants of
	// internal/cluster, not flags.
	for _, gone := range []string{"-vnodes", "-fail-threshold", "-retry-budget"} {
		mistakes = append(mistakes, append([]string{"route", "-backends", "http://127.0.0.1:1", gone, "3"}, obsFiles...))
	}
	for _, gone := range []string{"-probe-timeout", "-hedge-min", "-hedge-max", "-attempt-timeout"} {
		mistakes = append(mistakes, append([]string{"route", "-backends", "http://127.0.0.1:1", gone, "1s"}, obsFiles...))
	}
	for _, args := range mistakes {
		stdout, stderr, exit := knowtrans(t, args...)
		if exit != 2 || !strings.Contains(stderr, "usage:") || stdout != "" {
			t.Errorf("knowtrans %v: exit %d, stdout %q, stderr %q; want exit 2 with usage on stderr only",
				args, exit, stdout, stderr)
		}
	}
	if left, _ := os.ReadDir(dir); len(left) != 0 {
		t.Errorf("exit-2 mistakes left %d files behind, first %s", len(left), left[0].Name())
	}
}

// TestSubcommandHelpListsFlags: `-h` lists a subcommand's own flags even
// where the subcommand takes a positional argument first, and a flag may
// come before that argument.
func TestSubcommandHelpListsFlags(t *testing.T) {
	for _, c := range []struct {
		args []string
		flag string
	}{
		// The flag package's listing, not the usage text's synopsis.
		{[]string{"experiment", "-h"}, "  -reps int\n"},
		{[]string{"obs", "trace", "-h"}, "  -top int\n"},
		{[]string{"obs", "prof", "-h"}, "  -gate\n"},
	} {
		stdout, stderr, exit := knowtrans(t, c.args...)
		if exit != 2 || !strings.Contains(stderr, c.flag) || stdout != "" {
			t.Errorf("knowtrans %v: exit %d, stdout %q, stderr %q; want exit 2 listing %q",
				c.args, exit, stdout, stderr, c.flag)
		}
	}
	if stdout, stderr, exit := knowtrans(t, "experiment", "-scale", "0.05", "table1"); exit != 0 || !strings.Contains(stdout, "scale=0.05") {
		t.Errorf("experiment -scale 0.05 table1: exit %d, stdout %q, stderr %q", exit, stdout, stderr)
	}
}

// TestObsTraceFollowStopsWhenTheFileStopsGrowing: `obs trace -follow
// -trace-id` on a complete trace renders the request's path once, then
// exits 0 once the file has stopped growing for two polls.
func TestObsTraceFollowStopsWhenTheFileStopsGrowing(t *testing.T) {
	const id = "0af7651916cd43dd8448eb211c80319c"
	trace := filepath.Join(t.TempDir(), "t.jsonl")
	lines := `{"span":1,"trace":"` + id + `","name":"serve.request","start_us":0,"dur_us":50}` + "\n" +
		`{"span":2,"trace":"ffffffffffffffffffffffffffffffff","name":"experiment","start_us":0,"dur_us":5}` + "\n"
	if err := os.WriteFile(trace, []byte(lines), 0o644); err != nil {
		t.Fatal(err)
	}
	stdout, stderr, exit := knowtrans(t, "obs", "trace", trace, "-follow", "-trace-id", id, "-interval", "10ms")
	if exit != 0 || strings.Count(stdout, "trace "+id+": 1 span(s)") != 1 || strings.Contains(stdout, "experiment") {
		t.Errorf("exit %d, stdout %q, stderr %q; want exit 0 and the one-span path printed once", exit, stdout, stderr)
	}
}

// TestFailedObsSetupReleasesWhatItAcquired: when a late step of the telemetry
// setup fails (-profdir under a regular file), what the earlier steps started
// is stopped before the exit 1 — the CPU profile is a complete gzip stream
// and the trace ends on the sampler's final sample, not wherever a goroutine
// still running at os.Exit happened to be.
func TestFailedObsSetupReleasesWhatItAcquired(t *testing.T) {
	dir := t.TempDir()
	notADir := filepath.Join(dir, "file")
	if err := os.WriteFile(notADir, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	cpu, trace := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "t.jsonl")
	stdout, stderr, exit := knowtrans(t, "route", "-backends", "http://127.0.0.1:1",
		"-cpuprofile", cpu, "-sample", "1ms", "-trace", trace,
		"-metrics", filepath.Join(dir, "m.json"), "-profdir", filepath.Join(notADir, "sub"))
	if exit != 1 || !strings.Contains(stderr, "create profile dir") || stdout != "" {
		t.Fatalf("exit %d, stdout %q, stderr %q; want exit 1 naming the profile dir", exit, stdout, stderr)
	}
	f, err := os.Open(cpu)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err == nil {
		_, err = io.Copy(io.Discard, zr)
	}
	if err != nil {
		t.Errorf("-cpuprofile is not a complete gzip'd profile (the profiler was never stopped): %v", err)
	}
	tf, err := os.Open(trace)
	if err != nil {
		t.Fatal(err)
	}
	defer tf.Close()
	recs, _, err := obs.ReadJSONL[obs.SpanRecord](tf)
	var samples []obs.SpanRecord
	for _, r := range recs {
		if r.IsEvent() && r.Name == profile.EventSample {
			samples = append(samples, r)
		}
	}
	if err != nil || len(samples) < 2 || samples[len(samples)-1].Attrs["final"] != true {
		t.Errorf("trace holds %d samples (%v); want the first sample and, last, the final one Stop takes", len(samples), err)
	}
	if _, err := os.Stat(filepath.Join(dir, "m.json")); err == nil {
		t.Error("a failed setup wrote the at-exit -metrics file")
	}
}

// TestJobPlanIsDeterministic: the same spec renders the same plan bytes on
// every invocation — no timestamps, no map ordering — from the CLI surface,
// each in a process of its own.
func TestJobPlanIsDeterministic(t *testing.T) {
	dir := t.TempDir()
	ds := &data.Dataset{Name: "bulk", Task: "EM"}
	for i := 0; i < 10; i++ {
		ds.Test = append(ds.Test, &data.Instance{
			ID:         fmt.Sprintf("row-%02d", i),
			Fields:     []data.Field{{Name: "title", Value: fmt.Sprintf("item %d", i)}},
			Candidates: []string{"match", "non-match"},
		})
	}
	var input bytes.Buffer
	if err := dataio.EncodeJSON(ds, "", &input); err != nil {
		t.Fatal(err)
	}
	inputPath := filepath.Join(dir, "input.json")
	specPath := filepath.Join(dir, "spec.json")
	spec := fmt.Sprintf(`{"adapter":"EM/Walmart-Amazon","input":{"path":%q},"output":{"path":%q},"shards":3}`,
		inputPath, filepath.Join(dir, "out.csv"))
	for path, blob := range map[string][]byte{inputPath: input.Bytes(), specPath: []byte(spec)} {
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	first, stderr, exit := knowtrans(t, "job", "plan", "-spec", specPath)
	if exit != 0 || !strings.Contains(first, "shard") {
		t.Fatalf("job plan: exit %d, stdout %q, stderr %q", exit, first, stderr)
	}
	if again, _, _ := knowtrans(t, "job", "plan", "-spec", specPath); again != first {
		t.Fatalf("job plan rendered different bytes across invocations:\n%s---\n%s", first, again)
	}
}
