package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/dataio"
)

// helperEnv makes this test binary play dpgen itself when it is re-executed
// (os/exec's own helper-process idiom).
const helperEnv = "DPGEN_HELPER"

func TestMain(m *testing.M) {
	if os.Getenv(helperEnv) != "" {
		main()
		return
	}
	os.Exit(m.Run())
}

// dpgen runs main() on args in a helper process and returns what it printed
// and how it exited.
func dpgen(t *testing.T, args ...string) (stdout, stderr string, exit int) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), helperEnv+"=1")
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	var ee *exec.ExitError
	if err := cmd.Run(); err != nil && !errors.As(err, &ee) {
		t.Fatalf("dpgen %v: %v", args, err)
	}
	return out.String(), errb.String(), cmd.ProcessState.ExitCode()
}

func TestListPrintsBothTablesInOrder(t *testing.T) {
	stdout, stderr, exit := dpgen(t, "-list")
	if exit != 0 {
		t.Fatalf("exit %d, stderr %q", exit, stderr)
	}
	want := []string{"downstream:"}
	for _, k := range datagen.DownstreamKeys() {
		want = append(want, "  "+k)
	}
	want = append(want, "upstream:")
	for _, k := range datagen.UpstreamKeys() {
		want = append(want, "  "+k)
	}
	if got := strings.Split(strings.TrimSuffix(stdout, "\n"), "\n"); !slices.Equal(got, want) || len(want) != 2+13+12 {
		t.Fatalf("-list printed\n%s\nwant %d lines:\n%s", stdout, len(want), strings.Join(want, "\n"))
	}
}

// TestWritesWhatDataioReads: the files dpgen writes are the job input
// format, each holding what the generator generates.
func TestWritesWhatDataioReads(t *testing.T) {
	dir := t.TempDir()
	if _, stderr, exit := dpgen(t, "-which", "downstream", "-scale", "0.02", "-out", dir); exit != 0 {
		t.Fatalf("exit %d, stderr %q", exit, stderr)
	}
	for _, b := range datagen.Downstream(1, 0.02) {
		f, err := os.Open(filepath.Join(dir, strings.ReplaceAll(b.Key(), "/", "_")+".json"))
		if err != nil {
			t.Fatal(err)
		}
		ds, err := dataio.DecodeJSON(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", b.Key(), err)
		}
		if len(ds.Train) != len(b.DS.Train) || len(ds.Test) != len(b.DS.Test) {
			t.Errorf("%s: read back train=%d test=%d, generated train=%d test=%d",
				b.Key(), len(ds.Train), len(ds.Test), len(b.DS.Train), len(b.DS.Test))
		}
	}
}

func TestUnwritableOutExitsOne(t *testing.T) {
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, stderr, exit := dpgen(t, "-which", "downstream", "-scale", "0.02", "-out", filepath.Join(file, "sub")); exit != 1 || !strings.HasPrefix(stderr, "dpgen: ") {
		t.Fatalf("exit %d, stderr %q; want exit 1 with the error", exit, stderr)
	}
}
