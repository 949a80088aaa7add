package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// A set is every workload run once, one process each. -repeat runs several
// sets and shows how far their numbers spread; -agree compares two set
// files against the bounds BENCHMARK.json fixes. Together they are the
// repeatability check the benchmark is accepted on.

// setFile is what -repeat writes and -agree reads.
type setFile struct {
	Seconds   float64   `json:"seconds"`
	Trace     bool      `json:"trace"`
	GoVersion string    `json:"go_version"`
	Revision  string    `json:"vcs_revision"`
	Sets      []runsSet `json:"sets"`
}

// runsSet is one set: the driver line of each workload.
type runsSet struct {
	Seed      int64                 `json:"seed"`
	Workloads map[string]driverLine `json:"workloads"`
}

// values gathers one metric of one workload across the sets.
func (f *setFile) values(workload, metric string) []float64 {
	var vs []float64
	for _, s := range f.Sets {
		if m, ok := s.Workloads[workload].Metrics[metric]; ok {
			vs = append(vs, m.Value)
		}
	}
	return vs
}

// runChild runs one workload in a process of its own — one process per
// workload is the load shape — and returns the driver line it printed last.
func runChild(workload string, seed int64, seconds float64, trace bool) (driverLine, error) {
	var line driverLine
	exe, err := os.Executable()
	if err != nil {
		return line, err
	}
	t := "0"
	if trace {
		t = "1"
	}
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace="+t)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	runErr := cmd.Run()
	last := ""
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if s := strings.TrimSpace(sc.Text()); s != "" {
			last = s
		}
	}
	if err := json.Unmarshal([]byte(last), &line); err != nil {
		if runErr != nil {
			return line, fmt.Errorf("%s seed %d: %w", workload, seed, runErr)
		}
		return line, fmt.Errorf("%s seed %d: last line is not a result: %w", workload, seed, err)
	}
	if runErr != nil || !line.Correct {
		return line, fmt.Errorf("%s seed %d: run incorrect (%d failed of %d): see its output above", workload, seed, line.Failed, line.Attempted)
	}
	return line, nil
}

func runRepeat(workload string, seed int64, seconds float64, trace bool, k int, out, outDir string) int {
	names := []string{workload}
	if workload == "" {
		names = nil
		for _, w := range workloads {
			names = append(names, w.Name)
		}
	} else if _, ok := findWorkload(workload); !ok {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", workload)
		return 2
	}
	file := &setFile{Seconds: seconds, Trace: trace, GoVersion: runtime.Version(), Revision: vcsRevision()}
	status := 0
	for i := 0; i < k; i++ {
		set := runsSet{Seed: seed + int64(i), Workloads: map[string]driverLine{}}
		for _, name := range names {
			fmt.Fprintf(os.Stderr, "set %d/%d seed %d: %s\n", i+1, k, set.Seed, name)
			line, err := runChild(name, set.Seed, seconds, trace)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				status = 1
				continue
			}
			set.Workloads[name] = line
		}
		file.Sets = append(file.Sets, set)
	}
	if out == "" {
		out = filepath.Join(outDir, fmt.Sprintf("set-seed%d-x%d.json", seed, k))
	}
	blob, err := json.MarshalIndent(file, "", "  ")
	if err == nil {
		err = os.WriteFile(out, append(blob, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	list := endToEnd
	if trace {
		list = perLayer
	}
	printSpread(file, names, list)
	fmt.Printf("set file: %s\n", out)
	return status
}

// printSpread prints, per workload and metric, the median, the quartiles,
// the relative range (max-min over median) and the spread the driver
// accepts the benchmark on (interquartile distance over median), marking
// spreads above a third of the metric's bound.
func printSpread(f *setFile, names []string, list []metricSpec) {
	for _, name := range names {
		fmt.Printf("%s (%d sets)\n", name, len(f.Sets))
		fmt.Printf("  %-28s %12s %12s %12s %9s %9s\n", "metric", "median", "q1", "q3", "range", "iqr")
		for _, m := range list {
			vs := f.values(name, m.Name)
			if len(vs) == 0 {
				continue
			}
			s := sortedCopy(vs)
			med := median(vs)
			q1, q3 := quartiles(vs)
			rng, iqr := 0.0, 0.0
			if med != 0 {
				rng, iqr = (s[len(s)-1]-s[0])/med, (q3-q1)/med
			}
			mark := ""
			if m.Bound > 0 && m.Name != "setup_s" && iqr > m.Bound/3 {
				mark = fmt.Sprintf("  spread above a third of the %.3g bound", m.Bound)
			}
			fmt.Printf("  %-28s %12.4f %12.4f %12.4f %8.2f%% %8.2f%%%s\n", m.Name, med, q1, q3, 100*rng, 100*iqr, mark)
		}
	}
}

// runAgree compares the per-metric medians of two set files. A metric
// disagrees when it differs, in either direction, by more than its bound as
// a share of the first file's median.
func runAgree(paths []string) int {
	if len(paths) != 2 {
		fmt.Fprintln(os.Stderr, "benchmark: -agree takes two set files: -agree A.json B.json")
		return 2
	}
	bf, err := loadBenchmarkFile()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	var files [2]setFile
	for i, p := range paths {
		blob, err := os.ReadFile(p)
		if err == nil {
			err = json.Unmarshal(blob, &files[i])
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", p, err)
			return 2
		}
	}
	disagree := 0
	for _, w := range bf.Workloads {
		for _, m := range bf.EndToEnd {
			a, b := files[0].values(w.Name, m.Name), files[1].values(w.Name, m.Name)
			if len(a) == 0 || len(b) == 0 {
				fmt.Printf("%-12s %-18s missing from one of the files\n", w.Name, m.Name)
				disagree++
				continue
			}
			ma, mb := median(a), median(b)
			verdict := "agree"
			if diff := relDiff(ma, mb); diff > m.Bound {
				verdict = "DISAGREE"
				disagree++
			}
			fmt.Printf("%-12s %-18s %12.4f %12.4f %8.2f%% (bound %.1f%%) %s\n", w.Name, m.Name, ma, mb, 100*relDiff(ma, mb), 100*m.Bound, verdict)
		}
	}
	if disagree > 0 {
		fmt.Printf("%d metrics disagree\n", disagree)
		return 1
	}
	fmt.Println("the two sets agree within every bound")
	return 0
}

// relDiff is |a-b| as a share of |a|.
func relDiff(a, b float64) float64 {
	d := a - b
	if d < 0 {
		d = -d
	}
	if a < 0 {
		a = -a
	}
	if a == 0 {
		if d == 0 {
			return 0
		}
		return 1
	}
	return d / a
}
