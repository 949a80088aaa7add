package obs

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// Prometheus text exposition (format version 0.0.4) rendered from a
// RegistrySnapshot, so a long run served behind -pprof can be scraped live.
//
// Metric names in this repository are dotted with an optional "/"-separated
// series suffix ("eval.cell_us/KnowTrans-7B", "skc.lambda/EM/iTunes-Amazon").
// The exposition maps that convention onto Prometheus idiom: dots become
// underscores and the suffix becomes a `series` label, so the family
// `eval_cell_us` carries one time series per method instead of one metric
// family per method.

// PromContentType is the Content-Type of the text exposition format.
const PromContentType = "text/plain; version=0.0.4; charset=utf-8"

// MountMetrics puts the two live scrapes of reg on mux: /metrics, the
// Prometheus text exposition, and /metrics.json, the same snapshot as JSON.
// Both snapshot the registry per scrape, so a long run can be watched while
// it executes. The services' API mux (serve.NewServer) and the -pprof
// telemetry mux mount through here.
func MountMetrics(mux *http.ServeMux, reg *Registry) {
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", PromContentType)
		if err := WritePrometheus(w, reg.Snapshot()); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := reg.WriteJSON(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
}

// promName splits a registry metric name into a valid Prometheus metric
// name and an optional series label value.
func promName(name string) (metric, series string) {
	if i := strings.IndexByte(name, '/'); i >= 0 {
		name, series = name[:i], name[i+1:]
	}
	var b strings.Builder
	for i, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
			b.WriteRune(r)
		case r >= '0' && r <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String(), series
}

// promLabel renders a label set: empty, {series="x"}, or with an extra
// le pair for histogram buckets.
func promLabel(series string, extra ...string) string {
	var parts []string
	if series != "" {
		parts = append(parts, `series="`+escapeLabel(series)+`"`)
	}
	for i := 0; i+1 < len(extra); i += 2 {
		parts = append(parts, extra[i]+`="`+escapeLabel(extra[i+1])+`"`)
	}
	if len(parts) == 0 {
		return ""
	}
	return "{" + strings.Join(parts, ",") + "}"
}

func escapeLabel(v string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

func promFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// promHelp carries HELP text for well-known metric families (keyed by the
// exposition family name, after promName mapping). Families without an
// entry render with a TYPE line only — HELP is optional under the text
// format grammar.
var promHelp = map[string]string{
	"runtime_goroutines":        "Live goroutine count sampled from runtime/metrics.",
	"runtime_heap_live_bytes":   "Live heap bytes (reachable plus unswept) at the last runtime sample.",
	"runtime_heap_objects":      "Live heap object count at the last runtime sample.",
	"runtime_gc_cycles":         "Completed GC cycles since process start.",
	"runtime_gc_pause_p50_us":   "Median stop-the-world GC pause, microseconds, cumulative distribution.",
	"runtime_gc_pause_p95_us":   "95th-percentile stop-the-world GC pause, microseconds, cumulative distribution.",
	"runtime_gc_pause_us":       "Stop-the-world GC pauses observed between runtime samples, microseconds.",
	"runtime_sched_lat_p50_us":  "Median goroutine scheduling latency, microseconds, cumulative distribution.",
	"runtime_sched_lat_p95_us":  "95th-percentile goroutine scheduling latency, microseconds, cumulative distribution.",
	"runtime_alloc_bytes_total": "Heap bytes allocated since sampling started.",
	"runtime_samples":           "Runtime samples taken by the profiler sampler.",
	"profile_captures":          "Triggered CPU/heap profile captures completed.",
	"profile_capture_errors":    "Triggered profile captures that failed.",
	"serve_requests":            "HTTP requests served.",
	"serve_request_us":          "HTTP request latency, microseconds.",
	"serve_inflight":            "Requests currently in flight.",
}

// WritePrometheus renders the snapshot in the Prometheus text exposition
// format: counters and gauges as single samples, histograms as cumulative
// le buckets plus _sum and _count. Families are emitted in sorted order and
// each family's HELP line (for known families) and TYPE line appear exactly
// once, so the output parses under the text-format grammar regardless of
// how names interleave.
func WritePrometheus(w io.Writer, s RegistrySnapshot) error {
	// One entry per registry metric: its sample lines stay contiguous and in
	// emission order (histogram buckets must remain ascending), while
	// entries within a family are sorted by series for a stable exposition.
	type entry struct {
		series string
		lines  []string
	}
	families := map[string]string{} // family -> prom type
	entries := map[string][]entry{} // family -> per-series sample blocks
	add := func(family, typ, series string, lines ...string) {
		if _, ok := families[family]; !ok {
			families[family] = typ
		}
		entries[family] = append(entries[family], entry{series: series, lines: lines})
	}

	for name, v := range s.Counters {
		fam, series := promName(name)
		add(fam, "counter", series, fmt.Sprintf("%s%s %d", fam, promLabel(series), v))
	}
	for name, v := range s.Gauges {
		fam, series := promName(name)
		add(fam, "gauge", series, fmt.Sprintf("%s%s %s", fam, promLabel(series), promFloat(v)))
	}
	for name, h := range s.Histograms {
		fam, series := promName(name)
		var lines []string
		var cum int64
		for i, le := range h.Le {
			if i < len(h.Bkt) {
				cum += h.Bkt[i]
			}
			lines = append(lines, fmt.Sprintf("%s_bucket%s %d",
				fam, promLabel(series, "le", promFloat(le)), cum))
		}
		lines = append(lines,
			fmt.Sprintf("%s_bucket%s %d", fam, promLabel(series, "le", "+Inf"), h.Count),
			fmt.Sprintf("%s_sum%s %s", fam, promLabel(series), promFloat(h.Sum)),
			fmt.Sprintf("%s_count%s %d", fam, promLabel(series), h.Count))
		add(fam, "histogram", series, lines...)
	}

	names := make([]string, 0, len(families))
	for fam := range families {
		names = append(names, fam)
	}
	sort.Strings(names)
	for _, fam := range names {
		if help, ok := promHelp[fam]; ok {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", fam, help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", fam, families[fam]); err != nil {
			return err
		}
		es := entries[fam]
		sort.Slice(es, func(i, j int) bool { return es[i].series < es[j].series })
		for _, e := range es {
			for _, l := range e.lines {
				if _, err := fmt.Fprintln(w, l); err != nil {
					return err
				}
			}
		}
	}
	return nil
}
