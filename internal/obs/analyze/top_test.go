package analyze

import (
	"testing"

	"repro/internal/obs"
)

// refTopQuantile is `obs top`'s private bucketQuantile as it was before
// the bucketed routines were merged.
func refTopQuantile(le []float64, counts []int64, total int64, q float64) float64 {
	if total <= 0 {
		return 0
	}
	rank := q * float64(total)
	var cum float64
	for i, c := range counts {
		n := float64(c)
		if n == 0 {
			continue
		}
		if cum+n >= rank {
			var lo, hi float64
			if i == 0 {
				lo = 0
			} else {
				lo = le[i-1]
			}
			if i < len(le) {
				hi = le[i]
			} else {
				hi = le[len(le)-1]
				lo = hi
			}
			frac := (rank - cum) / n
			if frac < 0 {
				frac = 0
			} else if frac > 1 {
				frac = 1
			}
			return lo + frac*(hi-lo)
		}
		cum += n
	}
	return 0
}

// TestBuildTopEdgeRule: a polled snapshot has no min/max for the interval,
// so the first bucket starts at 0 and the overflow bucket collapses onto
// the last bound. BuildTop reports what the old routine did on each shape.
func TestBuildTopEdgeRule(t *testing.T) {
	le := []float64{10, 100, 1000}
	for _, counts := range [][]int64{
		{4, 0, 0, 0}, // everything in the first bucket: interpolate from 0
		{0, 0, 0, 3}, // everything in overflow: the last bound
		{1, 5, 2, 1},
		{0, 0, 0, 0}, // quiet interval
	} {
		var total int64
		for _, c := range counts {
			total += c
		}
		cur := obs.RegistrySnapshot{Histograms: map[string]obs.HistogramSnapshot{
			ServeLatencyMetric: {Count: total, Le: le, Bkt: counts},
		}}
		s := BuildTop(obs.RegistrySnapshot{}, cur)
		if want := refTopQuantile(le, counts, total, 0.50); s.P50US != want {
			t.Errorf("counts %v: p50 = %g, the old routine gave %g", counts, s.P50US, want)
		}
		if want := refTopQuantile(le, counts, total, 0.95); s.P95US != want {
			t.Errorf("counts %v: p95 = %g, the old routine gave %g", counts, s.P95US, want)
		}
	}
}
