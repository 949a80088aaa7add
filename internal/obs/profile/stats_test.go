package profile

import (
	"math"
	"runtime/metrics"
	"testing"
)

// refHistQuantileSeconds is histQuantileSeconds as it was before the
// bucketed routines were merged.
func refHistQuantileSeconds(h *metrics.Float64Histogram, q float64) float64 {
	var total uint64
	for _, c := range h.Counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum float64
	for i, c := range h.Counts {
		n := float64(c)
		if n == 0 {
			continue
		}
		if cum+n >= rank {
			lo, hi := h.Buckets[i], h.Buckets[i+1]
			if math.IsInf(lo, -1) {
				lo = 0
			}
			if math.IsInf(hi, +1) {
				hi = lo
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
	return 0 // unreached: the rank never exceeds the total
}

// TestHistQuantileSecondsEdgeRule: runtime/metrics histograms are open at
// both ends; -Inf reads as 0 and a +Inf upper edge collapses the bucket
// onto its lower one, exactly as before the merge.
func TestHistQuantileSecondsEdgeRule(t *testing.T) {
	buckets := []float64{math.Inf(-1), 1e-6, 1e-5, 1e-4, math.Inf(+1)}
	for _, counts := range [][]uint64{
		{5, 0, 0, 0}, // all below the first finite edge
		{0, 0, 0, 2}, // all in the unbounded last bucket
		{3, 10, 4, 1},
		{0, 0, 0, 0},
	} {
		h := &metrics.Float64Histogram{Counts: counts, Buckets: buckets}
		for _, q := range []float64{0, 0.5, 0.95, 1} {
			if got, want := histQuantileSeconds(h, q), refHistQuantileSeconds(h, q); got != want {
				t.Errorf("counts %v q=%g: %g, the old routine gave %g", counts, q, got, want)
			}
		}
	}
}
