package obs

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// refHistogramQuantile is Histogram.Quantile as it was before the bucketed
// routines were merged: its own rank walk over the observed-min/max edge
// rule, falling back to max.
func refHistogramQuantile(h *Histogram, q float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum float64
	for i := range h.counts {
		n := float64(h.counts[i].Load())
		if n == 0 {
			continue
		}
		if cum+n >= rank {
			lo, hi := h.bucketRange(i)
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
	return math.Float64frombits(h.max.Load())
}

// TestBucketQuantileObservedRangeRule: under the histogram's edge rule
// (first and overflow buckets clamped to the observed min/max) the merged
// routine returns exactly what Histogram.Quantile used to.
func TestBucketQuantileObservedRangeRule(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		h := newHistogram([]float64{1, 10, 100, 1000})
		for n := rng.Intn(40); n > 0; n-- {
			h.Observe(math.Pow(10, rng.Float64()*5-1)) // 0.1 .. 10^4: under- and overflow
		}
		for _, q := range []float64{0, 0.01, 0.5, 0.95, 0.99, 1} {
			if got, want := h.Quantile(q), refHistogramQuantile(h, q); got != want {
				t.Fatalf("trial %d q=%g: Quantile = %v, the old routine gave %v", trial, q, got, want)
			}
		}
	}
}

// TestSampleQuantileRankRule: linear interpolation between the order
// statistics around q·(n-1) — analyze's old rule, now also the router's
// hedge window's and the load generator's, whose old rule took the lower
// of the two statistics. The merged answer never leaves that bracket, so
// the hedge delay moves by less than one order statistic.
func TestSampleQuantileRankRule(t *testing.T) {
	if q := SampleQuantile([]int64{100, 200, 300, 400}, 0.5); q != 250 {
		t.Errorf("p50 of 100..400 = %g, want 250", q)
	}
	if q := SampleQuantile([]float64{7}, 0.95); q != 7 {
		t.Errorf("single sample = %g, want 7", q)
	}
	if q := SampleQuantile[float64](nil, 0.95); q != 0 {
		t.Errorf("empty = %g, want 0", q)
	}
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{2, 64, 511, 512} {
		s := make([]float64, n)
		for i := range s {
			s[i] = rng.ExpFloat64() * 3000
		}
		sort.Float64s(s)
		for _, q := range []float64{0, 0.5, 0.95, 0.99, 1} {
			i := int(q * float64(n-1)) // the old lower-order-statistic rule
			got := SampleQuantile(s, q)
			if got < s[i] || got > s[min(i+1, n-1)] {
				t.Errorf("n=%d q=%g: %g outside [%g, %g]", n, q, got, s[i], s[min(i+1, n-1)])
			}
		}
	}
}
