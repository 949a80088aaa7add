package obs

// The tree's two quantile definitions. Everything that reports a
// percentile — histograms, `obs top`, runtime/metrics summaries, trace
// analysis, the router's hedge delay, the load generator — goes through
// one of them.

// SampleQuantile returns the q-quantile (q in [0,1]) of an ascending
// sample by linear interpolation between the order statistics around rank
// q·(n-1); 0 when the sample is empty.
func SampleQuantile[T int64 | float64](sorted []T, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := q * float64(n-1)
	i := int(pos)
	if i >= n-1 {
		return float64(sorted[n-1])
	}
	return float64(sorted[i]) + (pos-float64(i))*float64(sorted[i+1]-sorted[i])
}

// BucketQuantile estimates the q-quantile from per-bucket counts by linear
// interpolation inside the bucket that crosses rank q·total; 0 when the
// counts are empty. edges gives bucket i's value range and is the caller's
// edge rule: what the first bucket starts at and where an unbounded last
// bucket ends is known only to whoever owns the buckets.
func BucketQuantile[N int64 | uint64](counts []N, q float64, edges func(i int) (lo, hi float64)) float64 {
	var total float64
	for _, c := range counts {
		total += float64(c)
	}
	rank := q * total
	var cum, last float64
	for i, c := range counts {
		n := float64(c)
		if n == 0 {
			continue
		}
		lo, hi := edges(i)
		if cum+n >= rank {
			frac := min(max((rank-cum)/n, 0), 1)
			return lo + frac*(hi-lo)
		}
		cum, last = cum+n, hi
	}
	return last
}
