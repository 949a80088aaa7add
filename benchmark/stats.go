package main

import (
	"math"
	"sort"
)

// rank is the nearest-rank position (1-based) of the p-th percentile among
// n samples: ceil(p/100 * n).
func rank(p, n int) int {
	r := (p*n + 99) / 100
	if r < 1 {
		r = 1
	}
	return r
}

// percentile returns the nearest-rank p-th percentile of sorted (ascending)
// values, and how many samples lie beyond it.
func percentile(sorted []float64, p int) (v float64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	r := rank(p, n)
	return sorted[r-1], n - r
}

// tailLadder are the percentiles op_tail_ms may report, highest first.
var tailLadder = []int{99, 95, 90, 80, 75, 50}

// tailPercentile picks the highest percentile of the ladder that leaves at
// least ten of n samples beyond it — below that a percentile is the reading
// of a handful of outliers, not a property of the system.
func tailPercentile(n int) int {
	for _, p := range tailLadder {
		if n-rank(p, n) >= 10 {
			return p
		}
	}
	return tailLadder[len(tailLadder)-1]
}

func sortedCopy(vs []float64) []float64 {
	out := append([]float64(nil), vs...)
	sort.Float64s(out)
	return out
}

// ratio is a/b, and 0 where there is nothing to divide by: a layer a
// workload does not exercise reads 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(vs []float64) float64 {
	s := sortedCopy(vs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (exclusive method), which is what
// the driver computes spreads with.
func quartiles(vs []float64) (q1, q3 float64) {
	s := sortedCopy(vs)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(i int) float64 { // quartile i of 4
		pos := float64(i*(n+1)) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// mix64 is the SplitMix64 finalizer: the stateless hash the request
// generators draw from, so request i of seed s is the same on every run
// whatever order the clients claim indexes in.
func mix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// draw returns the stream-th independent draw for request i of seed.
func draw(seed int64, i int, stream uint64) uint64 {
	return mix64(mix64(uint64(seed)^(stream*0xD1B54A32D192ED03)) + uint64(i))
}
