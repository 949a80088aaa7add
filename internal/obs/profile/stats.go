package profile

import (
	"math"
	"runtime/metrics"

	"repro/internal/obs"
)

// runtime/metrics names the package reads. All of them have been stable
// since Go 1.17, so there is no per-version probing: a missing metric
// reads as KindBad and is reported as zero.
const (
	rmGoroutines = "/sched/goroutines:goroutines"
	rmHeapLive   = "/memory/classes/heap/objects:bytes"
	rmAllocBytes = "/gc/heap/allocs:bytes"
	rmGCCycles   = "/gc/cycles/total:gc-cycles"
	rmGCPauses   = "/gc/pauses:seconds"
	rmSchedLat   = "/sched/latencies:seconds"
)

// Stats is one point-in-time reading of the process's resource state.
// TotalAllocBytes and GCCycles are cumulative since process start, so
// rates come from the difference of two readings. Pause and latency
// quantiles are over the cumulative runtime-maintained distributions.
type Stats struct {
	Goroutines      int64
	HeapLiveBytes   uint64
	TotalAllocBytes uint64
	GCCycles        uint64
	GCPauseP50US    float64
	GCPauseP95US    float64
	SchedLatP95US   float64
}

// ReadStats takes one reading of every metric the package tracks. It is
// cheap (one metrics.Read over a fixed sample set) and safe to call from
// any goroutine.
func ReadStats() Stats {
	samples := []metrics.Sample{
		{Name: rmGoroutines},
		{Name: rmHeapLive},
		{Name: rmAllocBytes},
		{Name: rmGCCycles},
		{Name: rmGCPauses},
		{Name: rmSchedLat},
	}
	metrics.Read(samples)
	var st Stats
	st.Goroutines = int64(sampleUint64(&samples[0]))
	st.HeapLiveBytes = sampleUint64(&samples[1])
	st.TotalAllocBytes = sampleUint64(&samples[2])
	st.GCCycles = sampleUint64(&samples[3])
	if h := sampleHist(&samples[4]); h != nil {
		st.GCPauseP50US = histQuantileSeconds(h, 0.50) * 1e6
		st.GCPauseP95US = histQuantileSeconds(h, 0.95) * 1e6
	}
	if h := sampleHist(&samples[5]); h != nil {
		st.SchedLatP95US = histQuantileSeconds(h, 0.95) * 1e6
	}
	return st
}

// QuickReadings returns just the goroutine count and live heap bytes —
// the two numbers /healthz reports on every scrape, read without the
// histogram decoding cost of a full ReadStats.
func QuickReadings() (goroutines int64, heapLiveBytes uint64) {
	samples := []metrics.Sample{{Name: rmGoroutines}, {Name: rmHeapLive}}
	metrics.Read(samples)
	return int64(sampleUint64(&samples[0])), sampleUint64(&samples[1])
}

func sampleUint64(s *metrics.Sample) uint64 {
	if s.Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s.Value.Uint64()
}

func sampleHist(s *metrics.Sample) *metrics.Float64Histogram {
	if s.Value.Kind() != metrics.KindFloat64Histogram {
		return nil
	}
	return s.Value.Float64Histogram()
}

// histQuantileSeconds estimates the q-quantile of a runtime histogram
// (obs.BucketQuantile; edge rule: -Inf reads as 0, a +Inf upper edge
// collapses the bucket onto its lower one).
func histQuantileSeconds(h *metrics.Float64Histogram, q float64) float64 {
	return obs.BucketQuantile(h.Counts, q, func(i int) (lo, hi float64) {
		lo, hi = h.Buckets[i], h.Buckets[i+1]
		if math.IsInf(lo, -1) {
			lo = 0
		}
		if math.IsInf(hi, +1) {
			hi = lo
		}
		return lo, hi
	})
}
