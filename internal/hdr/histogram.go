// Package hdr holds the streaming HDR-style histogram. It lives in a
// leaf package (importing only internal/arch) so that both the serving
// reports and the observability registry can share one
// implementation: serve.Report holds it directly, and internal/obs
// wraps it behind a mutex — without obs→metrics→sim import cycles.
package hdr

import (
	"math"
	"math/bits"

	"aimt/internal/arch"
)

// Histogram is a streaming latency estimator with HDR-style log-linear
// buckets: values below 64 cycles are recorded exactly, larger values
// land in one of 64 linear sub-buckets per power of two, bounding the
// relative quantile error at 1/64 (~1.6%). State is O(buckets) — about
// 64 counters per occupied octave — regardless of how many values are
// recorded, which is what lets serving sweeps of hundreds of thousands
// of requests report p50/p99/p99.9 without retaining a latency slice.
//
// The zero value is an empty histogram ready for use.
type Histogram struct {
	counts []uint64
	count  uint64
	sum    float64
	min    arch.Cycles
	max    arch.Cycles
}

// histSub is the number of linear sub-buckets per power of two; values
// below histSub are recorded exactly.
const histSub = 64

// histIndex maps a non-negative value to its bucket.
func histIndex(v arch.Cycles) int {
	if v < histSub {
		return int(v)
	}
	// Shift v into [64, 128); each extra shift is one further octave.
	exp := bits.Len64(uint64(v)) - 7
	top := int(uint64(v) >> exp)
	return (exp+1)*histSub + (top - histSub)
}

// histUpper returns the largest value mapping to bucket idx.
func histUpper(idx int) arch.Cycles {
	if idx < histSub {
		return arch.Cycles(idx)
	}
	exp := idx/histSub - 1
	sub := idx % histSub
	return arch.Cycles((uint64(histSub+sub+1) << exp) - 1)
}

// Record adds one observation. Negative values clamp to zero.
func (h *Histogram) Record(v arch.Cycles) {
	if v < 0 {
		v = 0
	}
	idx := histIndex(v)
	if idx >= len(h.counts) {
		// append grows the storage geometrically: a stream of rising
		// values costs O(log) reallocations, not one per new bucket.
		h.counts = append(h.counts, make([]uint64, idx+1-len(h.counts))...)
	}
	h.counts[idx]++
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.count++
	h.sum += float64(v)
}

// Merge folds other's observations into h.
func (h *Histogram) Merge(other *Histogram) {
	if other == nil || other.count == 0 {
		return
	}
	if len(other.counts) > len(h.counts) {
		h.counts = append(h.counts, make([]uint64, len(other.counts)-len(h.counts))...)
	}
	for i, c := range other.counts {
		h.counts[i] += c
	}
	if h.count == 0 || other.min < h.min {
		h.min = other.min
	}
	if other.max > h.max {
		h.max = other.max
	}
	h.count += other.count
	h.sum += other.sum
}

// Reset empties the histogram, keeping its bucket storage.
func (h *Histogram) Reset() {
	clear(h.counts)
	h.count, h.sum, h.min, h.max = 0, 0, 0, 0
}

// Count returns the number of recorded observations.
func (h *Histogram) Count() int { return int(h.count) }

// Mean returns the exact mean of the recorded values, 0 when empty.
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Sum returns the exact sum of the recorded values, 0 when empty.
// Together with Count it lets exposition layers emit Prometheus
// summary _sum/_count pairs without re-walking the buckets.
func (h *Histogram) Sum() float64 { return h.sum }

// Max returns the largest recorded value, 0 when empty.
func (h *Histogram) Max() arch.Cycles { return h.max }

// Min returns the smallest recorded value, 0 when empty.
func (h *Histogram) Min() arch.Cycles {
	if h.count == 0 {
		return 0
	}
	return h.min
}

// Quantile returns the p-th percentile (0..100) using nearest-rank over
// the buckets, reported as the bucket's upper bound clamped to the
// observed extremes. It returns 0 for an empty histogram or NaN p.
func (h *Histogram) Quantile(p float64) arch.Cycles {
	if h.count == 0 || math.IsNaN(p) {
		return 0
	}
	if p <= 0 {
		return h.min
	}
	if p >= 100 {
		return h.max
	}
	rank := uint64(math.Ceil(p / 100 * float64(h.count)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			u := histUpper(i)
			if u > h.max {
				u = h.max
			}
			if u < h.min {
				u = h.min
			}
			return u
		}
	}
	return h.max
}
