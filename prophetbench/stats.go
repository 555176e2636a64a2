package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a reported percentile:
// a tail figure resting on fewer is noise, so it is not reported.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p < 1) of sorted,
// the number of samples strictly beyond that rank, and whether at least
// minBeyond of them are — the condition for reporting it.
func percentile(sorted []float64, p float64) (v float64, beyond int, ok bool) {
	n := len(sorted)
	if n == 0 {
		return 0, 0, false
	}
	idx := int(math.Ceil(p*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	beyond = n - 1 - idx
	return sorted[idx], beyond, beyond >= minBeyond
}

// median of an unsorted sample (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// p50 is the nearest-rank median of an unsorted sample (0 for none).
func p50(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	v, _, _ := percentile(s, 0.5)
	return v
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio is num/den, 0 when den is 0 (a layer the workload never used).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// histP50 estimates the median of an obs power-of-two histogram
// snapshot: it finds the bucket holding the middle observation and
// interpolates linearly inside it (bucket bound b holds values in
// [b/2, b)). The registry keeps no finer record.
func histP50(buckets map[int64]int64, count int64) float64 {
	if count == 0 {
		return 0
	}
	bounds := make([]int64, 0, len(buckets))
	for b := range buckets {
		bounds = append(bounds, b)
	}
	sort.Slice(bounds, func(i, j int) bool { return bounds[i] < bounds[j] })
	target := float64(count) / 2
	seen := 0.0
	for _, b := range bounds {
		n := float64(buckets[b])
		if seen+n >= target {
			lo, hi := float64(b)/2, float64(b)
			return lo + (hi-lo)*(target-seen)/n
		}
		seen += n
	}
	return float64(bounds[len(bounds)-1])
}

// trimmed splits a closed-loop pass into consecutive segments of size
// requests by send order — a segment ends when the last of its requests
// has completed and starts where the previous one ended — and keeps the
// fastest keep share of the complete ones. It returns their requests and
// summed duration. Interference from other work on the host only ever
// slows a segment down, so dropping the slowest segments keeps a burst
// of it out of the figures. With fewer than four complete segments it
// keeps the whole pass.
func trimmed(done []doneRec, size int, keep float64, wall time.Duration) (kept []doneRec, dur time.Duration, segments, keptSegments int) {
	d := append([]doneRec(nil), done...)
	sort.Slice(d, func(i, j int) bool { return d[i].i < d[j].i })
	type segment struct {
		reqs []doneRec
		dur  time.Duration
	}
	var segs []segment
	var prevEnd, end time.Duration
	for k := 0; k+size <= len(d); k += size {
		for _, r := range d[k : k+size] {
			if r.at > end {
				end = r.at
			}
		}
		segs = append(segs, segment{d[k : k+size], end - prevEnd})
		prevEnd = end
	}
	if len(segs) < 4 {
		return d, wall, len(segs), len(segs)
	}
	sort.SliceStable(segs, func(i, j int) bool { return segs[i].dur < segs[j].dur })
	n := int(math.Ceil(keep * float64(len(segs))))
	for _, s := range segs[:n] {
		kept = append(kept, s.reqs...)
		dur += s.dur
	}
	return kept, dur, len(segs), n
}
