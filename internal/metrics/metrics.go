// Package metrics provides small statistics helpers shared by the
// experiment runners: means, percentiles, ratios and series
// downsampling for terminal-width output.
package metrics

import (
	"math"
	"sort"
	"time"
)

// MeanDuration returns the arithmetic mean (0 for empty input).
func MeanDuration(xs []time.Duration) time.Duration {
	if len(xs) == 0 {
		return 0
	}
	var s time.Duration
	for _, x := range xs {
		s += x
	}
	return s / time.Duration(len(xs))
}

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) using
// nearest-rank on a sorted copy.
func Percentile(xs []time.Duration, p float64) time.Duration {
	if len(xs) == 0 {
		return 0
	}
	cp := append([]time.Duration(nil), xs...)
	sort.Slice(cp, func(i, j int) bool { return cp[i] < cp[j] })
	return percentileSorted(cp, p)
}

// Percentiles returns the requested percentiles of xs, sorting one
// copy once — the multi-percentile form report paths use so a p50/p99
// pair doesn't sort the same latency sample twice. Values match
// Percentile exactly (same nearest-rank rule).
func Percentiles(xs []time.Duration, ps ...float64) []time.Duration {
	out := make([]time.Duration, len(ps))
	if len(xs) == 0 {
		return out
	}
	cp := append([]time.Duration(nil), xs...)
	sort.Slice(cp, func(i, j int) bool { return cp[i] < cp[j] })
	for i, p := range ps {
		out[i] = percentileSorted(cp, p)
	}
	return out
}

// percentileSorted is the nearest-rank rule over a sorted sample:
// rank ⌈n·p/100⌉, 1-indexed. (A round-half-up variant shipped here
// once disagreed with nearest rank on small samples — n=6, p=20
// picked rank 1 instead of 2 — and understated p99 by one rank for
// most sample sizes.)
func percentileSorted(cp []time.Duration, p float64) time.Duration {
	if p <= 0 {
		return cp[0]
	}
	if p >= 100 {
		return cp[len(cp)-1]
	}
	idx := int(math.Ceil(float64(len(cp))*p/100)) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(cp) {
		idx = len(cp) - 1
	}
	return cp[idx]
}

// Attainment returns the fraction of xs at or below target — SLO
// attainment over a latency sample. Empty input or a non-positive
// target returns 1 (a vacuous SLO is met).
func Attainment(xs []time.Duration, target time.Duration) float64 {
	if len(xs) == 0 || target <= 0 {
		return 1
	}
	met := 0
	for _, x := range xs {
		if x <= target {
			met++
		}
	}
	return float64(met) / float64(len(xs))
}

// Goodput returns useful completions per second of d: finishes that
// met their deadline, over the serving duration. Zero duration is
// zero goodput.
func Goodput(metDeadline int, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(metDeadline) / d.Seconds()
}

// Fraction returns part/whole, 0 when whole is 0 — shed rate, failure
// rate and similar count ratios.
func Fraction(part, whole int) float64 {
	if whole == 0 {
		return 0
	}
	return float64(part) / float64(whole)
}

// Speedup returns a/b, guarding against division by zero.
func Speedup(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// MeanFloat returns the arithmetic mean of a float slice.
func MeanFloat(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// MeanInt returns the arithmetic mean of an int slice.
func MeanInt(xs []int) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0
	for _, x := range xs {
		s += x
	}
	return float64(s) / float64(len(xs))
}

// Imbalance returns the load-imbalance factor of a share vector:
// max(xs)/mean(xs). 1.0 is perfect balance; it returns 0 for empty or
// all-zero input.
func Imbalance(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	maxV, sum := xs[0], 0.0
	for _, x := range xs {
		if x > maxV {
			maxV = x
		}
		sum += x
	}
	if sum == 0 {
		return 0
	}
	return maxV / (sum / float64(len(xs)))
}

// Jain returns Jain's fairness index of a share vector:
// (Σx)² / (n·Σx²). 1.0 means perfectly even shares, 1/n means one
// participant received everything. Empty or all-zero input returns 1
// (nothing was served, so nobody was treated unfairly).
func Jain(xs []float64) float64 {
	if len(xs) == 0 {
		return 1
	}
	var sum, sq float64
	for _, x := range xs {
		sum += x
		sq += x * x
	}
	if sq == 0 {
		return 1
	}
	return sum * sum / (float64(len(xs)) * sq)
}

// Downsample reduces a series to at most n points by striding, always
// keeping the final point; it returns the original when already short.
func Downsample(xs []float64, n int) []float64 {
	if n <= 0 || len(xs) <= n {
		return xs
	}
	out := make([]float64, 0, n)
	stride := float64(len(xs)) / float64(n)
	for i := 0; i < n; i++ {
		out = append(out, xs[int(float64(i)*stride)])
	}
	out[len(out)-1] = xs[len(xs)-1]
	return out
}

// DownsampleInts is Downsample for integer series.
func DownsampleInts(xs []int, n int) []int {
	if n <= 0 || len(xs) <= n {
		return xs
	}
	out := make([]int, 0, n)
	stride := float64(len(xs)) / float64(n)
	for i := 0; i < n; i++ {
		out = append(out, xs[int(float64(i)*stride)])
	}
	out[len(out)-1] = xs[len(xs)-1]
	return out
}
