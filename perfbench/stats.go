package main

import (
	"fmt"
	"math"
	"slices"
)

// minBeyond is how many samples must lie beyond a percentile before it is
// reported: a p99 over 200 samples is the second-largest sample, not a
// tail estimate.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p < 1) of sorted
// samples, and whether at least minBeyond samples lie beyond it.
func percentile(sorted []int64, p float64) (v int64, ok bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	idx := int(math.Ceil(p*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return sorted[idx], n-(idx+1) >= minBeyond
}

// minSamples is the smallest sample count for which percentile(·, p)
// reports ok.
func minSamples(p float64) int {
	for n := minBeyond; ; n++ {
		idx := int(math.Ceil(p*float64(n))) - 1
		if n-(idx+1) >= minBeyond {
			return n
		}
	}
}

// medianOf returns the median of xs (mean of the middle two for even
// lengths); xs is not modified.
func medianOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// ratio is a quotient that always prints with its base, so a share or a
// per-op figure can be traced back to the counts it came from.
type ratio struct {
	num, den       float64
	numName, denOf string
}

func ratioOf(num float64, numName string, den float64, denOf string) ratio {
	return ratio{num: num, den: den, numName: numName, denOf: denOf}
}

// value is num/den, or 0 when the base is empty.
func (r ratio) value() float64 {
	if r.den == 0 {
		return 0
	}
	return r.num / r.den
}

func (r ratio) String() string {
	return fmt.Sprintf("%.6g (%s %.6g / %s %.6g)", r.value(), r.numName, r.num, r.denOf, r.den)
}
