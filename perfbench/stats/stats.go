// Package stats holds the order statistics the benchmark reports: the
// median, the quartiles exactly as Python's statistics.quantiles(n=4)
// computes them, nearest-rank percentiles, and the highest percentile of
// a fixed ladder that still has at least ten samples beyond it.
package stats

import (
	"math"
	"sort"
)

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// Median returns the middle value of xs (the mean of the two middle
// values for an even count); NaN for an empty slice.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Quartiles returns the first quartile, the median and the third
// quartile of xs by the "exclusive" method of Python's
// statistics.quantiles(xs, n=4). It needs at least two samples; with
// fewer it returns NaNs.
func Quartiles(xs []float64) (q1, q2, q3 float64) {
	if len(xs) < 2 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	s := sorted(xs)
	m := len(s) + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		// Clamp j to 1..n-1 before computing delta, as Python does; at
		// the ends this extrapolates from the two outermost samples.
		j := min(max(i*m/4, 1), len(s)-1)
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// Percentile returns the nearest-rank p-th percentile of xs (0 < p ≤ 100)
// and the number of samples strictly beyond it; NaN and 0 for an empty
// slice.
func Percentile(xs []float64, p float64) (value float64, beyond int) {
	if len(xs) == 0 {
		return math.NaN(), 0
	}
	s := sorted(xs)
	// The tolerance keeps 99.9% of 1000 at rank 999 despite rounding.
	k := int(math.Ceil(p*float64(len(s))/100 - 1e-9))
	k = min(max(k, 1), len(s))
	return s[k-1], len(s) - k
}

// ladder is the fixed set of tail percentiles TailPercentile chooses from.
var ladder = []float64{50, 90, 99, 99.9, 99.99}

// MinBeyond is how many samples must lie beyond a reported percentile.
const MinBeyond = 10

// TailPercentile returns the highest percentile of ladder that has at
// least MinBeyond samples beyond it, its value and that count. ok is
// false when even the median has fewer than MinBeyond samples beyond.
func TailPercentile(xs []float64) (p, value float64, beyond int, ok bool) {
	for i := len(ladder) - 1; i >= 0; i-- {
		v, b := Percentile(xs, ladder[i])
		if b >= MinBeyond {
			return ladder[i], v, b, true
		}
	}
	return 0, math.NaN(), 0, false
}
