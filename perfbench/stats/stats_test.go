package stats

import (
	"math"
	"testing"
)

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := Median(tc.in); got != tc.want {
			t.Errorf("Median(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
	if !math.IsNaN(Median(nil)) {
		t.Error("Median(nil) is not NaN")
	}
}

// The expected quartiles were produced by Python 3's
// statistics.quantiles(data, n=4), whose default method is "exclusive".
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		in         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{1, 2, 3}, 1, 2, 3},
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 3, 4.5},
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, 2.75, 5.5, 8.25},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, 3, 6, 9},
	} {
		q1, q2, q3 := Quartiles(tc.in)
		if q1 != tc.q1 || q2 != tc.q2 || q3 != tc.q3 {
			t.Errorf("Quartiles(%v) = %v %v %v, want %v %v %v", tc.in, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
	if q1, _, _ := Quartiles([]float64{1}); !math.IsNaN(q1) {
		t.Error("Quartiles of one sample is not NaN")
	}
}

func TestPercentile(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i) // 1..1000, unsorted
	}
	for _, tc := range []struct {
		p      float64
		v      float64
		beyond int
	}{
		{50, 500, 500},
		{99, 990, 10},
		{99.9, 999, 1},
		{100, 1000, 0},
	} {
		v, b := Percentile(xs, tc.p)
		if v != tc.v || b != tc.beyond {
			t.Errorf("Percentile(%v) = %v (%d beyond), want %v (%d beyond)", tc.p, v, b, tc.v, tc.beyond)
		}
	}
}

func TestTailPercentile(t *testing.T) {
	mk := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	for _, tc := range []struct {
		n      int
		p      float64
		beyond int
		ok     bool
	}{
		{1000, 99, 10, true},
		{999, 90, 99, true}, // p99 of 999 leaves 9 beyond
		{10000, 99.9, 10, true},
		{100, 90, 10, true},
		{15, 0, 0, false},
	} {
		p, _, b, ok := TailPercentile(mk(tc.n))
		if p != tc.p || b != tc.beyond || ok != tc.ok {
			t.Errorf("TailPercentile(n=%d) = p%v (%d beyond, ok=%v), want p%v (%d beyond, ok=%v)",
				tc.n, p, b, ok, tc.p, tc.beyond, tc.ok)
		}
	}
}
