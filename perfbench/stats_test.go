package main

import (
	"math"
	"testing"
)

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 3}, {25, 2}, {100, 5}, {90, 4.6}} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := median([]float64{1, 2, 3, 10}); got != 2.5 {
		t.Errorf("median of four = %v, want 2.5", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	// 1..1000: the 99th percentile lies between 990 and 991.
	var big []float64
	for i := 1000; i >= 1; i-- {
		big = append(big, float64(i))
	}
	if got := percentile(big, 99); math.Abs(got-990.01) > 1e-9 {
		t.Errorf("p99 of 1..1000 = %v, want 990.01", got)
	}
	// A failed request is an infinite latency and lands in the tail.
	if got := percentile([]float64{1, 2, math.Inf(1)}, 100); !math.IsInf(got, 1) {
		t.Errorf("p100 with a failure = %v, want +Inf", got)
	}
	if got := percentile([]float64{1, 2, 3, math.Inf(1)}, 50); got != 2.5 {
		t.Errorf("p50 with one failure in four = %v, want 2.5", got)
	}
}

// TestQuartiles pins the helper to Python's statistics.quantiles(xs, n=4).
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{7}, [3]float64{7, 7, 7}},
	} {
		got := quartiles(c.xs)
		for i := range got {
			if math.Abs(got[i]-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
				break
			}
		}
	}
}

func TestCovered(t *testing.T) {
	ivs := []interval{{2, 4}, {1, 3}, {6, 7}, {6.5, 6.8}}
	if got := covered(ivs, 0, 10); got != 4 {
		t.Errorf("covered = %v, want 4", got)
	}
	if got := covered(ivs, 2.5, 6.5); got != 2 {
		t.Errorf("covered within [2.5, 6.5] = %v, want 2", got)
	}
}
