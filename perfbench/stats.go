package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between the closest ranks, so percentile(xs, 50) is the
// median. A failed request enters xs as +Inf: it lies beyond every
// latency limit. xs is not modified; an empty xs yields 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	if frac == 0 {
		return s[lo]
	}
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// median is percentile(xs, 50).
func median(xs []float64) float64 { return percentile(xs, 50) }

// quartiles returns the first, second and third quartile of xs with the
// method of Python's statistics.quantiles(xs, n=4) (the "exclusive"
// default), which is how run-to-run spreads of this benchmark are judged.
// It needs at least two values; with one, all three quartiles are it.
func quartiles(xs []float64) [3]float64 {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return [3]float64{}
	case 1:
		return [3]float64{s[0], s[0], s[0]}
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// interval is a closed span of time in milliseconds since a common epoch.
type interval struct{ start, end float64 }

// covered returns how much of [lo, hi] the union of ivs covers.
func covered(ivs []interval, lo, hi float64) float64 {
	s := append([]interval(nil), ivs...)
	sort.Slice(s, func(a, b int) bool { return s[a].start < s[b].start })
	total, reach := 0.0, lo
	for _, iv := range s {
		start, end := math.Max(iv.start, reach), math.Min(iv.end, hi)
		if end > start {
			total += end - start
			reach = end
		}
	}
	return total
}
