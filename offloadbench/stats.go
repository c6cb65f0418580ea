package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a tail percentile
// before the benchmark reports it: with fewer, one outlier decides the
// value.
const minBeyond = 10

// percentile returns the q-quantile (0 < q < 1) of an ascending slice
// by the nearest-rank rule, and the number of samples strictly beyond
// that rank. ok is false when fewer than minBeyond samples lie beyond
// it, in which case the value must not be reported.
func percentile(sorted []float64, q float64) (v float64, beyond int, ok bool) {
	n := len(sorted)
	if n == 0 {
		return 0, 0, false
	}
	rank := int(math.Ceil(q*float64(n))) - 1
	rank = max(0, min(rank, n-1))
	beyond = n - 1 - rank
	return sorted[rank], beyond, beyond >= minBeyond
}

// median is the 0.5 quantile by nearest rank (0 for no samples).
func median(sorted []float64) float64 {
	v, _, _ := percentile(sorted, 0.5)
	return v
}

// quartiles returns Q1, Q2 and Q3 exactly as Python's
// statistics.quantiles(values, n=4) computes them (the default
// "exclusive" method), so repeat-mode spreads match the spreads an
// external harness computes from the same values. It needs at least
// two values.
func quartiles(values []float64) (q1, q2, q3 float64, ok bool) {
	n := len(values)
	if n < 2 {
		return 0, 0, 0, false
	}
	data := append([]float64(nil), values...)
	sort.Float64s(data)
	m := n + 1
	var out [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := float64(i*m - j*4)
		out[i-1] = (data[j-1]*(4-delta) + data[j]*delta) / 4
	}
	return out[0], out[1], out[2], true
}

// mean is the arithmetic mean (0 for no samples).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// selfTime is a layer's self time: the mean of its spans minus the
// mean of its child layer's spans. The self times of a chain of layers
// plus the innermost span's mean add up to the outermost span's mean
// by construction; they describe the requests only when every layer
// saw the same ones (see checkSpans).
func selfTime(parent, child []float64) float64 {
	return mean(parent) - mean(child)
}
