package main

import (
	"math"
	"sort"
	"time"
)

// tailQuantiles are the candidate tail percentiles, highest first.
var tailQuantiles = []float64{0.999, 0.99, 0.95, 0.9, 0.75}

// tailQuantile is the percentile rule: the highest candidate percentile
// with at least ten samples beyond it among n samples, or the median
// when n is too small for any of them.
func tailQuantile(n int) float64 {
	for _, q := range tailQuantiles {
		if float64(n)*(1-q) >= 10-1e-9 {
			return q
		}
	}
	return 0.5
}

// quantile returns the q-quantile of xs by the nearest-rank method
// (the smallest sample with at least a q share of samples at or below
// it), or 0 for no samples. xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

// median is quantile(xs, 0.5).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// us converts a duration to microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// share returns num/den, or 0 when den is 0.
func share(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
