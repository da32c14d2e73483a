package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile of xs (0 < p <=
// 100): the smallest sample with at least p% of the samples at or below
// it. It is exact — always one of the samples — and leaves xs unchanged.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	return s[min(max(rank, 1), len(s))-1]
}
