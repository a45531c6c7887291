package main

import (
	"math"
	"sort"
)

// median returns the middle value (mean of the two middle values for an
// even count); 0 for an empty slice. The input is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of an
// ascending slice: the smallest value with at least q of the samples at or
// below it. 0 for an empty slice.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// stratifiedMedian is the median of each stratum, weighted by the stratum's
// share of all samples. Where the strata sit far apart and the pooled
// median would fall in the thin region between two of them, this moves with
// each stratum's typical value and not with how many samples happened to
// land on either side of the gap. 0 without samples.
func stratifiedMedian(strata [][]float64) float64 {
	sum, n := 0.0, 0
	for _, xs := range strata {
		sum += median(xs) * float64(len(xs))
		n += len(xs)
	}
	return ratio(sum, float64(n))
}

// ratio is a/b, and 0 when b is 0 (a layer that did no work on this
// workload reports 0, not NaN).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
