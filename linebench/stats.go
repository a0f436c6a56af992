package main

import (
	"fmt"
	"math"
	"sort"
)

// minTail is the number of samples that must lie beyond a reported
// high percentile; with fewer, the percentile is an accident of a
// handful of ops and the run fails instead of printing it.
const minTail = 10

// quantile returns the exact p-quantile of samples by nearest rank,
// sorting samples in place. Nothing is bucketed or interpolated.
func quantile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	if !sort.Float64sAreSorted(samples) {
		sort.Float64s(samples)
	}
	rank := int(math.Ceil(p*float64(len(samples)))) - 1
	return samples[max(rank, 0)]
}

// tailQuantile is quantile for a reported tail percentile: it fails
// when fewer than minTail samples lie beyond the rank.
func tailQuantile(what string, samples []float64, p float64) (float64, error) {
	n := len(samples)
	rank := int(math.Ceil(p*float64(n))) - 1
	if beyond := n - 1 - rank; beyond < minTail {
		return 0, fmt.Errorf("%s: p%g over %d samples leaves %d beyond it, need %d", what, p*100, n, beyond, minTail)
	}
	return quantile(samples, p), nil
}

func median(samples []float64) float64 { return quantile(samples, 0.5) }

func sum(samples []float64) float64 {
	var t float64
	for _, v := range samples {
		t += v
	}
	return t
}

// ratio is num/den, or 0 when nothing was attempted; the table prints
// the base beside it.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
