package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must rank above a reported percentile for it
// to count as measured rather than as the run's maximum in disguise.
const minBeyond = 10

// tailLadder lists the percentiles a tail metric may report, highest first.
// Open-loop phases run at a fixed rate for a fixed time, so a workload's
// sample count — and with it the rung its tail metric lands on — is fixed by
// its configuration, never by how fast the program answered.
var tailLadder = []float64{0.99, 0.95, 0.90, 0.75}

// percentile returns the nearest-rank q-quantile of an ascending slice.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// beyond is the number of samples ranked above the nearest-rank q-quantile.
func beyond(n int, q float64) int {
	return n - int(math.Ceil(q*float64(n)))
}

// tailQuantile returns the highest rung of tailLadder that leaves at least
// minBeyond of n samples above it, or the median when none does.
func tailQuantile(n int) float64 {
	for _, q := range tailLadder {
		if beyond(n, q) >= minBeyond {
			return q
		}
	}
	return 0.5
}

// dist is a sorted sample set with the summaries the report uses.
type dist []float64

func newDist(v []float64) dist {
	d := append(dist(nil), v...)
	sort.Float64s(d)
	return d
}

func (d dist) p50() float64 { return percentile(d, 0.5) }

// tail returns the highest supported percentile and its value.
func (d dist) tail() (q, v float64) {
	q = tailQuantile(len(d))
	return q, percentile(d, q)
}

func (d dist) mean() float64 {
	if len(d) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range d {
		s += v
	}
	return s / float64(len(d))
}

// median of unsorted values.
func median(v []float64) float64 { return newDist(v).p50() }

// ratio is num/den, or 0 for an empty base.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
