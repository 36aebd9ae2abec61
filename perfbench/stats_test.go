package main

import "testing"

func TestTailQuantileLeavesTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{5000, 0.99},
		{1000, 0.99},
		{999, 0.95},
		{200, 0.95},
		{199, 0.90},
		{100, 0.90},
		{99, 0.75},
		{40, 0.75},
		{39, 0.5},
		{1, 0.5},
	} {
		if got := tailQuantile(tc.n); got != tc.want {
			t.Errorf("tailQuantile(%d) = %g, want %g", tc.n, got, tc.want)
		}
	}
}

func TestTailHasTenLargerSamples(t *testing.T) {
	for _, n := range []int{40, 99, 100, 199, 200, 999, 1000, 4321} {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(n - i) // distinct, descending: the sort matters
		}
		q, got := newDist(v).tail()
		above := 0
		for _, x := range v {
			if x > got {
				above++
			}
		}
		if above < minBeyond {
			t.Errorf("n=%d: p%g = %g has %d samples above it, want >= %d", n, 100*q, got, above, minBeyond)
		}
		// The next rung up, if any, must not qualify.
		for i, rung := range tailLadder {
			if rung == q && i > 0 && beyond(n, tailLadder[i-1]) >= minBeyond {
				t.Errorf("n=%d: chose p%g although p%g has enough samples beyond", n, 100*q, 100*tailLadder[i-1])
			}
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	d := newDist([]float64{5, 1, 4, 2, 3})
	for _, tc := range []struct{ q, want float64 }{{0.2, 1}, {0.5, 3}, {0.9, 5}, {1, 5}, {0, 1}} {
		if got := percentile(d, tc.q); got != tc.want {
			t.Errorf("percentile(%g) = %g, want %g", tc.q, got, tc.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of no samples = %g, want 0", got)
	}
}
