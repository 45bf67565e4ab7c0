package main

import (
	"math"
	"testing"
	"time"
)

func TestTailPercentileLeavesTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{1, 50}, {19, 50}, {20, 50}, {39, 50}, {40, 75}, {99, 75},
		{100, 90}, {999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", tc.n, got, tc.want)
		}
	}
}

func TestPercentileInterpolates(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, tc := range []struct{ p, want float64 }{{0, 1}, {25, 2}, {50, 3}, {90, 4.6}, {100, 5}} {
		if got := percentile(xs, tc.p); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("percentile(%g) = %g, want %g", tc.p, got, tc.want)
		}
	}
	if xs[0] != 5 {
		t.Error("percentile reordered its input")
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of no samples = %g, want 0", got)
	}
}

func repeatDur(d time.Duration, n int) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = d
	}
	return out
}

func TestMedianRateIgnoresAShortSlowdown(t *testing.T) {
	ms100, ms200 := 100*time.Millisecond, 200*time.Millisecond
	for _, tc := range []struct {
		name      string
		intervals []time.Duration
		want      float64
	}{
		{"stretches 10/s, 5/s, 5/s and a dropped remainder",
			append(append(repeatDur(ms100, 10), repeatDur(ms200, 10)...), repeatDur(ms100, 3)...), 5},
		{"shorter than one stretch", repeatDur(ms100, 3), 10},
		{"two slow stretches of seven", append(repeatDur(ms100, 50), repeatDur(500*time.Millisecond, 4)...), 10},
		{"operations longer than a stretch", []time.Duration{2 * time.Second, 4 * time.Second, time.Second}, 0.5},
	} {
		if got := medianRate(tc.intervals); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("%s: medianRate = %g, want %g", tc.name, got, tc.want)
		}
	}
}

// The wanted values are what Python's statistics.quantiles(xs, n=4)
// returns.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
	} {
		got := quartiles(tc.xs)
		for i := range got {
			if math.Abs(got[i]-tc.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", tc.xs, got, tc.want)
				break
			}
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-(8.25-2.75)/5.5) > 1e-12 {
		t.Errorf("spread = %g", got)
	}
}
