package main

import (
	"math"
	"sort"
	"time"
)

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile returns the p-th percentile (0 ≤ p ≤ 100) of xs with
// linear interpolation between closest ranks. An empty slice has
// nothing to report and gives 0, which keeps every reported value a
// finite JSON number.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// mean is the arithmetic mean of xs, or 0 for an empty slice.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// tailMinBeyond is how many samples must lie above a reported tail
// percentile for it to be stated at all.
const tailMinBeyond = 10

// tailPercentiles are the candidate tail percentiles, highest first.
var tailPercentiles = []float64{99.9, 99, 90, 75, 50}

// tailPercentile returns the highest candidate percentile with at
// least tailMinBeyond of n samples beyond it. Below 2·tailMinBeyond
// samples no tail can be stated and the median (50) is returned.
func tailPercentile(n int) float64 {
	for _, p := range tailPercentiles {
		if float64(n)*(1-p/100) >= tailMinBeyond-1e-9 {
			return p
		}
	}
	return 50
}

// quartiles returns the first, second and third quartiles of xs by the
// same "exclusive" method as Python's statistics.quantiles(xs, n=4), so
// spreads printed here match spreads computed from the result files
// in Python. It needs at least two values.
func quartiles(xs []float64) [3]float64 {
	s := sortedCopy(xs)
	n := len(s)
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}

// spread is the interquartile distance of xs as a share of its median.
// Fewer than two values have no spread (0).
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q := quartiles(xs)
	if q[1] == 0 {
		return 0
	}
	return (q[2] - q[0]) / math.Abs(q[1])
}

// rateStretch is the length of the stretches medianRate divides a run
// into.
const rateStretch = time.Second

// medianRate cuts a sequence of consecutive intervals, one per
// completed operation, into stretches of at least rateStretch and
// returns the median over the stretches of operations per second. Where
// the whole sequence is shorter than one stretch it is the overall rate.
// Unlike the overall rate, the median ignores a slowdown that lasts
// less than half the run.
func medianRate(intervals []time.Duration) float64 {
	var rates []float64
	var sum time.Duration
	n := 0
	for _, d := range intervals {
		sum += d
		n++
		if sum >= rateStretch {
			rates = append(rates, float64(n)/sum.Seconds())
			sum, n = 0, 0
		}
	}
	if len(rates) == 0 && sum > 0 {
		rates = append(rates, float64(n)/sum.Seconds())
	}
	return median(rates)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func secs(d time.Duration) float64 { return d.Seconds() }

func secsAll(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = secs(d)
	}
	return out
}

// msAll converts durations to milliseconds.
func msAll(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}
