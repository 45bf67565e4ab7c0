// Package stats provides the small statistical toolkit the paper's
// figures are built from: empirical CDFs, quantiles, box-plot
// summaries, confidence intervals, and exponential growth-rate
// estimation. Everything is deterministic and stdlib-only.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned by constructors that require at least one sample.
var ErrEmpty = errors.New("stats: empty sample")

// Mean returns the arithmetic mean of xs, or NaN for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the unbiased sample variance of xs, or NaN if
// len(xs) < 2.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return math.NaN()
	}
	m := Mean(xs)
	sum := 0.0
	for _, x := range xs {
		d := x - m
		sum += d * d
	}
	return sum / float64(len(xs)-1)
}

// StdDev returns the sample standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// MeanCI returns the sample mean of xs and the half-width of a normal
// confidence interval on the mean at the given z value (z = 2.576 for
// the paper's 99 % intervals in Fig 14). The half-width is zero when
// fewer than two samples are available.
func MeanCI(xs []float64, z float64) (mean, halfWidth float64) {
	mean = Mean(xs)
	if len(xs) < 2 {
		return mean, 0
	}
	halfWidth = z * StdDev(xs) / math.Sqrt(float64(len(xs)))
	return mean, halfWidth
}

// Z99 is the standard normal quantile for a two-sided 99 % confidence
// interval.
const Z99 = 2.576

// Quantile returns the q-quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics. xs need not be sorted.
// Returns NaN for empty input.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return sortedQuantile(s, q)
}

func sortedQuantile(sorted []float64, q float64) float64 {
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Median returns the median of xs.
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

// ECDF is an empirical cumulative distribution function over a sample.
type ECDF struct {
	sorted []float64
}

// NewECDF builds an ECDF from a sample (copied; any order).
func NewECDF(xs []float64) (*ECDF, error) {
	if len(xs) == 0 {
		return nil, ErrEmpty
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return &ECDF{sorted: s}, nil
}

// P returns P[X <= x], the fraction of the sample at or below x.
func (e *ECDF) P(x float64) float64 {
	// Index of first element > x.
	i := sort.SearchFloat64s(e.sorted, x)
	for i < len(e.sorted) && e.sorted[i] == x {
		i++
	}
	return float64(i) / float64(len(e.sorted))
}

// N returns the sample size.
func (e *ECDF) N() int { return len(e.sorted) }

// Min and Max return the sample extremes.
func (e *ECDF) Min() float64 { return e.sorted[0] }
func (e *ECDF) Max() float64 { return e.sorted[len(e.sorted)-1] }

// Quantile returns the q-quantile of the underlying sample.
func (e *ECDF) Quantile(q float64) float64 { return sortedQuantile(e.sorted, q) }

// FiveNum is a box-and-whiskers five-number summary (Fig 15).
type FiveNum struct {
	Min, Q1, Median, Q3, Max float64
}

// Summarize computes the five-number summary of xs.
func Summarize(xs []float64) (FiveNum, error) {
	if len(xs) == 0 {
		return FiveNum{}, ErrEmpty
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return FiveNum{
		Min:    s[0],
		Q1:     sortedQuantile(s, 0.25),
		Median: sortedQuantile(s, 0.5),
		Q3:     sortedQuantile(s, 0.75),
		Max:    s[len(s)-1],
	}, nil
}

// ExpGrowthRate estimates the exponential growth rate r of a counting
// series by least-squares fitting log(y) = log(a) + r·t over the points
// with y > 0. This quantifies the paper's observation (Fig 6) that the
// number of delivered paths grows approximately exponentially in time.
// Returns NaN if fewer than two positive points exist.
func ExpGrowthRate(ts, ys []float64) float64 {
	if len(ts) != len(ys) {
		return math.NaN()
	}
	var xs, ls []float64
	for i := range ts {
		if ys[i] > 0 {
			xs = append(xs, ts[i])
			ls = append(ls, math.Log(ys[i]))
		}
	}
	if len(xs) < 2 {
		return math.NaN()
	}
	slope, _ := LinearFit(xs, ls)
	return slope
}

// LinearFit returns the least-squares slope and intercept of y = m·x + b.
// Returns NaN slope for degenerate inputs (fewer than two points or
// zero x variance).
func LinearFit(xs, ys []float64) (slope, intercept float64) {
	n := float64(len(xs))
	if len(xs) != len(ys) || len(xs) < 2 {
		return math.NaN(), math.NaN()
	}
	mx, my := Mean(xs), Mean(ys)
	var sxx, sxy float64
	for i := range xs {
		dx := xs[i] - mx
		sxx += dx * dx
		sxy += dx * (ys[i] - my)
	}
	if sxx == 0 || n < 2 {
		return math.NaN(), math.NaN()
	}
	slope = sxy / sxx
	intercept = my - slope*mx
	return slope, intercept
}
