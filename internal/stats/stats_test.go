package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool {
	return math.Abs(a-b) <= eps
}

func TestMean(t *testing.T) {
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("Mean = %g, want 2.5", got)
	}
	if !math.IsNaN(Mean(nil)) {
		t.Errorf("Mean(nil) should be NaN")
	}
}

func TestVarianceStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Variance(xs); !almostEqual(got, 32.0/7, 1e-12) {
		t.Errorf("Variance = %g, want %g", got, 32.0/7)
	}
	if got := StdDev(xs); !almostEqual(got, math.Sqrt(32.0/7), 1e-12) {
		t.Errorf("StdDev = %g", got)
	}
	if !math.IsNaN(Variance([]float64{1})) {
		t.Errorf("Variance of single sample should be NaN")
	}
}

func TestMeanCI(t *testing.T) {
	xs := []float64{10, 10, 10, 10}
	mean, hw := MeanCI(xs, Z99)
	if mean != 10 || hw != 0 {
		t.Errorf("MeanCI constant = (%g, %g), want (10, 0)", mean, hw)
	}
	mean, hw = MeanCI([]float64{5}, Z99)
	if mean != 5 || hw != 0 {
		t.Errorf("MeanCI single = (%g, %g), want (5, 0)", mean, hw)
	}
	_, hw = MeanCI([]float64{1, 2, 3, 4, 5}, Z99)
	want := Z99 * StdDev([]float64{1, 2, 3, 4, 5}) / math.Sqrt(5)
	if !almostEqual(hw, want, 1e-12) {
		t.Errorf("MeanCI half-width = %g, want %g", hw, want)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{3, 1, 2, 4}
	for _, tc := range []struct{ q, want float64 }{
		{0, 1}, {1, 4}, {0.5, 2.5}, {0.25, 1.75}, {-1, 1}, {2, 4},
	} {
		if got := Quantile(xs, tc.q); !almostEqual(got, tc.want, 1e-12) {
			t.Errorf("Quantile(%g) = %g, want %g", tc.q, got, tc.want)
		}
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Errorf("Quantile(nil) should be NaN")
	}
}

func TestMedian(t *testing.T) {
	if got := Median([]float64{5, 1, 9}); got != 5 {
		t.Errorf("Median = %g, want 5", got)
	}
}

func TestECDF(t *testing.T) {
	e, err := NewECDF([]float64{1, 2, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ x, want float64 }{
		{0, 0}, {1, 0.25}, {1.5, 0.25}, {2, 0.75}, {3, 1}, {10, 1},
	} {
		if got := e.P(tc.x); !almostEqual(got, tc.want, 1e-12) {
			t.Errorf("P(%g) = %g, want %g", tc.x, got, tc.want)
		}
	}
	if e.N() != 4 || e.Min() != 1 || e.Max() != 3 {
		t.Errorf("N/Min/Max = %d/%g/%g", e.N(), e.Min(), e.Max())
	}
}

func TestECDFEmpty(t *testing.T) {
	if _, err := NewECDF(nil); err != ErrEmpty {
		t.Errorf("NewECDF(nil) err = %v, want ErrEmpty", err)
	}
}

func TestECDFQuantileAgreesWithQuantile(t *testing.T) {
	xs := []float64{9, 4, 7, 1, 3, 8}
	e, _ := NewECDF(xs)
	for _, q := range []float64{0, 0.1, 0.5, 0.9, 1} {
		if got, want := e.Quantile(q), Quantile(xs, q); !almostEqual(got, want, 1e-12) {
			t.Errorf("q=%g: %g vs %g", q, got, want)
		}
	}
}

func TestSummarize(t *testing.T) {
	fn, err := Summarize([]float64{1, 2, 3, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	want := FiveNum{Min: 1, Q1: 2, Median: 3, Q3: 4, Max: 5}
	if fn != want {
		t.Errorf("Summarize = %+v, want %+v", fn, want)
	}
	if _, err := Summarize(nil); err != ErrEmpty {
		t.Errorf("Summarize(nil) err = %v", err)
	}
}

func TestLinearFit(t *testing.T) {
	xs := []float64{0, 1, 2, 3}
	ys := []float64{1, 3, 5, 7} // y = 2x+1
	m, b := LinearFit(xs, ys)
	if !almostEqual(m, 2, 1e-12) || !almostEqual(b, 1, 1e-12) {
		t.Errorf("fit = (%g, %g), want (2, 1)", m, b)
	}
	if m, _ := LinearFit([]float64{1}, []float64{1}); !math.IsNaN(m) {
		t.Errorf("single point fit should be NaN")
	}
	if m, _ := LinearFit([]float64{1, 1}, []float64{1, 2}); !math.IsNaN(m) {
		t.Errorf("zero x variance fit should be NaN")
	}
	if m, _ := LinearFit([]float64{1, 2}, []float64{1}); !math.IsNaN(m) {
		t.Errorf("length mismatch should be NaN")
	}
}

func TestExpGrowthRate(t *testing.T) {
	// y = 3·e^{0.5 t}
	var ts, ys []float64
	for i := 0; i < 10; i++ {
		tt := float64(i)
		ts = append(ts, tt)
		ys = append(ys, 3*math.Exp(0.5*tt))
	}
	if r := ExpGrowthRate(ts, ys); !almostEqual(r, 0.5, 1e-9) {
		t.Errorf("rate = %g, want 0.5", r)
	}
	// Zeros are skipped.
	if r := ExpGrowthRate([]float64{0, 1, 2}, []float64{0, math.E, math.E * math.E}); !almostEqual(r, 1, 1e-9) {
		t.Errorf("rate with zero = %g, want 1", r)
	}
	if r := ExpGrowthRate([]float64{0}, []float64{0}); !math.IsNaN(r) {
		t.Errorf("degenerate rate should be NaN")
	}
	if r := ExpGrowthRate([]float64{0, 1}, []float64{1}); !math.IsNaN(r) {
		t.Errorf("mismatched lengths should be NaN")
	}
}

// Property: ECDF is monotone nondecreasing and bounded in [0,1].
func TestECDFMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(100)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 100
		}
		e, err := NewECDF(xs)
		if err != nil {
			return false
		}
		prev := -1.0
		for x := e.Min() - 1; x <= e.Max()+1; x += (e.Max() - e.Min() + 2) / 50 {
			p := e.P(x)
			if p < prev || p < 0 || p > 1 {
				return false
			}
			prev = p
		}
		return e.P(e.Max()) == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: quantiles are monotone in q and bracket the sample range.
func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(50)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.Float64()*200 - 100
		}
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.05 {
			v := Quantile(xs, q)
			if v < prev {
				return false
			}
			prev = v
		}
		return Quantile(xs, 0) == Quantile(xs, -1) && Quantile(xs, 1) == Quantile(xs, 2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: five-number summary is ordered min<=q1<=med<=q3<=max.
func TestSummarizeOrderedProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(60)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64()
		}
		fn, err := Summarize(xs)
		if err != nil {
			return false
		}
		return fn.Min <= fn.Q1 && fn.Q1 <= fn.Median && fn.Median <= fn.Q3 && fn.Q3 <= fn.Max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
