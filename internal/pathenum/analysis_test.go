package pathenum

import (
	"math"
	"testing"

	"repro/internal/stats"
	"repro/internal/trace"
)

func mkPath(nodes []trace.NodeID) *Path {
	p := newSource(nodes[0], 0)
	for i, n := range nodes[1:] {
		p = p.extend(n, i+1)
	}
	return p
}

func TestHopRates(t *testing.T) {
	rates := []float64{0.1, 0.2, 0.3, 0.4}
	paths := []*Path{
		mkPath([]trace.NodeID{0, 1, 3}),
		mkPath([]trace.NodeID{0, 2, 3}),
	}
	hr := HopRates(paths, rates)
	if len(hr) != 3 {
		t.Fatalf("hops = %d, want 3", len(hr))
	}
	if len(hr[0]) != 2 || hr[0][0] != 0.1 || hr[0][1] != 0.1 {
		t.Errorf("hop 0 = %v", hr[0])
	}
	if len(hr[1]) != 2 || hr[1][0] != 0.2 || hr[1][1] != 0.3 {
		t.Errorf("hop 1 = %v", hr[1])
	}
	if len(hr[2]) != 2 || hr[2][0] != 0.4 || hr[2][1] != 0.4 {
		t.Errorf("hop 2 = %v", hr[2])
	}
}

func TestHopRatesEmpty(t *testing.T) {
	if got := HopRates(nil, nil); got != nil {
		t.Errorf("HopRates(nil) = %v", got)
	}
}

func TestSummarizeHopRates(t *testing.T) {
	hr := [][]float64{{0.1, 0.3}, {0.5}}
	sum := SummarizeHopRates(hr, stats.Z99)
	if len(sum) != 2 {
		t.Fatalf("len = %d", len(sum))
	}
	if sum[0].Hop != 0 || math.Abs(sum[0].Mean-0.2) > 1e-12 || sum[0].N != 2 {
		t.Errorf("hop 0 summary = %+v", sum[0])
	}
	if sum[1].CI != 0 {
		t.Errorf("single-sample CI = %g, want 0", sum[1].CI)
	}
}

func TestRateRatios(t *testing.T) {
	rates := []float64{0.1, 0.2, 0.0, 0.4}
	paths := []*Path{
		mkPath([]trace.NodeID{0, 1, 3}), // ratios 2, 2
		mkPath([]trace.NodeID{2, 3}),    // prev rate 0: skipped
	}
	rr := RateRatios(paths, rates)
	if len(rr) != 2 {
		t.Fatalf("transitions = %d, want 2", len(rr))
	}
	if len(rr[0]) != 1 || math.Abs(rr[0][0]-2) > 1e-12 {
		t.Errorf("transition 0 = %v", rr[0])
	}
	if len(rr[1]) != 1 || math.Abs(rr[1][0]-2) > 1e-12 {
		t.Errorf("transition 1 = %v", rr[1])
	}
}

func TestGrowthRatePositiveForExponentialArrivals(t *testing.T) {
	// Binary-tree spread: source meets 1 relay, relays meet fresh
	// relays each step, all meeting dst at the end — arrival counts
	// grow with step. Simpler: synthesize a Result directly.
	res := &Result{Delta: 10, Msg: Message{Src: 0, Dst: 9}}
	// Arrivals at steps 0,1,1,2,2,2,2 — roughly doubling.
	steps := []int{0, 1, 1, 2, 2, 2, 2}
	for _, s := range steps {
		p := newSource(0, 0).extend(trace.NodeID(9), s)
		res.Arrivals = append(res.Arrivals, p)
	}
	r := res.GrowthRate()
	if math.IsNaN(r) || r <= 0 {
		t.Errorf("growth rate = %g, want positive", r)
	}
}
