package pathenum

import (
	"math"

	"repro/internal/stats"
	"repro/internal/trace"
)

// This file derives the paper's path-structure statistics from
// enumeration results: the explosion summary used by Figs 4, 5 and 8,
// the growth curve of Fig 6, and the hop-rate analyses of Figs 14
// and 15.

// Explosion summarizes the path-explosion behaviour of one message.
type Explosion struct {
	Msg Message

	// Found is true when at least one path reached the destination.
	Found bool
	// T1 is the optimal path duration (valid when Found).
	T1 float64

	// Exploded is true when at least N paths arrived, so TE is valid.
	Exploded bool
	// N is the explosion threshold used (the paper's 2000).
	N int
	// TE is the time to explosion T_N − T1 (valid when Exploded).
	TE float64

	// Paths is the total number of delivered paths observed.
	Paths int
}

// ExplosionSummary computes the T1/TE summary for threshold n.
func (r *Result) ExplosionSummary(n int) Explosion {
	e := Explosion{Msg: r.Msg, N: n, Paths: r.NumPaths()}
	if t1, ok := r.T1(); ok {
		e.Found = true
		e.T1 = t1
	}
	if te, ok := r.TimeToExplosion(n); ok {
		e.Exploded = true
		e.TE = te
	}
	return e
}

// GrowthPoint is one point of the cumulative path-arrival curve.
type GrowthPoint struct {
	SinceT1 float64 // seconds since the first arrival
	Total   int     // cumulative paths delivered
}

// GrowthCurve returns the cumulative number of delivered paths as a
// function of time since T1 — the quantity behind the paper's Fig 6
// histogram. Returns nil when no path arrived.
func (r *Result) GrowthCurve() []GrowthPoint {
	counts := r.ArrivalCounts()
	if len(counts) == 0 {
		return nil
	}
	t1 := counts[0].Time
	total := 0
	out := make([]GrowthPoint, 0, len(counts))
	for _, c := range counts {
		total += c.Count
		out = append(out, GrowthPoint{SinceT1: c.Time - t1, Total: total})
	}
	return out
}

// GrowthRate estimates the exponential growth rate (per second) of the
// cumulative arrival curve, or NaN if it cannot be estimated. The
// homogeneous model (§5.1) predicts this rate approaches the contact
// rate λ.
func (r *Result) GrowthRate() float64 {
	curve := r.GrowthCurve()
	if len(curve) < 2 {
		return math.NaN()
	}
	ts := make([]float64, len(curve))
	ys := make([]float64, len(curve))
	for i, p := range curve {
		ts[i] = p.SinceT1
		ys[i] = float64(p.Total)
	}
	return stats.ExpGrowthRate(ts, ys)
}

// HopRates collects, for each hop index h, the contact rates of the
// nodes appearing at position h across all delivered paths (Fig 14).
// Index 0 is the source position. rates is the per-node contact rate
// vector (trace.Rates).
func HopRates(paths []*Path, rates []float64) [][]float64 {
	var out [][]float64
	var buf []trace.NodeID
	for _, p := range paths {
		buf = p.AppendNodes(buf[:0])
		for h, node := range buf {
			for len(out) <= h {
				out = append(out, nil)
			}
			out[h] = append(out[h], rates[node])
		}
	}
	return out
}

// HopRateSummary is the mean rate at one hop position with a
// confidence half-width (99 % by default in the figures).
type HopRateSummary struct {
	Hop  int
	Mean float64
	CI   float64
	N    int
}

// SummarizeHopRates reduces HopRates output to per-hop means with z
// confidence half-widths.
func SummarizeHopRates(hopRates [][]float64, z float64) []HopRateSummary {
	out := make([]HopRateSummary, 0, len(hopRates))
	for h, xs := range hopRates {
		mean, ci := stats.MeanCI(xs, z)
		out = append(out, HopRateSummary{Hop: h, Mean: mean, CI: ci, N: len(xs)})
	}
	return out
}

// RateRatios collects, for each hop transition t (from hop t to hop
// t+1), the ratios λ_next/λ_prev along all delivered paths (Fig 15).
// Transitions whose predecessor has zero rate are skipped.
func RateRatios(paths []*Path, rates []float64) [][]float64 {
	var out [][]float64
	var buf []trace.NodeID
	for _, p := range paths {
		nodes := p.AppendNodes(buf[:0])
		buf = nodes
		for i := 0; i+1 < len(nodes); i++ {
			prev := rates[nodes[i]]
			next := rates[nodes[i+1]]
			if prev == 0 {
				continue
			}
			for len(out) <= i {
				out = append(out, nil)
			}
			out[i] = append(out[i], next/prev)
		}
	}
	return out
}
