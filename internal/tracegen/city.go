package tracegen

import (
	"fmt"
	"math/rand"

	"repro/internal/trace"
)

// The city-scale family extends the paper's 98-node conference
// windows to the population sizes the ROADMAP's serving layer targets:
// thousands of devices over half a day, millions of contact records,
// with the heterogeneity the paper identifies as the driver of every
// result pushed further than a conference can show it. Instead of one
// Uniform(0, max) rate draw, the population splits into explicit rate
// classes — a large low-rate residential mass, a commuter class
// moving through shared spaces, and a small set of hub devices
// (transit gates, kiosks) whose rates sit an order of magnitude
// higher — so in/out rate splits, gradient forwarding and explosion
// asymmetries all have city-scale analogues. Pairwise contacts remain
// product-form Poisson processes (§5.1) via the same fromRates engine
// as the conference generators, so every analysis in the repository
// applies unchanged.

// cityBaseRate calibrates per-node contact intensity so a 2,000-node,
// 12-hour city produces just over one million contact records (the
// class mix below has mean rate ≈0.92·base; records ≈ horizon·Σλ/2).
//
// The calibration also keeps the *instantaneous* contact graph below
// the percolation threshold (short contacts, a small hub class with
// bounded rates): like the conference windows, a city snapshot must
// stay fragmented — a per-step giant component would make every
// frame's component index quadratic in the population and has no
// analogue in short-range radio measurements.
const cityBaseRate = 0.0265

// CityHorizon is the city observation window (12 hours).
const CityHorizon = 12 * 3600.0

// cityClasses is the city population's rate mix, in node order (hub
// devices first, so they occupy a known ID range like the conference
// generators' stationary prefix): each class is a fraction of the
// nodes drawing per-node contact rates uniformly from [min, max]
// contacts/second.
var cityClasses = [...]struct{ frac, min, max float64 }{
	{0.03, 3 * cityBaseRate, 5 * cityBaseRate}, // hub
	{0.25, cityBaseRate, 2.5 * cityBaseRate},   // commuter
	{0.72, 0, cityBaseRate},                    // resident
}

// City generates the named city-scale dataset: nodes devices over 12
// hours in three rate classes — 3% hub devices Uniform(3·base,
// 5·base), 25% commuters Uniform(base, 2.5·base), 72% residents
// Uniform(0, base) — with 8 s mean contacts (at least 3 s) and peer
// mixing 0.25. At 2,000 nodes this yields ≥1M contact records; the
// count scales linearly with the population. The result is
// deterministic for a given (nodes, seed).
func City(nodes int, seed int64) (*trace.Trace, error) {
	if nodes < 2 {
		return nil, fmt.Errorf("tracegen: city needs at least 2 nodes, have %d", nodes)
	}
	rng := rand.New(rand.NewSource(seed))
	rates := make([]float64, nodes)
	node := 0
	for i, cl := range cityClasses {
		count := int(cl.frac*float64(nodes) + 0.5)
		if i == len(cityClasses)-1 {
			count = nodes - node // absorb rounding in the last class
		}
		for j := 0; j < count && node < nodes; j++ {
			rates[node] = cl.min + rng.Float64()*(cl.max-cl.min)
			node++
		}
	}
	return fromRates(Config{
		Name:         fmt.Sprintf("city-%d", nodes),
		NumNodes:     nodes,
		Horizon:      CityHorizon,
		MeanDuration: 8,
		MinDuration:  3,
		PeerMixing:   0.25,
	}, rng, rates)
}

// MustCity is City for static datasets; it panics on error, which
// cannot happen for valid node counts.
func MustCity(nodes int, seed int64) *trace.Trace {
	t, err := City(nodes, seed)
	if err != nil {
		panic(err)
	}
	return t
}
