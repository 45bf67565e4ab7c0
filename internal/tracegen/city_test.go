package tracegen

import (
	"testing"

	"repro/internal/trace"
)

func TestCityConfigValidation(t *testing.T) {
	t.Run("too few nodes", func(t *testing.T) {
		if _, err := City(1, 7); err == nil {
			t.Error("one-node city accepted")
		}
	})
}

func TestCityTraceDeterministicAndClassStructured(t *testing.T) {
	a, err := City(300, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := City(300, 7)
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != b.Len() || a.NumNodes != b.NumNodes {
		t.Fatalf("same seed differs: %d/%d vs %d/%d", a.NumNodes, a.Len(), b.NumNodes, b.Len())
	}
	for i := range a.Contacts() {
		if a.Contacts()[i] != b.Contacts()[i] {
			t.Fatalf("contact %d differs between identical seeds", i)
		}
	}

	// Class structure: hub nodes (the ID prefix) must out-contact the
	// residential mass by a wide margin on average.
	counts := a.ContactCounts()
	hubs := int(0.03*float64(a.NumNodes) + 0.5)
	hubMean, resMean := 0.0, 0.0
	for i, c := range counts {
		if i < hubs {
			hubMean += float64(c)
		} else if i >= a.NumNodes-int(0.72*float64(a.NumNodes)) {
			resMean += float64(c)
		}
	}
	hubMean /= float64(hubs)
	resMean /= 0.72 * float64(a.NumNodes)
	if hubMean < 3*resMean {
		t.Errorf("hub mean contacts %.1f not well above resident mean %.1f", hubMean, resMean)
	}
}

// The named City datasets must hit the scale contract the registry,
// benchmarks and serving layer advertise. Checking the calibration at
// full 2,000-node scale takes seconds, so it runs only without
// -short; the 300-node city covers the mechanics above.
func TestCityScaleContract(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale city generation skipped in -short")
	}
	tr := MustCity(2000, 1)
	if tr.NumNodes < 2000 {
		t.Fatalf("NumNodes = %d, want >= 2000", tr.NumNodes)
	}
	if tr.Len() < 1_000_000 {
		t.Fatalf("contacts = %d, want >= 1,000,000", tr.Len())
	}
	if tr.Horizon != CityHorizon {
		t.Errorf("Horizon = %g, want %g", tr.Horizon, CityHorizon)
	}
	// Contacts must be valid against the declared population (New
	// validates; reaching here means they are). Spot-check density:
	// the instantaneous contact graph must stay sparse (well below one
	// concurrent contact per node), the regime every per-step index
	// in this repository is designed for.
	var contactSeconds float64
	for _, c := range tr.Contacts() {
		contactSeconds += c.Duration()
	}
	if perNode := contactSeconds / tr.Horizon / float64(tr.NumNodes); perNode > 0.5 {
		t.Errorf("mean concurrent contacts per node %.2f too dense", perNode)
	}
	var _ *trace.Trace = tr
}
