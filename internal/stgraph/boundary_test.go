package stgraph

// Property tests for step-boundary edge cases, each checked against
// the vendored pre-sweep reference builder (golden_ref_test.go): the
// regimes where span arithmetic is easy to get subtly wrong are
// contacts ending exactly on a Δ boundary (exclusive end), contacts
// of zero duration (on and off the boundary), contacts spanning the
// full horizon, and a Δ larger than the horizon (a single step).

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/trace"
)

// quickCfg keeps the boundary property sweeps fast under -short.
func quickCfg(t *testing.T) *quick.Config {
	max := 60
	if testing.Short() {
		max = 15
	}
	_ = t
	return &quick.Config{MaxCount: max}
}

// TestBoundaryExactDeltaEnds: every contact ends exactly on a step
// boundary. The end is exclusive — a contact ending at k·Δ must not
// appear in step k — and the sweep's removal events must agree with
// the reference's bucketing.
func TestBoundaryExactDeltaEnds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const n, delta = 8, 10.0
		horizon := 100.0
		var cs []trace.Contact
		for i := 0; i < 20; i++ {
			a := trace.NodeID(rng.Intn(n))
			b := trace.NodeID(rng.Intn(n - 1))
			if b >= a {
				b++
			}
			startStep := rng.Intn(9)
			start := float64(startStep) * delta
			if rng.Intn(2) == 0 {
				start += rng.Float64() * delta // off-grid start, on-grid end
			}
			end := float64(startStep+1+rng.Intn(3)) * delta
			if end > horizon {
				end = horizon
			}
			cs = append(cs, trace.Contact{A: a, B: b, Start: start, End: end})
		}
		tr, err := trace.New("bnd-end", n, horizon, cs)
		if err != nil {
			return false
		}
		assertGraphsEqual(t, "exact-delta-ends", tr, delta)

		// Spot-check the exclusive-end rule directly on a known pair.
		single := trace.MustNew("one", 2, 100, []trace.Contact{{A: 0, B: 1, Start: 0, End: 30}})
		g, err := New(single, delta, nil)
		if err != nil {
			return false
		}
		return g.InContact(2, 0, 1) && !g.InContact(3, 0, 1)
	}
	if err := quick.Check(f, quickCfg(t)); err != nil {
		t.Error(err)
	}
}

// TestBoundaryZeroDuration: instantaneous contacts, including ones
// placed exactly on step boundaries (a zero-duration contact at k·Δ
// belongs to step k, not k−1) and at the horizon (touches no step).
func TestBoundaryZeroDuration(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const n, delta = 8, 10.0
		horizon := 80.0
		var cs []trace.Contact
		for i := 0; i < 25; i++ {
			a := trace.NodeID(rng.Intn(n))
			b := trace.NodeID(rng.Intn(n - 1))
			if b >= a {
				b++
			}
			var at float64
			switch rng.Intn(3) {
			case 0:
				at = float64(rng.Intn(9)) * delta // exactly on a boundary
			case 1:
				at = horizon // at the horizon: no step
			default:
				at = rng.Float64() * horizon
			}
			cs = append(cs, trace.Contact{A: a, B: b, Start: at, End: at})
		}
		tr, err := trace.New("bnd-zero", n, horizon, cs)
		if err != nil {
			return false
		}
		assertGraphsEqual(t, "zero-duration", tr, delta)

		boundary := trace.MustNew("zb", 2, 100, []trace.Contact{{A: 0, B: 1, Start: 20, End: 20}})
		g, err := New(boundary, delta, nil)
		if err != nil {
			return false
		}
		return !g.InContact(1, 0, 1) && g.InContact(2, 0, 1)
	}
	if err := quick.Check(f, quickCfg(t)); err != nil {
		t.Error(err)
	}
}

// TestBoundaryFullHorizonSpan: contacts covering [0, horizon] must
// appear in every step, mixed with short contacts so the sweep's
// never-removed records coexist with churn.
func TestBoundaryFullHorizonSpan(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const n, delta = 8, 10.0
		horizon := 95.0 // non-multiple of delta: last step is partial
		cs := []trace.Contact{
			{A: 0, B: 1, Start: 0, End: horizon},
			{A: 2, B: 3, Start: 0, End: horizon},
		}
		for i := 0; i < 15; i++ {
			a := trace.NodeID(rng.Intn(n))
			b := trace.NodeID(rng.Intn(n - 1))
			if b >= a {
				b++
			}
			start := rng.Float64() * horizon
			cs = append(cs, trace.Contact{A: a, B: b, Start: start, End: start + rng.Float64()*20})
		}
		for i := range cs {
			if cs[i].End > horizon {
				cs[i].End = horizon
			}
		}
		tr, err := trace.New("bnd-full", n, horizon, cs)
		if err != nil {
			return false
		}
		assertGraphsEqual(t, "full-horizon", tr, delta)
		g, err := New(tr, delta, nil)
		if err != nil {
			return false
		}
		for s := 0; s < g.Steps; s++ {
			if !g.InContact(s, 0, 1) || !g.InContact(s, 2, 3) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg(t)); err != nil {
		t.Error(err)
	}
}

// TestBoundaryDeltaLargerThanHorizon: with Δ > horizon the graph has
// exactly one step containing every contact, and the reference and
// sweep builds must agree on it.
func TestBoundaryDeltaLargerThanHorizon(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const n = 8
		horizon := 50.0
		delta := horizon * (1 + rng.Float64()*10)
		var cs []trace.Contact
		for i := 0; i < 12; i++ {
			a := trace.NodeID(rng.Intn(n))
			b := trace.NodeID(rng.Intn(n - 1))
			if b >= a {
				b++
			}
			start := rng.Float64() * horizon
			cs = append(cs, trace.Contact{A: a, B: b, Start: start, End: start + rng.Float64()*(horizon-start)})
		}
		tr, err := trace.New("bnd-delta", n, horizon, cs)
		if err != nil {
			return false
		}
		assertGraphsEqual(t, "delta-gt-horizon", tr, delta)
		g, err := New(tr, delta, nil)
		if err != nil {
			return false
		}
		if g.Steps != 1 {
			return false
		}
		for _, c := range tr.Contacts() {
			if !g.InContact(0, c.A, c.B) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg(t)); err != nil {
		t.Error(err)
	}
}
