package pathenum

import (
	"math/rand"
	"testing"

	"repro/internal/engine"
	"repro/internal/trace"
)

// randomPopulationTrace builds a random sparse trace over n nodes,
// dense enough in contacts that multi-hop paths actually form. Where
// the ids exist it adds the contact chain 62–63–64–65, staggered and
// overlapping, so that paths cross the seam between the first and
// second membership bitset word both across steps and within one
// step's zero-weight closure.
func randomPopulationTrace(rng *rand.Rand, n int, horizon float64) (*trace.Trace, error) {
	var cs []trace.Contact
	m := 120 + rng.Intn(180)
	for i := 0; i < m; i++ {
		a := trace.NodeID(rng.Intn(n))
		b := trace.NodeID(rng.Intn(n))
		if a == b {
			continue
		}
		s := rng.Float64() * horizon * 0.9
		e := s + rng.Float64()*horizon*0.2
		if e > horizon {
			e = horizon
		}
		cs = append(cs, trace.Contact{A: a, B: b, Start: s, End: e})
	}
	for a := trace.NodeID(62); a < 65 && int(a)+1 < n; a++ {
		s := horizon * (0.1 + 0.1*float64(a-62))
		cs = append(cs, trace.Contact{A: a, B: a + 1, Start: s, End: s + horizon*0.15})
	}
	return trace.New("pop-rand", n, horizon, cs)
}

// TestPopulationSizesMatchChainReference pins the enumerator —
// membership bitset rows in a slab arena — byte-identical to the
// pre-index reference enumerator, which resolves membership only by
// walking public parent chains (Path.Contains). The two share no
// membership machinery, so agreement pins the rows' loop avoidance and
// first-preference pruning exactly. Populations cover one-word rows
// (2, 63 and 64 nodes), two-word rows (65 and 128), the first
// three-word rows (129), and random draws of 129–200 nodes, over
// multiple seeds and Delta settings.
func TestPopulationSizesMatchChainReference(t *testing.T) {
	fixed := []int{2, 63, 64, 65, 128, 129}
	random := 14
	if testing.Short() {
		random = 3
	}
	deltas := []float64{5, 10, 20}
	for c := 0; c < len(fixed)+random; c++ {
		seed := engine.DeriveSeed(20260808, c)
		rng := rand.New(rand.NewSource(seed))
		n := 129 + rng.Intn(72)
		if c < len(fixed) {
			n = fixed[c]
		}
		tr, err := randomPopulationTrace(rng, n, 500)
		if err != nil {
			t.Fatal(err)
		}
		opt := Options{Delta: deltas[rng.Intn(len(deltas))], K: 30 + rng.Intn(90)}
		msgs := sampleMessages(rng, tr, 3)
		if n > 63 {
			msgs = append(msgs, Message{Src: 62, Dst: trace.NodeID(min(65, n-1)), Start: 0})
		}
		goldenCompare(t, tr, opt, msgs, "population-chain")
	}
}

// TestWideBatchMatchesChainReference runs the shared-prefix batch path
// on populations of three or more row words (forked row arenas)
// against the chain-walking reference.
func TestWideBatchMatchesChainReference(t *testing.T) {
	cases := 6
	if testing.Short() {
		cases = 2
	}
	for c := 0; c < cases; c++ {
		seed := engine.DeriveSeed(20260809, c)
		rng := rand.New(rand.NewSource(seed))
		tr, err := randomPopulationTrace(rng, 129+rng.Intn(40), 500)
		if err != nil {
			t.Fatal(err)
		}
		opt := Options{Delta: 10, K: 40 + rng.Intn(60)}
		msgs := sharedPrefixBatch(rng, tr, 5)
		batchCompare(t, tr, opt, msgs, "wide-batch")

		enum, err := NewEnumerator(tr, opt)
		if err != nil {
			t.Fatal(err)
		}
		ref := newRefEnumerator(tr, opt)
		results, err := enum.EnumerateAll(msgs, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i, m := range msgs {
			want := ref.enumerate(m)
			if gk, wk := resultKey(results[i]), resultKey(want); gk != wk {
				t.Errorf("case %d message %d diverges from chain reference:\n got %q\nwant %q", c, i, gk, wk)
			}
		}
	}
}
