package stgraph

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/trace"
	"repro/internal/tracegen"
)

func mk(t *testing.T, numNodes int, horizon float64, cs []trace.Contact) *trace.Trace {
	t.Helper()
	tr, err := trace.New("t", numNodes, horizon, cs)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestNewRejectsBadDelta(t *testing.T) {
	tr := mk(t, 3, 100, nil)
	if _, err := New(tr, 0); err == nil {
		t.Errorf("delta 0 accepted")
	}
	if _, err := New(tr, -5); err == nil {
		t.Errorf("negative delta accepted")
	}
	// A delta whose step count overflows int32 (or is not a number)
	// must fail before the build sizes its per-step tables.
	dev := tracegen.Dev(1)
	for _, delta := range []float64{1e-300, math.NaN()} {
		if _, err := New(dev, delta); err == nil {
			t.Errorf("delta %g over horizon %g accepted", delta, dev.Horizon)
		}
	}
}

func TestStepsCoverHorizon(t *testing.T) {
	tr := mk(t, 3, 95, nil)
	g, err := New(tr, 10)
	if err != nil {
		t.Fatal(err)
	}
	if g.Steps != 10 {
		t.Errorf("Steps = %d, want 10", g.Steps)
	}
	g2, _ := New(mk(t, 3, 100, nil), 10)
	if g2.Steps != 10 {
		t.Errorf("Steps = %d, want 10 for exact horizon", g2.Steps)
	}
}

// The paper's Figure 2 example: nodes 1 and 2 in contact during the
// first step, all three pairwise in contact during the second step.
func TestPaperFigure2Example(t *testing.T) {
	tr := mk(t, 3, 20, []trace.Contact{
		{A: 0, B: 1, Start: 0, End: 20}, // nodes "1" and "2"
		{A: 0, B: 2, Start: 10, End: 20},
		{A: 1, B: 2, Start: 10, End: 20},
	})
	g, err := New(tr, 10)
	if err != nil {
		t.Fatal(err)
	}
	if g.Steps != 2 {
		t.Fatalf("Steps = %d, want 2", g.Steps)
	}
	if !g.InContact(0, 0, 1) || g.InContact(0, 0, 2) || g.InContact(0, 1, 2) {
		t.Errorf("step 0 adjacency wrong")
	}
	for _, pair := range [][2]trace.NodeID{{0, 1}, {0, 2}, {1, 2}} {
		if !g.InContact(1, pair[0], pair[1]) {
			t.Errorf("step 1 missing edge %v", pair)
		}
	}
}

func TestContactSpanningMultipleSteps(t *testing.T) {
	tr := mk(t, 2, 100, []trace.Contact{{A: 0, B: 1, Start: 5, End: 35}})
	g, _ := New(tr, 10)
	for s, want := range []bool{true, true, true, true, false} {
		if got := g.InContact(s, 0, 1); got != want {
			t.Errorf("step %d contact = %v, want %v", s, got, want)
		}
	}
}

func TestExclusiveEndOnBoundary(t *testing.T) {
	tr := mk(t, 2, 100, []trace.Contact{{A: 0, B: 1, Start: 0, End: 20}})
	g, _ := New(tr, 10)
	if !g.InContact(0, 0, 1) || !g.InContact(1, 0, 1) {
		t.Errorf("contact should cover steps 0 and 1")
	}
	if g.InContact(2, 0, 1) {
		t.Errorf("contact ending exactly at 20 should not touch step 2")
	}
}

func TestInstantaneousContact(t *testing.T) {
	tr := mk(t, 2, 100, []trace.Contact{{A: 0, B: 1, Start: 15, End: 15}})
	g, _ := New(tr, 10)
	if !g.InContact(1, 0, 1) {
		t.Errorf("instantaneous contact lost")
	}
}

func TestDuplicateContactsDeduped(t *testing.T) {
	tr := mk(t, 2, 100, []trace.Contact{
		{A: 0, B: 1, Start: 0, End: 5},
		{A: 1, B: 0, Start: 2, End: 8},
	})
	g, _ := New(tr, 10)
	if got := len(g.Neighbors(0, 0)); got != 1 {
		t.Errorf("neighbors of 0 at step 0 = %d, want 1", got)
	}
	if g.EdgeCount(0) != 1 {
		t.Errorf("EdgeCount = %d, want 1", g.EdgeCount(0))
	}
}

func TestStepOfAndTimeOf(t *testing.T) {
	tr := mk(t, 2, 100, nil)
	g, _ := New(tr, 10)
	for _, tc := range []struct {
		t    float64
		want int
	}{{0, 0}, {9.99, 0}, {10, 1}, {95, 9}, {1000, 9}, {-5, 0}} {
		if got := g.StepOf(tc.t); got != tc.want {
			t.Errorf("StepOf(%g) = %d, want %d", tc.t, got, tc.want)
		}
	}
	if g.TimeOf(3) != 30 {
		t.Errorf("TimeOf(3) = %g", g.TimeOf(3))
	}
}

// Neighbor order is the determinism contract: rows list contacts in
// first-contact-record order (contacts sorted by start time), not in
// node order.
func TestNeighborInsertionOrder(t *testing.T) {
	tr := mk(t, 4, 10, []trace.Contact{
		{A: 0, B: 3, Start: 0, End: 10},
		{A: 0, B: 1, Start: 2, End: 10},
		{A: 0, B: 2, Start: 4, End: 10},
	})
	g, _ := New(tr, 10)
	got := g.Neighbors(0, 0)
	want := []trace.NodeID{3, 1, 2}
	if len(got) != len(want) {
		t.Fatalf("Neighbors = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Neighbors = %v, want %v (first-contact order)", got, want)
		}
	}
}

func TestActiveNodes(t *testing.T) {
	tr := mk(t, 5, 10, []trace.Contact{{A: 1, B: 3, Start: 0, End: 10}})
	g, _ := New(tr, 10)
	got := g.ActiveNodes(0)
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Errorf("ActiveNodes = %v, want [1 3]", got)
	}
}

// Steps with identical contact patterns must share one frame; a
// pattern change must start a new one.
func TestFrameSharing(t *testing.T) {
	tr := mk(t, 3, 60, []trace.Contact{
		{A: 0, B: 1, Start: 0, End: 30},  // steps 0,1,2
		{A: 1, B: 2, Start: 40, End: 60}, // steps 4,5
	})
	g, _ := New(tr, 10)
	if g.FrameOf(0) != g.FrameOf(1) || g.FrameOf(1) != g.FrameOf(2) {
		t.Errorf("steps 0-2 should share a frame: %d %d %d",
			g.FrameOf(0), g.FrameOf(1), g.FrameOf(2))
	}
	if g.FrameOf(4) != g.FrameOf(5) {
		t.Errorf("steps 4-5 should share a frame")
	}
	if g.FrameOf(0) == g.FrameOf(4) || g.FrameOf(0) == g.FrameOf(3) {
		t.Errorf("distinct patterns share a frame")
	}
	if g.NumFrames() != 3 { // {0-1}, empty, {1-2}
		t.Errorf("NumFrames = %d, want 3", g.NumFrames())
	}
}

func TestComponentsChainAndIsolated(t *testing.T) {
	// Step 0: chain 0-1-2-3 plus pair 4-5; node 6 isolated.
	tr := mk(t, 7, 10, []trace.Contact{
		{A: 0, B: 1, Start: 0, End: 10},
		{A: 1, B: 2, Start: 0, End: 10},
		{A: 2, B: 3, Start: 0, End: 10},
		{A: 4, B: 5, Start: 0, End: 10},
	})
	g, _ := New(tr, 10)
	v := g.View(0)
	if v.NumComponents() != 2 {
		t.Fatalf("NumComponents = %d, want 2", v.NumComponents())
	}
	if v.ComponentOf(6) != -1 {
		t.Errorf("isolated node has component %d", v.ComponentOf(6))
	}
	chain := v.ComponentOf(0)
	for _, x := range []trace.NodeID{1, 2, 3} {
		if v.ComponentOf(x) != chain {
			t.Errorf("node %d not in chain component", x)
		}
	}
	if v.ComponentOf(4) == chain || v.ComponentOf(4) != v.ComponentOf(5) {
		t.Errorf("pair component wrong")
	}
	if got := len(v.Members(chain)); got != 4 {
		t.Errorf("chain component has %d members, want 4", got)
	}
	// Hop distances along the chain.
	for _, tc := range []struct {
		a, b trace.NodeID
		want int
	}{{0, 1, 1}, {0, 2, 2}, {0, 3, 3}, {1, 3, 2}, {2, 2, 0}} {
		d := v.Dist(chain, v.MemberIndex(tc.a), v.MemberIndex(tc.b))
		if d != tc.want {
			t.Errorf("Dist(%d,%d) = %d, want %d", tc.a, tc.b, d, tc.want)
		}
	}
}

// naiveStep rebuilds one step's adjacency the way the pre-index
// implementation did: append in contact order with a linear has-edge
// scan per insertion.
func naiveStep(tr *trace.Trace, delta float64, steps, s int) [][]trace.NodeID {
	adj := make([][]trace.NodeID, tr.NumNodes)
	for _, c := range tr.Contacts() {
		first := int(c.Start / delta)
		last := int(c.End / delta)
		if c.End > c.Start && float64(last)*delta == c.End {
			last--
		}
		if last >= steps {
			last = steps - 1
		}
		if s < first || s > last {
			continue
		}
		dup := false
		for _, n := range adj[c.A] {
			if n == c.B {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		adj[c.A] = append(adj[c.A], c.B)
		adj[c.B] = append(adj[c.B], c.A)
	}
	return adj
}

// Property: every step's CSR rows equal the pre-index adjacency build
// (same neighbors, same order), InContact agrees with row membership,
// and components partition exactly the active nodes with symmetric,
// triangle-consistent distances.
func TestIndexMatchesNaiveBuildProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const n = 12
		var cs []trace.Contact
		for i := 0; i < 25; i++ {
			a := trace.NodeID(rng.Intn(n))
			b := trace.NodeID(rng.Intn(n))
			if a == b {
				continue
			}
			s := rng.Float64() * 90
			cs = append(cs, trace.Contact{A: a, B: b, Start: s, End: s + rng.Float64()*30})
		}
		tr, err := trace.New("q", n, 120, cs)
		if err != nil {
			return false
		}
		g, err := New(tr, 10)
		if err != nil {
			return false
		}
		for s := 0; s < g.Steps; s++ {
			adj := naiveStep(tr, 10, g.Steps, s)
			for x := 0; x < n; x++ {
				row := g.Neighbors(s, trace.NodeID(x))
				if len(row) != len(adj[x]) {
					return false
				}
				for i := range row {
					if row[i] != adj[x][i] {
						return false
					}
				}
				for _, nb := range row {
					if !g.InContact(s, trace.NodeID(x), nb) || !g.InContact(s, nb, trace.NodeID(x)) {
						return false
					}
				}
			}
			v := g.View(s)
			seen := 0
			for c := 0; c < v.NumComponents(); c++ {
				members := v.Members(c)
				if len(members) < 2 {
					return false // components need at least one edge
				}
				seen += len(members)
				for i, a := range members {
					if v.ComponentOf(a) != c || v.MemberIndex(a) != i {
						return false
					}
					if v.Dist(c, i, i) != 0 {
						return false
					}
					for j := range members {
						if v.Dist(c, i, j) != v.Dist(c, j, i) {
							return false
						}
					}
				}
				// Distance 1 iff in contact.
				for i, a := range members {
					for j, b := range members {
						if i == j {
							continue
						}
						if (v.Dist(c, i, j) == 1) != g.InContact(s, a, b) {
							return false
						}
					}
				}
			}
			if seen != len(g.ActiveNodes(s)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: edge counts are symmetric — every neighbor relation
// appears in both adjacency lists.
func TestAdjacencySymmetry(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const n = 10
		var cs []trace.Contact
		for i := 0; i < 15; i++ {
			a := trace.NodeID(rng.Intn(n))
			b := trace.NodeID(rng.Intn(n))
			if a == b {
				continue
			}
			s := rng.Float64() * 90
			cs = append(cs, trace.Contact{A: a, B: b, Start: s, End: s + rng.Float64()*20})
		}
		tr, err := trace.New("q", n, 120, cs)
		if err != nil {
			return false
		}
		g, err := New(tr, 10)
		if err != nil {
			return false
		}
		for s := 0; s < g.Steps; s++ {
			for x := 0; x < n; x++ {
				for _, nb := range g.Neighbors(s, trace.NodeID(x)) {
					if !g.InContact(s, nb, trace.NodeID(x)) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
