package pathenum

import (
	"math"
	"testing"

	"repro/internal/trace"
)

// chainTrace builds a simple relay scenario:
//
//	t ∈ [0,10):   0-1 in contact
//	t ∈ [20,30):  1-2 in contact
//	t ∈ [40,50):  2-3 in contact
//
// The only path 0→3 is via 1 and 2, arriving in step 4.
func chainTrace(t *testing.T) *trace.Trace {
	t.Helper()
	tr, err := trace.New("chain", 4, 100, []trace.Contact{
		{A: 0, B: 1, Start: 0, End: 10},
		{A: 1, B: 2, Start: 20, End: 30},
		{A: 2, B: 3, Start: 40, End: 50},
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func enumFor(t *testing.T, tr *trace.Trace, opt Options) *Enumerator {
	t.Helper()
	e, err := NewEnumerator(tr, opt)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestEnumerateChain(t *testing.T) {
	e := enumFor(t, chainTrace(t), Options{K: 10})
	res, err := e.Enumerate(Message{Src: 0, Dst: 3, Start: 0})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumPaths() != 1 {
		t.Fatalf("NumPaths = %d, want 1; arrivals: %v", res.NumPaths(), res.Arrivals)
	}
	p := res.Arrivals[0]
	nodes := p.Nodes()
	want := []trace.NodeID{0, 1, 2, 3}
	if len(nodes) != 4 {
		t.Fatalf("path = %v, want %v", nodes, want)
	}
	for i := range want {
		if nodes[i] != want[i] {
			t.Fatalf("path = %v, want %v", nodes, want)
		}
	}
	if p.Hops != 3 {
		t.Errorf("Hops = %d, want 3", p.Hops)
	}
	// Contact 2-3 is during [40,50) = step 4, arrival time 50.
	t1, ok := res.T1()
	if !ok || t1 != 50 {
		t.Errorf("T1 = %g (ok=%v), want 50", t1, ok)
	}
}

func TestEnumerateDirectContact(t *testing.T) {
	tr, _ := trace.New("direct", 3, 50, []trace.Contact{
		{A: 0, B: 1, Start: 10, End: 20},
	})
	e := enumFor(t, tr, Options{K: 10})
	res, err := e.Enumerate(Message{Src: 0, Dst: 1, Start: 0})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumPaths() != 1 {
		t.Fatalf("NumPaths = %d, want 1", res.NumPaths())
	}
	if t1, _ := res.T1(); t1 != 20 {
		t.Errorf("T1 = %g, want 20 (arrival at end of step 1)", t1)
	}
	// After the source meets the destination directly, no further
	// valid path can exist (first preference), so enumeration ends
	// without being exhausted.
	if res.Exhausted {
		t.Errorf("Exhausted should be false")
	}
}

func TestEnumerateNoPath(t *testing.T) {
	tr, _ := trace.New("none", 4, 100, []trace.Contact{
		{A: 0, B: 1, Start: 0, End: 100},
	})
	e := enumFor(t, tr, Options{K: 10})
	res, err := e.Enumerate(Message{Src: 0, Dst: 3, Start: 0})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumPaths() != 0 {
		t.Errorf("NumPaths = %d, want 0", res.NumPaths())
	}
	if _, ok := res.T1(); ok {
		t.Errorf("T1 should not exist")
	}
}

func TestEnumerateValidatesMessage(t *testing.T) {
	e := enumFor(t, chainTrace(t), Options{})
	for _, msg := range []Message{
		{Src: 0, Dst: 0, Start: 0},   // src == dst
		{Src: -1, Dst: 1, Start: 0},  // src out of range
		{Src: 0, Dst: 9, Start: 0},   // dst out of range
		{Src: 0, Dst: 1, Start: -5},  // negative start
		{Src: 0, Dst: 1, Start: 100}, // at horizon
		{Src: 0, Dst: 1, Start: 1e9}, // beyond horizon
	} {
		if _, err := e.Enumerate(msg); err == nil {
			t.Errorf("message %+v accepted", msg)
		}
	}
}

// Path membership rows are one 64-bit word per 64 nodes, so the
// population size sets the row width. A small contact chain must
// enumerate identically on a one-word population, at the word
// boundary, just past it, and several words wide.
func TestEnumerationIndependentOfPopulationSize(t *testing.T) {
	cs := []trace.Contact{
		{A: 0, B: 1, Start: 0, End: 30},
		{A: 1, B: 2, Start: 40, End: 70},
		{A: 2, B: 3, Start: 80, End: 110},
		{A: 0, B: 3, Start: 120, End: 150},
	}
	var want string
	for _, n := range []int{4, 64, 65, 200} {
		tr, err := trace.New("chain", n, 200, cs)
		if err != nil {
			t.Fatal(err)
		}
		r, err := enumFor(t, tr, Options{K: 50}).Enumerate(Message{Src: 0, Dst: 3, Start: 0})
		if err != nil {
			t.Fatal(err)
		}
		if r.NumPaths() == 0 {
			t.Fatalf("%d nodes: no arrivals", n)
		}
		got := resultKey(r)
		if want == "" {
			want = got
		} else if got != want {
			t.Errorf("%d nodes:\n got %q\nwant %q", n, got, want)
		}
	}
}

func TestNewEnumeratorRejectsBadOptions(t *testing.T) {
	tr, _ := trace.New("t", 3, 10, nil)
	if _, err := NewEnumerator(tr, Options{Delta: -1}); err == nil {
		t.Errorf("negative delta accepted")
	}
	if _, err := NewEnumerator(tr, Options{K: -1}); err == nil {
		t.Errorf("negative K accepted")
	}
}

// In-step multi-hop relay: 0-1 and 1-2 overlap in step 0, so the
// message reaches 2 within a single step through the zero-weight
// closure, with two hops.
func TestEnumerateZeroWeightClosure(t *testing.T) {
	tr, _ := trace.New("closure", 3, 20, []trace.Contact{
		{A: 0, B: 1, Start: 0, End: 10},
		{A: 1, B: 2, Start: 0, End: 10},
	})
	e := enumFor(t, tr, Options{K: 10})
	res, err := e.Enumerate(Message{Src: 0, Dst: 2, Start: 0})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumPaths() != 1 {
		t.Fatalf("NumPaths = %d, want 1", res.NumPaths())
	}
	p := res.Arrivals[0]
	if p.Hops != 2 || p.Step != 0 {
		t.Errorf("path hops/step = %d/%d, want 2/0 (%s)", p.Hops, p.Step, p)
	}
	if t1, _ := res.T1(); t1 != 10 {
		t.Errorf("T1 = %g, want 10", t1)
	}
}

// Loop avoidance: triangle 0-1, 1-2 at step 0 and 2-0, 2-3 later. The
// path must never revisit node 0.
func TestEnumerateLoopFree(t *testing.T) {
	tr, _ := trace.New("loops", 4, 60, []trace.Contact{
		{A: 0, B: 1, Start: 0, End: 30},
		{A: 1, B: 2, Start: 0, End: 30},
		{A: 0, B: 2, Start: 0, End: 30},
		{A: 2, B: 3, Start: 40, End: 50},
	})
	e := enumFor(t, tr, Options{K: 100})
	res, err := e.Enumerate(Message{Src: 0, Dst: 3, Start: 0})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumPaths() == 0 {
		t.Fatal("no paths found")
	}
	for _, p := range res.Arrivals {
		seen := map[trace.NodeID]bool{}
		for _, n := range p.Nodes() {
			if seen[n] {
				t.Fatalf("path %s revisits node %d", p, n)
			}
			seen[n] = true
		}
	}
}

// First preference (§4.1): node 1 receives the message at step 0 and
// meets the destination at step 2. A path through 1 that lingers and
// delivers later than step 2 would be invalid. Construct:
//
//	step 0: 0-1
//	step 2: 1-3 (destination)   -> delivery via 1 at step 2
//	step 3: 1-2
//	step 5: 2-3                 -> would deliver via 0,1,2 at step 5: invalid
//
// The only arrivals must be via node 1 at step 2 (and none at step 5,
// because that path contains node 1 which met the destination at
// step 2 — and the 0→1→2 handoff at step 3 happens after 1 already
// delivered).
func TestEnumerateFirstPreference(t *testing.T) {
	tr, _ := trace.New("firstpref", 4, 100, []trace.Contact{
		{A: 0, B: 1, Start: 0, End: 10},
		{A: 1, B: 3, Start: 20, End: 30},
		{A: 1, B: 2, Start: 30, End: 40},
		{A: 2, B: 3, Start: 50, End: 60},
	})
	e := enumFor(t, tr, Options{K: 100})
	res, err := e.Enumerate(Message{Src: 0, Dst: 3, Start: 0})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumPaths() != 1 {
		for _, p := range res.Arrivals {
			t.Logf("arrival: %s", p)
		}
		t.Fatalf("NumPaths = %d, want 1 (only the first-preference path)", res.NumPaths())
	}
	p := res.Arrivals[0]
	if p.Step != 2 {
		t.Errorf("arrival step = %d, want 2", p.Step)
	}
}

// Two disjoint relays produce two distinct paths arriving at
// different times.
func TestEnumerateTwoDisjointPaths(t *testing.T) {
	tr, _ := trace.New("two", 4, 100, []trace.Contact{
		{A: 0, B: 1, Start: 0, End: 10},
		{A: 0, B: 2, Start: 0, End: 10},
		{A: 1, B: 3, Start: 20, End: 30},
		{A: 2, B: 3, Start: 40, End: 50},
	})
	e := enumFor(t, tr, Options{K: 100})
	res, err := e.Enumerate(Message{Src: 0, Dst: 3, Start: 0})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumPaths() != 2 {
		t.Fatalf("NumPaths = %d, want 2", res.NumPaths())
	}
	if s := res.Arrivals[0].Step; s != 2 {
		t.Errorf("first arrival step = %d, want 2", s)
	}
	if s := res.Arrivals[1].Step; s != 4 {
		t.Errorf("second arrival step = %d, want 4", s)
	}
	if te, ok := res.TimeToExplosion(2); !ok || te != 20 {
		t.Errorf("TE(2) = %g (ok=%v), want 20", te, ok)
	}
}

// A persistent contact between a relay and others generates a distinct
// path per step (distinct space-time tuples), as the Figure 3
// algorithm specifies.
func TestEnumeratePersistentContactDistinctPaths(t *testing.T) {
	tr, _ := trace.New("persist", 3, 100, []trace.Contact{
		{A: 0, B: 1, Start: 0, End: 30},  // steps 0,1,2
		{A: 1, B: 2, Start: 50, End: 60}, // step 5: delivery
	})
	e := enumFor(t, tr, Options{K: 100})
	res, err := e.Enumerate(Message{Src: 0, Dst: 2, Start: 0})
	if err != nil {
		t.Fatal(err)
	}
	// Node 1 accumulates three distinct paths from 0 (joined at steps
	// 0, 1, 2); all three deliver at step 5.
	if res.NumPaths() != 3 {
		t.Fatalf("NumPaths = %d, want 3", res.NumPaths())
	}
	for _, p := range res.Arrivals {
		if p.Step != 5 {
			t.Errorf("arrival step = %d, want 5", p.Step)
		}
	}
}

func TestEnumerateExhaustedOnBudget(t *testing.T) {
	// Star: source in contact with 5 relays in step 0; all relays meet
	// the destination at step 2, delivering 5 paths at once. K=3 must
	// stop exhausted with >= 3 arrivals.
	cs := []trace.Contact{}
	for r := trace.NodeID(1); r <= 5; r++ {
		cs = append(cs,
			trace.Contact{A: 0, B: r, Start: 0, End: 10},
			trace.Contact{A: r, B: 6, Start: 20, End: 30},
		)
	}
	tr, _ := trace.New("star", 7, 100, cs)
	e := enumFor(t, tr, Options{K: 3})
	res, err := e.Enumerate(Message{Src: 0, Dst: 6, Start: 0})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exhausted {
		t.Errorf("Exhausted = false, want true")
	}
	if res.NumPaths() < 3 {
		t.Errorf("NumPaths = %d, want >= 3", res.NumPaths())
	}
}

func TestEnumerateStartMidTrace(t *testing.T) {
	tr, _ := trace.New("mid", 2, 100, []trace.Contact{
		{A: 0, B: 1, Start: 10, End: 20},
		{A: 0, B: 1, Start: 70, End: 80},
	})
	e := enumFor(t, tr, Options{K: 10})
	res, err := e.Enumerate(Message{Src: 0, Dst: 1, Start: 45})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumPaths() != 1 {
		t.Fatalf("NumPaths = %d, want 1", res.NumPaths())
	}
	t1, _ := res.T1()
	if t1 != 80-45 {
		t.Errorf("T1 = %g, want 35 (second contact only)", t1)
	}
}

func TestArrivalCountsAndGrowth(t *testing.T) {
	tr, _ := trace.New("counts", 4, 100, []trace.Contact{
		{A: 0, B: 1, Start: 0, End: 10},
		{A: 0, B: 2, Start: 0, End: 10},
		{A: 1, B: 3, Start: 20, End: 30},
		{A: 2, B: 3, Start: 20, End: 30},
	})
	e := enumFor(t, tr, Options{K: 100})
	res, err := e.Enumerate(Message{Src: 0, Dst: 3, Start: 0})
	if err != nil {
		t.Fatal(err)
	}
	counts := res.ArrivalCounts()
	if len(counts) != 1 {
		t.Fatalf("steps with arrivals = %d, want 1", len(counts))
	}
	if counts[0].Count != 2 {
		t.Errorf("count = %d, want 2", counts[0].Count)
	}
	curve := res.GrowthCurve()
	if len(curve) != 1 || curve[0].Total != 2 || curve[0].SinceT1 != 0 {
		t.Errorf("growth curve = %+v", curve)
	}
}

func TestGrowthCurveEmpty(t *testing.T) {
	tr, _ := trace.New("none", 3, 50, nil)
	e := enumFor(t, tr, Options{K: 10})
	res, err := e.Enumerate(Message{Src: 0, Dst: 1, Start: 0})
	if err != nil {
		t.Fatal(err)
	}
	if res.GrowthCurve() != nil {
		t.Errorf("growth curve for undelivered message should be nil")
	}
	if !math.IsNaN(res.GrowthRate()) {
		t.Errorf("growth rate should be NaN")
	}
}

func TestExplosionSummary(t *testing.T) {
	tr, _ := trace.New("two", 4, 100, []trace.Contact{
		{A: 0, B: 1, Start: 0, End: 10},
		{A: 0, B: 2, Start: 0, End: 10},
		{A: 1, B: 3, Start: 20, End: 30},
		{A: 2, B: 3, Start: 40, End: 50},
	})
	e := enumFor(t, tr, Options{K: 100})
	res, _ := e.Enumerate(Message{Src: 0, Dst: 3, Start: 0})
	sum := res.ExplosionSummary(2)
	if !sum.Found || sum.T1 != 30 {
		t.Errorf("Found/T1 = %v/%g, want true/30", sum.Found, sum.T1)
	}
	if !sum.Exploded || sum.TE != 20 {
		t.Errorf("Exploded/TE = %v/%g, want true/20", sum.Exploded, sum.TE)
	}
	sum10 := res.ExplosionSummary(10)
	if sum10.Exploded {
		t.Errorf("explosion at threshold 10 with 2 paths")
	}
	if sum10.Paths != 2 {
		t.Errorf("Paths = %d, want 2", sum10.Paths)
	}
}

func TestTnBounds(t *testing.T) {
	tr, _ := trace.New("direct", 2, 50, []trace.Contact{{A: 0, B: 1, Start: 0, End: 10}})
	e := enumFor(t, tr, Options{K: 10})
	res, _ := e.Enumerate(Message{Src: 0, Dst: 1, Start: 0})
	if _, ok := res.Tn(0); ok {
		t.Errorf("Tn(0) should fail")
	}
	if _, ok := res.Tn(2); ok {
		t.Errorf("Tn(2) beyond arrivals should fail")
	}
}
