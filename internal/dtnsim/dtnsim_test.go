package dtnsim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/forward"
	"repro/internal/trace"
	"repro/internal/tracegen"
)

func mkTrace(t *testing.T, n int, horizon float64, cs []trace.Contact) *trace.Trace {
	t.Helper()
	tr, err := trace.New("sim", n, horizon, cs)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func run(t *testing.T, cfg Config) *Result {
	t.Helper()
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestRunValidation(t *testing.T) {
	tr := mkTrace(t, 4, 100, nil)
	if _, err := Run(Config{Algorithm: forward.Epidemic{}}); err == nil {
		t.Errorf("nil trace accepted")
	}
	if _, err := Run(Config{Trace: tr}); err == nil {
		t.Errorf("nil algorithm accepted")
	}
	big, _ := trace.New("big", 200, 10, nil)
	if _, err := Run(Config{Trace: big, Algorithm: forward.Epidemic{}}); err != nil {
		t.Errorf("large population rejected: %v", err)
	}
	bad := []Message{
		{Src: 0, Dst: 0, Start: 0},
		{Src: 0, Dst: 9, Start: 0},
		{Src: -1, Dst: 1, Start: 0},
		{Src: 0, Dst: 1, Start: -1},
		{Src: 0, Dst: 1, Start: 100},
	}
	for _, m := range bad {
		if _, err := Run(Config{Trace: tr, Algorithm: forward.Epidemic{}, Messages: []Message{m}}); err == nil {
			t.Errorf("bad message %+v accepted", m)
		}
	}
}

// TestRunRejectsInt16Overflow pins the simulator's packing bound:
// event endpoints are int16, so a population above maxPopulation must
// be an error before any replay. Unchecked, node 65537 wrapped onto
// node 1 (a 0→1 message "delivered" over a 0–65537 contact) and node
// 35000 wrapped negative (an index-out-of-range panic).
func TestRunRejectsInt16Overflow(t *testing.T) {
	msgs := []Message{{Src: 0, Dst: 1, Start: 0}}
	for _, far := range []trace.NodeID{65537, 35000} {
		tr := mkTrace(t, 70000, 100, []trace.Contact{{A: 0, B: far, Start: 0, End: 50}})
		if r, err := Run(Config{Trace: tr, Algorithm: forward.Epidemic{}, Messages: msgs}); err == nil {
			t.Errorf("contact 0–%d on 70000 nodes accepted: %+v", far, r.Outcomes)
		}
		sw, err := NewSweep(tr)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sw.Run(Config{Algorithm: forward.Epidemic{}, Messages: msgs}); err == nil {
			t.Errorf("sweep: contact 0–%d on 70000 nodes accepted", far)
		}
	}

	last := trace.NodeID(maxPopulation - 1)
	edge := mkTrace(t, maxPopulation, 100, []trace.Contact{{A: 0, B: last, Start: 0, End: 50}})
	r, err := Run(Config{Trace: edge, Algorithm: forward.Epidemic{}, Messages: []Message{{Src: 0, Dst: last, Start: 10}}})
	if err != nil {
		t.Fatalf("%d nodes rejected: %v", maxPopulation, err)
	}
	if !r.Outcomes[0].Delivered || r.Outcomes[0].Delay != 0 {
		t.Errorf("0→%d over a live contact: %+v", last, r.Outcomes[0])
	}
}

func TestEpidemicDirectDelivery(t *testing.T) {
	tr := mkTrace(t, 3, 100, []trace.Contact{{A: 0, B: 1, Start: 10, End: 20}})
	r := run(t, Config{
		Trace:     tr,
		Algorithm: forward.Epidemic{},
		Messages:  []Message{{Src: 0, Dst: 1, Start: 0}},
	})
	o := r.Outcomes[0]
	if !o.Delivered || o.Delay != 10 || o.Hops != 1 {
		t.Errorf("outcome = %+v, want delivered at delay 10, 1 hop", o)
	}
}

func TestMessageCreatedDuringContact(t *testing.T) {
	tr := mkTrace(t, 3, 100, []trace.Contact{{A: 0, B: 1, Start: 10, End: 50}})
	r := run(t, Config{
		Trace:     tr,
		Algorithm: forward.Epidemic{},
		Messages:  []Message{{Src: 0, Dst: 1, Start: 30}},
	})
	o := r.Outcomes[0]
	if !o.Delivered || o.Delay != 0 {
		t.Errorf("message created mid-contact should deliver immediately, got %+v", o)
	}
}

func TestEpidemicMultiHopRelay(t *testing.T) {
	tr := mkTrace(t, 4, 200, []trace.Contact{
		{A: 0, B: 1, Start: 10, End: 20},
		{A: 1, B: 2, Start: 50, End: 60},
		{A: 2, B: 3, Start: 90, End: 100},
	})
	r := run(t, Config{
		Trace:     tr,
		Algorithm: forward.Epidemic{},
		Messages:  []Message{{Src: 0, Dst: 3, Start: 0}},
	})
	o := r.Outcomes[0]
	if !o.Delivered || o.Delay != 90 || o.Hops != 3 {
		t.Errorf("outcome = %+v, want delay 90, hops 3", o)
	}
}

func TestTransitiveSpreadWithinComponent(t *testing.T) {
	// 0-1 and 1-2 are simultaneously open when 0-1 starts; epidemic
	// reaches 2 instantly through the live component.
	tr := mkTrace(t, 3, 100, []trace.Contact{
		{A: 1, B: 2, Start: 0, End: 100},
		{A: 0, B: 1, Start: 50, End: 60},
	})
	r := run(t, Config{
		Trace:     tr,
		Algorithm: forward.Epidemic{},
		Messages:  []Message{{Src: 0, Dst: 2, Start: 10}},
	})
	o := r.Outcomes[0]
	if !o.Delivered || o.Delay != 40 || o.Hops != 2 {
		t.Errorf("outcome = %+v, want delay 40 (deliver at 50), 2 hops", o)
	}
}

func TestUndeliveredMessage(t *testing.T) {
	tr := mkTrace(t, 3, 100, []trace.Contact{{A: 0, B: 1, Start: 10, End: 20}})
	r := run(t, Config{
		Trace:     tr,
		Algorithm: forward.Epidemic{},
		Messages:  []Message{{Src: 0, Dst: 2, Start: 0}},
	})
	if r.Outcomes[0].Delivered {
		t.Errorf("unreachable destination delivered")
	}
	if got := r.SuccessRate(); got != 0 {
		t.Errorf("SuccessRate = %g, want 0", got)
	}
	if !math.IsNaN(r.MeanDelay()) {
		t.Errorf("MeanDelay of undelivered set should be NaN")
	}
}

func TestDirectDeliveryWaitsForDestination(t *testing.T) {
	tr := mkTrace(t, 3, 200, []trace.Contact{
		{A: 0, B: 1, Start: 10, End: 20},   // relay opportunity, unused
		{A: 1, B: 2, Start: 30, End: 40},   // would deliver if forwarded
		{A: 0, B: 2, Start: 100, End: 110}, // source meets destination
	})
	r := run(t, Config{
		Trace:     tr,
		Algorithm: neverForward{},
		Messages:  []Message{{Src: 0, Dst: 2, Start: 0}},
	})
	o := r.Outcomes[0]
	if !o.Delivered || o.Delay != 100 {
		t.Errorf("direct delivery outcome = %+v, want delay 100", o)
	}
}

// neverForward is a test-local rule that keeps every message at its
// source: only minimal progress (§4.1) delivers, when the source meets
// the destination itself.
type neverForward struct{}

func (neverForward) Name() string { return "never-forward" }

func (neverForward) Forward(*forward.View, trace.NodeID, trace.NodeID, trace.NodeID) bool {
	return false
}

func TestRelayModeMovesCopy(t *testing.T) {
	// Relay 0->1 at t=10; then 0 meets dst at t=30 but no longer holds
	// the message; 1 meets dst at t=50.
	tr := mkTrace(t, 4, 200, []trace.Contact{
		{A: 0, B: 1, Start: 10, End: 15},
		{A: 0, B: 3, Start: 30, End: 35},
		{A: 1, B: 3, Start: 50, End: 55},
	})
	// GreedyTotal: node 1 has 2 total contacts, node 0 has 2... make 1
	// busier by adding one more contact for 1.
	tr = mkTrace(t, 4, 200, []trace.Contact{
		{A: 0, B: 1, Start: 10, End: 15},
		{A: 1, B: 2, Start: 20, End: 25},
		{A: 0, B: 3, Start: 30, End: 35},
		{A: 1, B: 3, Start: 50, End: 55},
	})
	r := run(t, Config{
		Trace:     tr,
		Algorithm: forward.GreedyTotal{},
		Messages:  []Message{{Src: 0, Dst: 3, Start: 0}},
		CopyMode:  Relay,
	})
	o := r.Outcomes[0]
	if !o.Delivered {
		t.Fatalf("not delivered")
	}
	if o.Delay != 50 {
		t.Errorf("delay = %g, want 50 (copy moved to node 1)", o.Delay)
	}
}

func TestReplicateModeKeepsCopy(t *testing.T) {
	// Same topology, replicate mode: node 0 still holds the message at
	// t=30 and delivers first.
	tr := mkTrace(t, 4, 200, []trace.Contact{
		{A: 0, B: 1, Start: 10, End: 15},
		{A: 1, B: 2, Start: 20, End: 25},
		{A: 0, B: 3, Start: 30, End: 35},
		{A: 1, B: 3, Start: 50, End: 55},
	})
	r := run(t, Config{
		Trace:     tr,
		Algorithm: forward.GreedyTotal{},
		Messages:  []Message{{Src: 0, Dst: 3, Start: 0}},
	})
	if o := r.Outcomes[0]; !o.Delivered || o.Delay != 30 {
		t.Errorf("outcome = %+v, want delay 30", o)
	}
}

func TestDuplicateContactStartIgnored(t *testing.T) {
	tr := mkTrace(t, 3, 100, []trace.Contact{
		{A: 0, B: 1, Start: 10, End: 30},
		{A: 0, B: 1, Start: 10, End: 20},
	})
	r := run(t, Config{
		Trace:     tr,
		Algorithm: forward.Epidemic{},
		Messages:  []Message{{Src: 0, Dst: 1, Start: 0}},
	})
	if !r.Outcomes[0].Delivered {
		t.Errorf("not delivered")
	}
}

func TestByPairType(t *testing.T) {
	tr := tracegen.Dev(2)
	cl := trace.NewClassifier(tr)
	msgs := Workload(tr, 0.25, tr.Horizon/2, 7)
	r := run(t, Config{Trace: tr, Algorithm: forward.Epidemic{}, Messages: msgs})
	parts := r.ByPairType(cl)
	total := 0
	for _, pt := range trace.PairTypes {
		total += len(parts[pt].Outcomes)
	}
	if total != len(msgs) {
		t.Errorf("pair-type partition lost messages: %d vs %d", total, len(msgs))
	}
}

func TestMergeResults(t *testing.T) {
	a := &Result{Algorithm: "x", Outcomes: []Outcome{{Delivered: true, Delay: 10}}}
	b := &Result{Algorithm: "x", Outcomes: []Outcome{{Delivered: false}}}
	m := Merge(a, b)
	if len(m.Outcomes) != 2 || m.Algorithm != "x" {
		t.Errorf("merge = %+v", m)
	}
	if got := m.SuccessRate(); got != 0.5 {
		t.Errorf("merged success = %g", got)
	}
	if empty := Merge(); len(empty.Outcomes) != 0 {
		t.Errorf("empty merge = %+v", empty)
	}
}

func TestWorkload(t *testing.T) {
	tr := tracegen.Dev(3)
	msgs := Workload(tr, 0.25, 900, 11)
	if len(msgs) < 150 || len(msgs) > 320 {
		t.Errorf("workload size = %d, want ≈225", len(msgs))
	}
	for _, m := range msgs {
		if m.Src == m.Dst {
			t.Fatalf("self-addressed message")
		}
		if m.Start < 0 || m.Start >= 900 {
			t.Fatalf("message start %g outside generation window", m.Start)
		}
	}
	// Deterministic per seed.
	again := Workload(tr, 0.25, 900, 11)
	if len(again) != len(msgs) || again[0] != msgs[0] {
		t.Errorf("workload not deterministic")
	}
	if got := Workload(tr, 0, 900, 1); len(got) != 0 {
		t.Errorf("zero rate produced messages")
	}
}

func TestSuccessRateEmptyResult(t *testing.T) {
	r := &Result{}
	if !math.IsNaN(r.SuccessRate()) {
		t.Errorf("empty success rate should be NaN")
	}
}

// Property: epidemic forwarding dominates every other algorithm on
// both success rate and per-message delay (it finds optimal paths).
func TestEpidemicDominatesProperty(t *testing.T) {
	algos := []forward.Algorithm{
		forward.FRESH{}, forward.Greedy{}, forward.GreedyTotal{},
		forward.GreedyOnline{}, forward.DynamicProgramming{},
		neverForward{},
	}
	f := func(seed int64) bool {
		tr := tracegen.Dev(seed)
		msgs := Workload(tr, 0.1, 900, seed+1)
		if len(msgs) == 0 {
			return true
		}
		epi, err := Run(Config{Trace: tr, Algorithm: forward.Epidemic{}, Messages: msgs})
		if err != nil {
			return false
		}
		for _, a := range algos {
			r, err := Run(Config{Trace: tr, Algorithm: a, Messages: msgs})
			if err != nil {
				return false
			}
			for i := range msgs {
				eo, ao := epi.Outcomes[i], r.Outcomes[i]
				if ao.Delivered && !eo.Delivered {
					t.Logf("%s delivered msg %d but epidemic did not", a.Name(), i)
					return false
				}
				if ao.Delivered && eo.Delivered && eo.Delay > ao.Delay+1e-9 {
					t.Logf("%s beat epidemic delay on msg %d: %g < %g", a.Name(), i, ao.Delay, eo.Delay)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 6}); err != nil {
		t.Error(err)
	}
}

// Property: delays are nonnegative and only delivered outcomes carry
// them; hop counts of delivered messages are >= 1.
func TestOutcomeInvariantsProperty(t *testing.T) {
	f := func(seed int64) bool {
		tr := tracegen.Dev(seed)
		msgs := Workload(tr, 0.2, 900, seed)
		r, err := Run(Config{Trace: tr, Algorithm: forward.Greedy{}, Messages: msgs})
		if err != nil {
			return false
		}
		for _, o := range r.Outcomes {
			if o.Delivered && (o.Delay < 0 || o.Hops < 1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Error(err)
	}
}

// The simulator must be deterministic: identical configs, identical
// outcomes.
func TestRunDeterministic(t *testing.T) {
	tr := tracegen.Dev(5)
	msgs := Workload(tr, 0.25, 900, 5)
	r1 := run(t, Config{Trace: tr, Algorithm: forward.FRESH{}, Messages: msgs})
	r2 := run(t, Config{Trace: tr, Algorithm: forward.FRESH{}, Messages: msgs})
	for i := range r1.Outcomes {
		if r1.Outcomes[i] != r2.Outcomes[i] {
			t.Fatalf("outcome %d differs: %+v vs %+v", i, r1.Outcomes[i], r2.Outcomes[i])
		}
	}
}

var _ = rand.Int // keep math/rand import if property tests change

func TestTransmissionsCounted(t *testing.T) {
	tr := tracegen.Dev(6)
	msgs := Workload(tr, 0.1, 900, 6)
	epi := run(t, Config{Trace: tr, Algorithm: forward.Epidemic{}, Messages: msgs})
	direct := run(t, Config{Trace: tr, Algorithm: neverForward{}, Messages: msgs})
	if epi.Transmissions == 0 {
		t.Fatalf("epidemic made no transmissions")
	}
	// Epidemic floods: it must cost at least as much as never
	// forwarding, and strictly more on any trace with relays.
	if epi.Transmissions <= direct.Transmissions {
		t.Errorf("epidemic txs %d not above direct delivery %d",
			epi.Transmissions, direct.Transmissions)
	}
	// Direct delivery transmits exactly once per delivered message.
	delivered := 0
	for _, o := range direct.Outcomes {
		if o.Delivered {
			delivered++
		}
	}
	if direct.Transmissions != delivered {
		t.Errorf("direct delivery txs %d, want %d (one per delivery)",
			direct.Transmissions, delivered)
	}
}

func TestMergeSumsTransmissions(t *testing.T) {
	a := &Result{Algorithm: "x", Transmissions: 3}
	b := &Result{Algorithm: "x", Transmissions: 4}
	if got := Merge(a, b).Transmissions; got != 7 {
		t.Errorf("merged transmissions = %d, want 7", got)
	}
}

// Relay-mode hop chains can exceed 127 (the single copy keeps moving
// for the whole trace); the per-node hop counters must not wrap the
// way the pre-refactor int8 slab silently did. A long ping-pong chain
// pins the exact count.
func TestRelayHopCountsDoNotOverflow(t *testing.T) {
	// Nodes 0 and 1 meet repeatedly; under relay both directions of a
	// contact run, so each meeting hands the single copy over and
	// straight back — two hops per meeting (the anti-revisit guard
	// only applies within one instantaneous propagation). The copy
	// ends at node 0 with 2·meetings hops, then meets the destination.
	var cs []trace.Contact
	tm := 0.0
	const meetings = 400
	for i := 0; i < meetings; i++ {
		cs = append(cs, trace.Contact{A: 0, B: 1, Start: tm, End: tm + 1})
		tm += 2
	}
	cs = append(cs, trace.Contact{A: 0, B: 2, Start: tm, End: tm + 1})
	tr := mkTrace(t, 3, tm+10, cs)
	res := run(t, Config{
		Trace:     tr,
		Algorithm: forward.Epidemic{},
		CopyMode:  Relay,
		Messages:  []Message{{Src: 0, Dst: 2, Start: 0}},
	})
	o := res.Outcomes[0]
	if !o.Delivered {
		t.Fatal("message not delivered")
	}
	if o.Hops <= 127 {
		t.Fatalf("test did not exercise >127 hops (got %d)", o.Hops)
	}
	if want := 2*meetings - 1; o.Hops != want {
		t.Errorf("Hops = %d, want %d (int8 wraparound would corrupt this)", o.Hops, want)
	}
}

// meedProbe is a user-defined algorithm (no marker interfaces) whose
// decisions read oracle distances. The lazily installed oracle must
// resolve the real MEED matrix on the first read — never hand such an
// algorithm +Inf placeholders.
type meedProbe struct{ finiteReads int }

func (m *meedProbe) Name() string { return "meed-probe" }

func (m *meedProbe) Forward(v *forward.View, holder, peer, dst trace.NodeID) bool {
	if !math.IsInf(v.MEEDDistance(holder, dst), 1) {
		m.finiteReads++
	}
	return false
}

func TestLazyOracleServesUnmarkedDistanceReaders(t *testing.T) {
	tr := mkTrace(t, 3, 100, []trace.Contact{
		{A: 0, B: 1, Start: 10, End: 20},
		{A: 1, B: 2, Start: 30, End: 40},
	})
	probe := &meedProbe{}
	if _, err := Run(Config{
		Trace:     tr,
		Algorithm: probe,
		Workers:   1,
		Messages:  []Message{{Src: 0, Dst: 2, Start: 0}},
	}); err != nil {
		t.Fatal(err)
	}
	if probe.finiteReads == 0 {
		t.Error("algorithm reading MEEDDistance saw only +Inf: lazy oracle never resolved")
	}
}
