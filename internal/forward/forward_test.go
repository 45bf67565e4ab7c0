package forward

import (
	"math"
	"testing"

	"repro/internal/trace"
)

func TestViewObserve(t *testing.T) {
	v := NewView(4)
	if !math.IsInf(v.LastEncounter(0, 1), -1) {
		t.Errorf("initial last encounter should be -Inf")
	}
	v.Observe(0, 1, 100)
	v.Observe(0, 1, 200)
	v.Observe(0, 2, 150)
	if got := v.LastEncounter(0, 1); got != 200 {
		t.Errorf("LastEncounter = %g, want 200", got)
	}
	if got := v.LastEncounter(1, 0); got != 200 {
		t.Errorf("symmetric LastEncounter = %g, want 200", got)
	}
	if got := v.EncounterCount(0, 1); got != 2 {
		t.Errorf("EncounterCount = %d, want 2", got)
	}
	if got := v.ContactsSoFar(0); got != 3 {
		t.Errorf("ContactsSoFar(0) = %d, want 3", got)
	}
	if got := v.ContactsSoFar(3); got != 0 {
		t.Errorf("ContactsSoFar(3) = %d, want 0", got)
	}
	if v.NumNodes() != 4 {
		t.Errorf("NumNodes = %d", v.NumNodes())
	}
}

func TestViewOracleDefaults(t *testing.T) {
	v := NewView(3)
	if v.TotalContacts(0) != 0 {
		t.Errorf("TotalContacts before oracle should be 0")
	}
	if !math.IsInf(v.MEEDDistance(0, 1), 1) {
		t.Errorf("MEEDDistance before oracle should be +Inf")
	}
}

func TestMEEDDistances(t *testing.T) {
	// 0 meets 1 often (4 contacts), 1 meets 2 once, 0 never meets 2.
	tr, err := trace.New("meed", 4, 1000, []trace.Contact{
		{A: 0, B: 1, Start: 0, End: 1},
		{A: 0, B: 1, Start: 100, End: 101},
		{A: 0, B: 1, Start: 200, End: 201},
		{A: 0, B: 1, Start: 300, End: 301},
		{A: 1, B: 2, Start: 400, End: 401},
	})
	if err != nil {
		t.Fatal(err)
	}
	d := MEEDDistances(tr)
	if got, want := d.At(0, 1), 1000.0/5; got != want {
		t.Errorf("d(0,1) = %g, want %g", got, want)
	}
	if got, want := d.At(1, 2), 1000.0/2; got != want {
		t.Errorf("d(1,2) = %g, want %g", got, want)
	}
	// 0->2 goes through 1: 200 + 500.
	if got, want := d.At(0, 2), 700.0; got != want {
		t.Errorf("d(0,2) = %g, want %g", got, want)
	}
	if !math.IsInf(d.At(0, 3), 1) {
		t.Errorf("d(0,3) should be +Inf (node 3 isolated)")
	}
	if d.At(0, 0) != 0 {
		t.Errorf("d(0,0) = %g, want 0", d.At(0, 0))
	}
	if d.Size() != 4 {
		t.Errorf("Size = %d, want 4", d.Size())
	}
	if row := d.Row(0); len(row) != 4 || row[1] != d.At(0, 1) {
		t.Errorf("Row(0) = %v, want len 4 aliasing At(0,·)", row)
	}
}

func TestEpidemicAlwaysForwards(t *testing.T) {
	v := NewView(3)
	if !(Epidemic{}).Forward(v, 0, 1, 2) {
		t.Errorf("epidemic refused to forward")
	}
}

func TestFRESH(t *testing.T) {
	v := NewView(4)
	v.Observe(1, 3, 100) // peer 1 met dst 3 at 100
	v.Observe(0, 3, 50)  // holder 0 met dst 3 at 50
	f := FRESH{}
	if !f.Forward(v, 0, 1, 3) {
		t.Errorf("FRESH should forward to fresher node")
	}
	if f.Forward(v, 1, 0, 3) {
		t.Errorf("FRESH should not forward to staler node")
	}
	if f.Forward(v, 0, 2, 3) {
		t.Errorf("FRESH should not forward to node that never met dst")
	}
}

func TestGreedy(t *testing.T) {
	v := NewView(4)
	v.Observe(1, 3, 10)
	v.Observe(1, 3, 20)
	v.Observe(0, 3, 30)
	g := Greedy{}
	if !g.Forward(v, 0, 1, 3) {
		t.Errorf("Greedy should forward to higher-count node")
	}
	if g.Forward(v, 1, 0, 3) {
		t.Errorf("Greedy should not forward to lower-count node")
	}
	if g.Forward(v, 0, 2, 3) {
		t.Errorf("Greedy forwarded to zero-count node")
	}
}

func TestGreedyOnline(t *testing.T) {
	v := NewView(4)
	v.Observe(1, 2, 10)
	v.Observe(1, 3, 20)
	v.Observe(0, 2, 30)
	g := GreedyOnline{}
	if !g.Forward(v, 0, 1, 3) {
		t.Errorf("GreedyOnline should forward to busier node")
	}
	if g.Forward(v, 1, 0, 3) {
		t.Errorf("GreedyOnline should not forward to quieter node")
	}
}

func oracleView(t *testing.T) *View {
	t.Helper()
	tr, err := trace.New("o", 4, 1000, []trace.Contact{
		{A: 0, B: 1, Start: 0, End: 1},
		{A: 1, B: 2, Start: 10, End: 11},
		{A: 1, B: 2, Start: 20, End: 21},
		{A: 2, B: 3, Start: 30, End: 31},
	})
	if err != nil {
		t.Fatal(err)
	}
	v := NewView(4)
	v.InstallOracleLazy(tr.ContactCounts(), func() *DistMatrix { return MEEDDistances(tr) })
	return v
}

func TestGreedyTotal(t *testing.T) {
	v := oracleView(t)
	// totals: 0:1, 1:3, 2:3, 3:1
	g := GreedyTotal{}
	if !g.Forward(v, 0, 1, 3) {
		t.Errorf("GreedyTotal should forward 0->1")
	}
	if g.Forward(v, 1, 0, 3) {
		t.Errorf("GreedyTotal should not forward 1->0")
	}
	if g.Forward(v, 1, 2, 3) {
		t.Errorf("GreedyTotal should not forward on equal totals")
	}
}

func TestDynamicProgramming(t *testing.T) {
	v := oracleView(t)
	dp := DynamicProgramming{}
	// d(1,3) < d(0,3): forwarding 0->1 helps toward 3.
	if !dp.Forward(v, 0, 1, 3) {
		t.Errorf("DP should forward closer to destination")
	}
	if dp.Forward(v, 1, 0, 3) {
		t.Errorf("DP should not forward away from destination")
	}
}

func TestAlgorithmSets(t *testing.T) {
	ps := PaperSet()
	if len(ps) != 6 {
		t.Fatalf("PaperSet size = %d, want 6", len(ps))
	}
	names := map[string]bool{}
	for _, a := range ps {
		if a.Name() == "" {
			t.Errorf("empty algorithm name")
		}
		if names[a.Name()] {
			t.Errorf("duplicate algorithm name %q", a.Name())
		}
		names[a.Name()] = true
	}
}
