package psn_test

import (
	"bytes"
	"strings"
	"testing"

	psn "repro"
)

// The facade tests double as end-to-end integration tests of the
// public API.

func TestFacadeTraceRoundTrip(t *testing.T) {
	tr := psn.DevTrace(1)
	var buf bytes.Buffer
	if err := psn.WriteTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := psn.ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != tr.Len() {
		t.Errorf("round trip lost contacts: %d vs %d", got.Len(), tr.Len())
	}
}

func TestFacadeEnumeration(t *testing.T) {
	tr := psn.DevTrace(2)
	e, err := psn.NewEnumerator(tr, psn.EnumOptions{K: 50})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Enumerate(psn.PathMessage{Src: 0, Dst: 9, Start: 0})
	if err != nil {
		t.Fatal(err)
	}
	sum := res.ExplosionSummary(50)
	if sum.Found && sum.T1 < 0 {
		t.Errorf("negative T1")
	}
}

func TestFacadeSimulation(t *testing.T) {
	tr := psn.DevTrace(3)
	msgs := psn.SimWorkload(tr, 0.1, 900, 3)
	if len(msgs) == 0 {
		t.Fatal("no workload")
	}
	for _, alg := range psn.PaperAlgorithms() {
		r, err := psn.Simulate(psn.SimConfig{Trace: tr, Algorithm: alg, Messages: msgs})
		if err != nil {
			t.Fatalf("%s: %v", alg.Name(), err)
		}
		if s := r.SuccessRate(); s < 0 || s > 1 {
			t.Errorf("%s: success rate %g", alg.Name(), s)
		}
	}
}

func TestFacadeAnalytic(t *testing.T) {
	u0 := psn.SourceInitial(100, 30)
	sol, err := psn.SolveODE(u0, psn.ODEConfig{Lambda: 0.5, K: 30, Step: 0.01, TMax: 4, Snapshots: 3})
	if err != nil {
		t.Fatal(err)
	}
	want := psn.MeanClosedForm(0.01, 0.5, 4)
	got := sol.MeanPaths(len(sol.Times) - 1)
	if got <= 0 || got > 2*want {
		t.Errorf("ODE mean = %g, closed form %g", got, want)
	}
	if _, err := psn.SimulateJump(psn.JumpConfig{N: 50, Lambda: 1, TMax: 1, Snapshots: 2, MaxState: 32}); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeClassifier(t *testing.T) {
	tr := psn.DevTrace(4)
	cl := psn.NewClassifier(tr)
	counts := map[psn.PairType]int{}
	for s := psn.NodeID(0); int(s) < tr.NumNodes; s++ {
		for d := psn.NodeID(0); int(d) < tr.NumNodes; d++ {
			if s != d {
				counts[cl.Classify(s, d)]++
			}
		}
	}
	total := counts[psn.InIn] + counts[psn.InOut] + counts[psn.OutIn] + counts[psn.OutOut]
	if total != tr.NumNodes*(tr.NumNodes-1) {
		t.Errorf("classification incomplete: %d", total)
	}
}

func TestFacadeFigures(t *testing.T) {
	figs := psn.Figures()
	if len(figs) != 21 {
		t.Errorf("figure count = %d, want 21", len(figs))
	}
	f, ok := psn.LookupFigure("F07")
	if !ok {
		t.Fatal("F07 missing")
	}
	h := psn.NewFigureHarness(psn.FigureParams{
		Messages: 4, K: 30, SimRuns: 1,
		Datasets: []psn.Dataset{psn.Conext0912},
	})
	var buf bytes.Buffer
	if err := h.RenderOne(f, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "F07") {
		t.Errorf("render missing header: %q", buf.String())
	}
}

func TestFacadeDatasets(t *testing.T) {
	for _, d := range []psn.Dataset{psn.Infocom0912, psn.Infocom0336, psn.Conext0912, psn.Conext0336} {
		tr, err := psn.GenerateDataset(d)
		if err != nil {
			t.Fatalf("%v: %v", d, err)
		}
		if tr.NumNodes != 98 {
			t.Errorf("%v: %d nodes", d, tr.NumNodes)
		}
	}
	if _, err := psn.GenerateHomogeneous("h", 10, 100, 0.1, 10, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := psn.GenerateWaypoint(psn.WaypointConfig{
		NumNodes: 5, Horizon: 60, Width: 50, Height: 50, Range: 10,
		MinSpeed: 1, MaxSpeed: 2,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := psn.GenerateConference(psn.GeneratorConfig{
		NumNodes: 10, Horizon: 100, MaxRate: 0.1, MeanDuration: 10,
	}); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeSpaceTimeGraph(t *testing.T) {
	tr := psn.DevTrace(5)
	g, err := psn.NewSpaceTimeGraph(tr, psn.DefaultDelta)
	if err != nil {
		t.Fatal(err)
	}
	if g.Steps != 180 {
		t.Errorf("steps = %d, want 180", g.Steps)
	}
}

// Rendering a figure twice with the same parameters must produce
// byte-identical output: every generator, study and simulation is
// seeded.
func TestFigureRenderDeterministic(t *testing.T) {
	render := func() string {
		h := psn.NewFigureHarness(psn.FigureParams{
			Messages: 4, K: 30, SimRuns: 1, Seed: 9,
			Datasets: []psn.Dataset{psn.Conext0912},
		})
		f, _ := psn.LookupFigure("F08")
		var buf bytes.Buffer
		if err := h.RenderOne(f, &buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	if a, b := render(), render(); a != b {
		t.Errorf("figure rendering not deterministic:\n%s\nvs\n%s", a, b)
	}
}
