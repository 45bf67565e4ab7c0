package figures

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/trace"
	"repro/internal/tracegen"
)

// testHarness builds a harness scaled down for fast tests: fewer
// messages, a small explosion threshold and two datasets.
func testHarness() *Harness {
	return NewHarness(Params{
		Messages: 8,
		K:        60,
		SimRuns:  2,
		Seed:     1,
		Datasets: []tracegen.Dataset{tracegen.Infocom0912, tracegen.Conext0912},
	})
}

func TestParamsDefaults(t *testing.T) {
	p := Params{}.withDefaults()
	if p.Messages != 40 || p.K != 2000 || p.SimRuns != 10 {
		t.Errorf("defaults = %+v", p)
	}
	if len(p.Datasets) != 4 {
		t.Errorf("defaults = %+v", p)
	}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"A1", "A2", "AB1", "AB2", "AB3", "AB4",
		"F01", "F04a", "F04b", "F05", "F06", "F07",
		"F08", "F09", "F10", "F11", "F12", "F13", "F14", "F15",
		"X1",
	}
	figs := All()
	if len(figs) != len(want) {
		t.Fatalf("registry size = %d, want %d", len(figs), len(want))
	}
	for i, id := range want {
		if figs[i].ID != id {
			t.Errorf("figure %d = %s, want %s", i, figs[i].ID, id)
		}
		if figs[i].Title == "" || figs[i].Render == nil {
			t.Errorf("figure %s incomplete", figs[i].ID)
		}
	}
	if _, ok := Lookup("F05"); !ok {
		t.Errorf("Lookup(F05) failed")
	}
	if _, ok := Lookup("nope"); ok {
		t.Errorf("Lookup(nope) succeeded")
	}
}

func TestTraceCaching(t *testing.T) {
	h := testHarness()
	a := h.Trace(tracegen.Infocom0912)
	b := h.Trace(tracegen.Infocom0912)
	if a != b {
		t.Errorf("trace not cached")
	}
}

func TestStudyCachingAndShape(t *testing.T) {
	h := testHarness()
	st, err := h.Study(tracegen.Infocom0912)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Results) != h.P.Messages {
		t.Errorf("results = %d, want %d", len(st.Results), h.P.Messages)
	}
	st2, err := h.Study(tracegen.Infocom0912)
	if err != nil {
		t.Fatal(err)
	}
	if st != st2 {
		t.Errorf("study not cached")
	}
	sums := st.Summaries(h.P.K)
	if len(sums) != len(st.Results) {
		t.Errorf("summaries = %d", len(sums))
	}
}

func TestComputeFig01(t *testing.T) {
	h := testHarness()
	series := h.ComputeFig01()
	if len(series) != 2 {
		t.Fatalf("series = %d, want 2", len(series))
	}
	for _, ts := range series {
		if len(ts.Bins) < 170 {
			t.Errorf("%v: only %d bins", ts.Dataset, len(ts.Bins))
		}
		total := 0
		for _, b := range ts.Bins {
			total += b
		}
		if total == 0 {
			t.Errorf("%v: empty time series", ts.Dataset)
		}
	}
}

func TestComputeFig04(t *testing.T) {
	h := testHarness()
	a, err := h.ComputeFig04a()
	if err != nil {
		t.Fatal(err)
	}
	b, err := h.ComputeFig04b()
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 2 || len(b) != 2 {
		t.Fatalf("dataset rows = %d/%d, want 2/2", len(a), len(b))
	}
	// In these dense conference traces most sampled messages deliver.
	if len(a[0].Values) == 0 {
		t.Errorf("no optimal durations found")
	}
	for _, v := range a[0].Values {
		if v < 0 {
			t.Errorf("negative T1 %g", v)
		}
	}
	for _, v := range b[0].Values {
		if v < 0 {
			t.Errorf("negative TE %g", v)
		}
	}
	// TE <= T_K - T1 <= horizon; and TE values require explosion, so
	// there are at most as many TE as T1 samples.
	if len(b[0].Values) > len(a[0].Values) {
		t.Errorf("more TE than T1 samples")
	}
}

func TestComputeFig05And08(t *testing.T) {
	h := testHarness()
	pts, err := h.ComputeFig05()
	if err != nil {
		t.Fatal(err)
	}
	rows, err := h.ComputeFig08()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("pair-type rows = %d, want 4", len(rows))
	}
	total := 0
	for _, r := range rows {
		total += r.N
	}
	if total != len(pts) {
		t.Errorf("pair split lost points: %d vs %d", total, len(pts))
	}
}

func TestComputeFig06(t *testing.T) {
	h := testHarness()
	// Use threshold 0 so every exploded message qualifies in the small
	// test sample.
	gs, err := h.ComputeFig06(0)
	if err != nil {
		t.Fatal(err)
	}
	if gs.Messages == 0 {
		t.Fatalf("no messages in growth summary")
	}
	for i := 1; i < len(gs.MeanTotal); i++ {
		if gs.MeanTotal[i] < gs.MeanTotal[i-1] {
			t.Errorf("mean cumulative paths decreased at offset %g", gs.Offsets[i])
		}
	}
}

func TestComputeFig07(t *testing.T) {
	h := testHarness()
	cdfs, err := h.ComputeFig07()
	if err != nil {
		t.Fatal(err)
	}
	if len(cdfs) != 2 {
		t.Fatalf("cdfs = %d", len(cdfs))
	}
	inf := cdfs[0].ECDF.Max()
	con := cdfs[1].ECDF.Max()
	if con >= inf {
		t.Errorf("CoNext max count %g should be below Infocom %g", con, inf)
	}
}

func TestComputeFig09And13(t *testing.T) {
	h := testHarness()
	rows, err := h.ComputeFig09()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2*6 {
		t.Fatalf("rows = %d, want 12", len(rows))
	}
	var epi, others []PerfRow
	for _, r := range rows {
		if r.Dataset != tracegen.Infocom0912 {
			continue
		}
		if r.Algorithm == "Epidemic" {
			epi = append(epi, r)
		} else {
			others = append(others, r)
		}
	}
	for _, o := range others {
		if o.Success > epi[0].Success+1e-9 {
			t.Errorf("%s success %g exceeds epidemic %g", o.Algorithm, o.Success, epi[0].Success)
		}
	}
	p13, err := h.ComputeFig13()
	if err != nil {
		t.Fatal(err)
	}
	if len(p13) != 4*6 {
		t.Errorf("fig13 rows = %d, want 24", len(p13))
	}
}

func TestComputeFig10(t *testing.T) {
	h := testHarness()
	dists, err := h.ComputeFig10()
	if err != nil {
		t.Fatal(err)
	}
	if len(dists) == 0 {
		t.Fatalf("no delay distributions")
	}
	for _, d := range dists {
		if d.ECDF.Min() < 0 {
			t.Errorf("negative delay in %s/%v", d.Algorithm, d.Dataset)
		}
	}
}

func TestComputeFig11(t *testing.T) {
	h := testHarness()
	rb, err := h.ComputeFig11()
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, c := range rb.Counts {
		total += c
	}
	if total == 0 {
		t.Errorf("no deliveries binned")
	}
}

func TestComputeFig12(t *testing.T) {
	h := testHarness()
	msgs, err := h.ComputeFig12()
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range msgs {
		if len(m.AlgDelay) != 6 {
			t.Errorf("algorithm delays = %d, want 6", len(m.AlgDelay))
		}
		epi := m.AlgDelay["Epidemic"]
		if math.IsNaN(epi) {
			t.Errorf("epidemic failed on an enumerated-deliverable message")
			continue
		}
		// The lower bound of TestEpidemicBracketsEnumeration: T1 is
		// measured to the end of the step in which epidemic can first
		// deliver. Epidemic may deliver much later than T1.
		if epi < m.T1-10-1e-9 {
			t.Errorf("epidemic delay %g below T1 %g − Δ", epi, m.T1)
		}
	}
}

func TestComputeFig14And15(t *testing.T) {
	h := testHarness()
	rows, err := h.ComputeFig14()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 2 {
		t.Fatalf("hop rows = %d", len(rows))
	}
	if rows[1].Mean <= rows[0].Mean {
		t.Errorf("first-hop mean rate %g should exceed source mean %g (climbing the gradient)",
			rows[1].Mean, rows[0].Mean)
	}
	ratios, err := h.ComputeFig15()
	if err != nil {
		t.Fatal(err)
	}
	if len(ratios) == 0 {
		t.Fatalf("no ratio rows")
	}
	if ratios[0].Summary.Median <= 1 {
		t.Errorf("first transition median ratio %g should exceed 1", ratios[0].Summary.Median)
	}
}

func TestComputeA1(t *testing.T) {
	pts, err := ComputeA1(A1Params{N: 300, Lambda: 0.5, TMax: 6, MCRuns: 2, Samples: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4 {
		t.Fatalf("points = %d", len(pts))
	}
	last := pts[len(pts)-1]
	if rel := math.Abs(last.ODEMean-last.ClosedMean) / last.ClosedMean; rel > 0.05 {
		t.Errorf("ODE vs closed form diverge: %g vs %g", last.ODEMean, last.ClosedMean)
	}
	if last.MCMean <= 0 {
		t.Errorf("Monte Carlo mean = %g", last.MCMean)
	}
}

func TestComputeA2(t *testing.T) {
	rows, err := ComputeA2(48, 0.05, 900, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[3].MeanRate <= rows[0].MeanRate {
		t.Errorf("class rates not increasing")
	}
}

func TestComputeAB1AndAB2(t *testing.T) {
	h := testHarness()
	ab1, err := h.ComputeAB1()
	if err != nil {
		t.Fatal(err)
	}
	if len(ab1) != 3 {
		t.Fatalf("AB1 arms = %d", len(ab1))
	}
	ab2, err := h.ComputeAB2()
	if err != nil {
		t.Fatal(err)
	}
	if len(ab2) != 3 {
		t.Fatalf("AB2 arms = %d", len(ab2))
	}
	// The optimal path does not depend on k: found counts match.
	if ab2[0].Found != ab2[2].Found {
		t.Errorf("found counts differ across k: %d vs %d", ab2[0].Found, ab2[2].Found)
	}
}

func TestComputeAB3(t *testing.T) {
	h := testHarness()
	rows, err := h.ComputeAB3()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("AB3 rows = %d", len(rows))
	}
	// Replication should never do worse on success than relaying for
	// the same algorithm.
	for i := 0; i < 3; i++ {
		rep, rel := rows[i], rows[i+3]
		if rel.Success > rep.Success+1e-9 {
			t.Errorf("relay success %g exceeds replicate %g for %s", rel.Success, rep.Success, rep.Algorithm)
		}
	}
}

func TestComputeAB4(t *testing.T) {
	h := testHarness()
	hom, het, err := h.ComputeAB4()
	if err != nil {
		t.Fatal(err)
	}
	if len(hom) != 4 || len(het) != 4 {
		t.Fatalf("rows = %d/%d", len(hom), len(het))
	}
}

func TestRenderAll(t *testing.T) {
	if testing.Short() {
		t.Skip("rendering all figures is slow")
	}
	h := testHarness()
	var buf bytes.Buffer
	if err := h.RenderAll(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, f := range All() {
		if !strings.Contains(out, "=== "+f.ID+":") {
			t.Errorf("output missing figure %s", f.ID)
		}
	}
	if strings.Contains(out, "NaN") {
		// NaN can legitimately appear for empty pair-type cells in the
		// scaled-down test sample; make sure it is not pervasive.
		if strings.Count(out, "NaN") > 40 {
			t.Errorf("excessive NaN in rendered output")
		}
	}
}

var _ = trace.NodeID(0)

func TestComputeX1(t *testing.T) {
	h := testHarness()
	rows, err := h.ComputeX1()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("X1 rows = %d, want 6", len(rows))
	}
	var epi, direct *CostRow
	for i := range rows {
		if rows[i].Algorithm == "Epidemic" {
			epi = &rows[i]
		}
		if rows[i].TxPerMsg < 0 {
			t.Errorf("%s: negative cost", rows[i].Algorithm)
		}
	}
	_ = direct
	if epi == nil || epi.TxPerMsg == 0 {
		t.Fatalf("epidemic cost missing")
	}
	// Epidemic floods: it must be the most expensive algorithm.
	for _, r := range rows {
		if r.TxPerMsg > epi.TxPerMsg+1e-9 {
			t.Errorf("%s txs/msg %.1f exceeds epidemic %.1f", r.Algorithm, r.TxPerMsg, epi.TxPerMsg)
		}
	}
}
