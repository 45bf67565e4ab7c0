package figures

import (
	"fmt"
	"io"
	"math/rand"

	"repro/internal/dtnsim"
	"repro/internal/forward"
	"repro/internal/pathenum"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/tracegen"
)

// Ablations of the method's choices: the step Δ (AB1), the arrival
// budget k (AB2), replicate vs relay copies (AB3), and a homogeneous
// trace against the heterogeneous one (AB4).

// ablationMessages samples messages (identically across ablation arms)
// from the first dataset.
func (h *Harness) ablationMessages(n int) []pathenum.Message {
	tr := h.Trace(h.P.Datasets[0])
	rng := rand.New(rand.NewSource(h.P.Seed + 9999))
	gen := tr.Horizon * genFraction
	msgs := make([]pathenum.Message, 0, n)
	for i := 0; i < n; i++ {
		src := trace.NodeID(rng.Intn(tr.NumNodes))
		dst := trace.NodeID(rng.Intn(tr.NumNodes - 1))
		if dst >= src {
			dst++
		}
		msgs = append(msgs, pathenum.Message{Src: src, Dst: dst, Start: rng.Float64() * gen})
	}
	return msgs
}

// AblationRow is one arm of a sweep.
type AblationRow struct {
	Label    string
	MeanT1   float64
	MeanTE   float64
	Found    int
	Exploded int
}

func (h *Harness) explosionArm(label string, opts pathenum.Options, msgs []pathenum.Message) (AblationRow, error) {
	tr := h.Trace(h.P.Datasets[0])
	opts.Workers = h.P.Workers
	enum, err := pathenum.NewEnumerator(tr, opts)
	if err != nil {
		return AblationRow{}, err
	}
	row := AblationRow{Label: label}
	var t1s, tes []float64
	results, err := enum.EnumerateAll(msgs, nil)
	if err != nil {
		return AblationRow{}, err
	}
	for _, res := range results {
		s := res.ExplosionSummary(opts.K)
		if s.Found {
			row.Found++
			t1s = append(t1s, s.T1)
		}
		if s.Exploded {
			row.Exploded++
			tes = append(tes, s.TE)
		}
	}
	row.MeanT1 = stats.Mean(t1s)
	row.MeanTE = stats.Mean(tes)
	return row, nil
}

// ComputeAB1 sweeps the space-time discretization Δ.
func (h *Harness) ComputeAB1() ([]AblationRow, error) {
	msgs := h.ablationMessages(h.P.Messages / 2)
	var out []AblationRow
	for _, delta := range []float64{5, 10, 30} {
		row, err := h.explosionArm(fmt.Sprintf("delta=%gs", delta),
			pathenum.Options{Delta: delta, K: h.P.K}, msgs)
		if err != nil {
			return nil, err
		}
		out = append(out, row)
	}
	return out, nil
}

// ComputeAB2 sweeps the arrival budget / table width k.
func (h *Harness) ComputeAB2() ([]AblationRow, error) {
	msgs := h.ablationMessages(h.P.Messages / 2)
	var out []AblationRow
	for _, k := range []int{h.P.K / 10, h.P.K / 4, h.P.K} {
		if k < 2 {
			k = 2
		}
		row, err := h.explosionArm(fmt.Sprintf("k=%d", k),
			pathenum.Options{K: k}, msgs)
		if err != nil {
			return nil, err
		}
		out = append(out, row)
	}
	return out, nil
}

func renderAblationRows(w io.Writer, rows []AblationRow) {
	fmt.Fprintf(w, "%-14s %8s %10s %10s %10s\n", "arm", "found", "exploded", "meanT1", "meanTE")
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s %8d %10d %10.0f %10.0f\n", r.Label, r.Found, r.Exploded, r.MeanT1, r.MeanTE)
	}
}

func renderAB1(h *Harness, w io.Writer) error {
	rows, err := h.ComputeAB1()
	if err != nil {
		return err
	}
	renderAblationRows(w, rows)
	fmt.Fprintln(w, "check: T1 is stable under Δ (discretization error is O(Δ)); TE shifts by O(Δ) per burst")
	return nil
}

func renderAB2(h *Harness, w io.Writer) error {
	rows, err := h.ComputeAB2()
	if err != nil {
		return err
	}
	renderAblationRows(w, rows)
	fmt.Fprintln(w, "check: T1 identical across k (optimal path always kept); TE at threshold k scales with k")
	return nil
}

// ComputeAB3 compares replicate vs relay copy semantics for the
// history-based algorithms.
func (h *Harness) ComputeAB3() ([]PerfRow, error) {
	tr := h.Trace(h.P.Datasets[0])
	sw, err := h.sweep(h.P.Datasets[0])
	if err != nil {
		return nil, err
	}
	msgs := workload(tr, h.P, 0)
	algos := []forward.Algorithm{forward.FRESH{}, forward.Greedy{}, forward.GreedyTotal{}}
	var out []PerfRow
	for _, mode := range []dtnsim.CopyMode{dtnsim.Replicate, dtnsim.Relay} {
		for _, a := range algos {
			r, err := sw.Run(dtnsim.Config{Algorithm: a, Messages: msgs, CopyMode: mode})
			if err != nil {
				return nil, err
			}
			out = append(out, PerfRow{
				Dataset:   h.P.Datasets[0],
				Algorithm: fmt.Sprintf("%s (%s)", a.Name(), mode),
				Success:   r.SuccessRate(),
				MeanDelay: r.MeanDelay(),
			})
		}
	}
	return out, nil
}

func renderAB3(h *Harness, w io.Writer) error {
	rows, err := h.ComputeAB3()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-30s %10s %14s\n", "algorithm (copy mode)", "success", "avg delay (s)")
	for _, r := range rows {
		fmt.Fprintf(w, "%-30s %10.3f %14.0f\n", r.Algorithm, r.Success, r.MeanDelay)
	}
	fmt.Fprintln(w, "check: replication dominates relaying (more holders, same minimal progress)")
	return nil
}

// ComputeAB4 contrasts the pair-type spread of T1/TE on a homogeneous
// trace against the heterogeneous conference trace: with equal rates
// the in/out structure collapses.
func (h *Harness) ComputeAB4() (hom, het []PairTypeExplosion, err error) {
	het, err = h.ComputeFig08()
	if err != nil {
		return nil, nil, err
	}
	homTrace, err := tracegen.Homogeneous("homogeneous", 98, tracegen.ConferenceHorizon, 0.023, 25, 55)
	if err != nil {
		return nil, nil, err
	}
	enum, err := pathenum.NewEnumerator(homTrace, pathenum.Options{K: h.P.K, Workers: h.P.Workers})
	if err != nil {
		return nil, nil, err
	}
	cl := trace.NewClassifier(homTrace)
	msgs := h.ablationMessages(h.P.Messages / 2)
	results, err := enum.EnumerateAll(msgs, nil)
	if err != nil {
		return nil, nil, err
	}
	byType := map[trace.PairType][][2]float64{}
	for i, res := range results {
		s := res.ExplosionSummary(h.P.K)
		if !s.Exploded {
			continue
		}
		pt := cl.Classify(msgs[i].Src, msgs[i].Dst)
		byType[pt] = append(byType[pt], [2]float64{s.T1, s.TE})
	}
	for _, pt := range trace.PairTypes {
		var t1s, tes []float64
		for _, v := range byType[pt] {
			t1s = append(t1s, v[0])
			tes = append(tes, v[1])
		}
		row := PairTypeExplosion{Type: pt, N: len(t1s)}
		if len(t1s) > 0 {
			row.MeanT1 = stats.Mean(t1s)
			row.MedianT1 = stats.Median(t1s)
			row.MeanTE = stats.Mean(tes)
			row.MedianTE = stats.Median(tes)
		}
		hom = append(hom, row)
	}
	return hom, het, nil
}

func renderAB4(h *Harness, w io.Writer) error {
	hom, het, err := h.ComputeAB4()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "heterogeneous (conference) trace:")
	fmt.Fprintf(w, "  %-8s %4s %10s %10s\n", "pair", "n", "meanT1", "meanTE")
	for _, r := range het {
		fmt.Fprintf(w, "  %-8s %4d %10.0f %10.0f\n", r.Type, r.N, r.MeanT1, r.MeanTE)
	}
	fmt.Fprintln(w, "homogeneous trace (equal rates):")
	fmt.Fprintf(w, "  %-8s %4s %10s %10s\n", "pair", "n", "meanT1", "meanTE")
	for _, r := range hom {
		fmt.Fprintf(w, "  %-8s %4d %10.0f %10.0f\n", r.Type, r.N, r.MeanT1, r.MeanTE)
	}
	fmt.Fprintln(w, "check: pair-type differences collapse when rates are equal")
	return nil
}

func init() {
	register(Figure{ID: "AB1", Title: "Ablation: discretization step Δ", Render: renderAB1})
	register(Figure{ID: "AB2", Title: "Ablation: arrival budget / table width k", Render: renderAB2})
	register(Figure{ID: "AB3", Title: "Ablation: replicate vs relay copy semantics", Render: renderAB3})
	register(Figure{ID: "AB4", Title: "Ablation: homogeneous vs heterogeneous trace", Render: renderAB4})
}
