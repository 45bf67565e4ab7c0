package main

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"time"

	psn "repro"
)

// paperFigures lists what one figures operation renders: every
// registered figure except the ablations (AB*). The ablations
// re-enumerate one small message sample up to seven times, so their
// cost is decided by whether a seed draws one of the rare messages
// whose enumeration takes seconds: with them in, one pass at this size
// took from 1.5 s to 22 s depending on the seed alone.
func paperFigures() []psn.FigureSpec {
	var out []psn.FigureSpec
	for _, f := range psn.Figures() {
		if !strings.HasPrefix(f.ID, "AB") {
			out = append(out, f)
		}
	}
	return out
}

func figureParams(c config, pass int) psn.FigureParams {
	return psn.FigureParams{
		Messages: c.sc.figMessages,
		SimRuns:  1,
		K:        c.sc.figK,
		Seed:     psn.DeriveSeed(c.seed, pass),
		Datasets: c.sc.figDatasets,
	}
}

// runFigures regenerates the paper's figures on a fresh harness, one
// operation per pass, each pass with its own seed split from the run
// seed so a run samples many message sets. Set-up is the generation of
// the conference traces; the timed operation is the rest of the pass.
// An untraced pass runs as RenderAll does (Precompute, then every
// figure in order); a traced pass calls the harness one stage at a
// time so each stage gets its own span.
func runFigures(c config) (*outcome, error) {
	o := newOutcome()
	figs := paperFigures()
	var setups, lat []time.Duration
	var first []byte
	before, cpu0 := readRuntime(), cpuSeconds()
	start := time.Now()
	pass := 0
	for ; pass == 0 || time.Since(start) < c.window; pass++ {
		h := psn.NewFigureHarness(figureParams(c, pass))
		t := time.Now()
		c.tr.do("tracegen.generate", -1, pass, func() error {
			for _, d := range h.P.Datasets {
				h.Trace(d)
			}
			return nil
		})
		setups = append(setups, time.Since(t))

		t = time.Now()
		op := c.tr.begin("op.figures", -1, pass)
		var out []byte
		var err error
		if c.tr == nil {
			out, err = renderPaperFigures(h, figs)
		} else {
			out, err = renderStaged(c.tr, op, pass, h, figs)
		}
		c.tr.end(op)
		lat = append(lat, time.Since(t))
		o.attempted++
		if err != nil {
			return nil, fmt.Errorf("figures pass %d: %w", pass, err)
		}
		c.tr.do("bench.check", -1, pass, func() error {
			if msg := checkFigureOutput(out, figs); msg != "" {
				o.fail("figures pass %d: %s", pass, msg)
			}
			return nil
		})
		if pass == 0 {
			first = out
		}
	}
	wall := time.Since(start)
	after, cpu1 := readRuntime(), cpuSeconds()

	// Determinism: pass 0 again on a fresh harness, always the untraced
	// way, must give the same bytes.
	err := c.tr.do("bench.check", -1, -1, func() error {
		h := psn.NewFigureHarness(figureParams(c, 0))
		again, err := renderPaperFigures(h, figs)
		if err != nil {
			return fmt.Errorf("figures repeat of pass 0: %w", err)
		}
		if !bytes.Equal(again, first) {
			o.fail("figures: a fresh harness with pass 0's seed rendered different bytes")
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	d := newDigester()
	d.add("%s", first)
	o.digest = d.sum()

	o.setEndToEnd(setups, lat, lat)
	o.setRuntime(before, after, pass)
	util := (cpu1 - cpu0) / (wall.Seconds() * float64(runtime.GOMAXPROCS(0)))
	o.set("figures.cpu_util", "ratio", util)
	o.note("figures: CPU use %.2f of %d cores", util, runtime.GOMAXPROCS(0))
	if c.tr != nil {
		// The slowest dataset's study as a share of all four: 0.25 when
		// they are even, toward 1 when one straggles and, under
		// Precompute, leaves a core idle.
		spans := c.tr.snapshot()
		maxes, sums := perOp(spans, "figures.study", maxOf), perOp(spans, "figures.study", sum)
		straggle := make([]float64, len(sums))
		for i := range sums {
			straggle[i] = maxes[i] / sums[i]
		}
		o.set("figures.straggler_ratio", "ratio", median(straggle))
	}
	return o, nil
}

// renderPaperFigures is RenderAll restricted to figs.
func renderPaperFigures(h *psn.FigureHarness, figs []psn.FigureSpec) ([]byte, error) {
	if err := h.Precompute(); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	for _, f := range figs {
		if err := h.RenderOne(f, &buf); err != nil {
			return nil, err
		}
	}
	return buf.Bytes(), nil
}

// renderStaged computes what Precompute would, one harness call per
// span, then renders each figure in its own span.
func renderStaged(tr *tracer, parent, pass int, h *psn.FigureHarness, figs []psn.FigureSpec) ([]byte, error) {
	for _, d := range h.P.Datasets {
		if err := tr.do("figures.study", parent, pass, func() error { _, err := h.Study(d); return err }); err != nil {
			return nil, err
		}
	}
	for _, d := range h.P.Datasets {
		if err := tr.do("figures.simulate", parent, pass, func() error { _, err := h.Simulate(d); return err }); err != nil {
			return nil, err
		}
	}
	var buf bytes.Buffer
	for _, f := range figs {
		if err := tr.do("figures.render", parent, pass, func() error { return h.RenderOne(f, &buf) }); err != nil {
			return nil, err
		}
	}
	return buf.Bytes(), nil
}

// checkFigureOutput returns what is wrong with one pass's output, or
// "" when every figure section is present, in order, and no number is
// NaN or infinite.
func checkFigureOutput(out []byte, figs []psn.FigureSpec) string {
	s := string(out)
	if n := strings.Count(s, "\n=== ") + btoi(strings.HasPrefix(s, "=== ")); n != len(figs) {
		return fmt.Sprintf("%d figure sections, want %d", n, len(figs))
	}
	pos := 0
	for _, f := range figs {
		i := strings.Index(s[pos:], "=== "+f.ID+":")
		if i < 0 {
			return fmt.Sprintf("section %s missing or out of order", f.ID)
		}
		pos += i
	}
	for _, bad := range []string{"NaN", "+Inf", "-Inf"} {
		if strings.Contains(s, bad) {
			return fmt.Sprintf("output contains %s", bad)
		}
	}
	return ""
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
