// Command psn-figures regenerates the paper's evaluation figures as
// printed tables and series.
//
// Usage:
//
//	psn-figures                 # every figure, paper-scale parameters
//	psn-figures -id F04a        # one figure
//	psn-figures -list           # available figures
//	psn-figures -messages 20    # reduced sample for a quick pass
package main

import (
	"flag"
	"fmt"
	"os"

	psn "repro"
)

func main() {
	var (
		id       = flag.String("id", "", "render a single figure by id (e.g. F04a)")
		list     = flag.Bool("list", false, "list available figures")
		messages = flag.Int("messages", 0, "messages per dataset for enumeration figures (0 = default 40)")
		k        = flag.Int("k", 0, "explosion threshold (0 = paper's 2000)")
		runs     = flag.Int("runs", 0, "simulation runs (0 = paper's 10)")
		seed     = flag.Int64("seed", 1, "sampling seed")
		workers  = flag.Int("workers", 0, "worker goroutines (0 = GOMAXPROCS, 1 = serial; figures are identical)")
	)
	flag.Parse()

	if *list {
		for _, f := range psn.Figures() {
			fmt.Printf("%-5s %s\n", f.ID, f.Title)
		}
		return
	}

	h := psn.NewFigureHarness(psn.FigureParams{
		Messages: *messages, K: *k, SimRuns: *runs, Seed: *seed, Workers: *workers,
	})
	if *id != "" {
		f, ok := psn.LookupFigure(*id)
		if !ok {
			fmt.Fprintf(os.Stderr, "psn-figures: unknown figure %q (try -list)\n", *id)
			os.Exit(1)
		}
		if err := h.RenderOne(f, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "psn-figures:", err)
			os.Exit(1)
		}
		return
	}
	if err := h.RenderAll(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "psn-figures:", err)
		os.Exit(1)
	}
}
