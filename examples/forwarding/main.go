// Forwarding: compare the paper's six forwarding algorithms
// (PaperAlgorithms) on a conference trace, reproducing the paper's §6
// observation that very different strategies deliver near-identical
// success rates and delays — because the path explosion puts many
// near-optimal paths within every algorithm's reach.
package main

import (
	"fmt"
	"log"

	psn "repro"
	"repro/internal/dtnsim"
)

func main() {
	tr, err := psn.GenerateDataset(psn.Conext0912)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dataset %q: %d nodes, %d contacts\n\n", tr.Name, tr.NumNodes, tr.Len())

	const (
		runs = 3
		rate = 0.1 // messages per second
	)
	cl := psn.NewClassifier(tr)

	fmt.Printf("%-22s %10s %14s\n", "algorithm", "success", "avg delay (s)")
	type row struct {
		name   string
		merged *psn.SimResult
	}
	var rows []row
	for _, alg := range psn.PaperAlgorithms() {
		var all []*psn.SimResult
		for r := 0; r < runs; r++ {
			msgs := psn.SimWorkload(tr, rate, tr.Horizon*2/3, int64(r+1))
			res, err := psn.Simulate(psn.SimConfig{Trace: tr, Algorithm: alg, Messages: msgs})
			if err != nil {
				log.Fatal(err)
			}
			all = append(all, res)
		}
		merged := dtnsim.Merge(all...)
		rows = append(rows, row{alg.Name(), merged})
		fmt.Printf("%-22s %10.3f %14.0f\n", alg.Name(), merged.SuccessRate(), merged.MeanDelay())
	}

	fmt.Println("\nby pair type (epidemic vs Greedy Total — the oracle gains on out-sources):")
	fmt.Printf("%-10s %22s %22s\n", "pair", "Epidemic succ/delay", "GreedyTotal succ/delay")
	var epi, gt *psn.SimResult
	for _, r := range rows {
		switch r.name {
		case "Epidemic":
			epi = r.merged
		case "Greedy Total":
			gt = r.merged
		}
	}
	for _, pt := range []psn.PairType{psn.InIn, psn.InOut, psn.OutIn, psn.OutOut} {
		e := epi.ByPairType(cl)[pt]
		g := gt.ByPairType(cl)[pt]
		fmt.Printf("%-10s %12.3f / %6.0f %13.3f / %6.0f\n",
			pt, e.SuccessRate(), e.MeanDelay(), g.SuccessRate(), g.MeanDelay())
	}
}
