// Command psn-sim runs the paper's forwarding-algorithm comparison on
// a contact trace: success rate and mean delay per algorithm, with an
// optional split by in/out pair type.
//
// Usage:
//
//	psn-sim -dataset infocom-9-12 -runs 10
//	psn-sim -trace trace.txt -rate 0.25 -bypair
//	psn-sim -dataset conext-9-12 -relay
//	psn-sim -dataset city-2k -algo epidemic -runs 2 -rate 0.05
//
// -algo filters the algorithm set by case-insensitive substring —
// essential on the city-scale datasets, where oracle-distance
// algorithms (Dynamic Programming) would trigger an O(n³) metric
// computation most runs don't need.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strings"

	psn "repro"
	"repro/internal/dtnsim"
	"repro/internal/trace"
)

func main() {
	var (
		dataset = flag.String("dataset", "infocom-9-12", "named dataset (ignored with -trace)")
		traceIn = flag.String("trace", "", "read a trace file instead of generating one")
		rate    = flag.Float64("rate", 0.25, "message rate (messages/s; paper: 1 per 4 s)")
		runs    = flag.Int("runs", 10, "independent workload seeds to average")
		seed    = flag.Int64("seed", 1, "base workload seed")
		algo    = flag.String("algo", "", "only run algorithms whose name contains this substring (case-insensitive)")
		relay   = flag.Bool("relay", false, "use single-copy relay semantics instead of replication")
		byPair  = flag.Bool("bypair", false, "split results by in/out pair type")
		workers = flag.Int("workers", 0, "worker goroutines per run (0 = GOMAXPROCS, 1 = serial; results are identical)")
	)
	flag.Parse()
	if err := checkWorkload(*runs, *rate); err != nil {
		fmt.Fprintln(os.Stderr, "psn-sim:", err)
		flag.Usage()
		os.Exit(2)
	}

	tr, err := loadTrace(*traceIn, *dataset)
	if err != nil {
		fmt.Fprintln(os.Stderr, "psn-sim:", err)
		os.Exit(1)
	}
	algos := psn.PaperAlgorithms()
	if *algo != "" {
		var kept []psn.Algorithm
		for _, a := range algos {
			if strings.Contains(strings.ToLower(a.Name()), strings.ToLower(*algo)) {
				kept = append(kept, a)
			}
		}
		if len(kept) == 0 {
			names := make([]string, len(algos))
			for i, a := range algos {
				names[i] = a.Name()
			}
			fmt.Fprintf(os.Stderr, "psn-sim: -algo %q matches none of: %s\n", *algo, strings.Join(names, ", "))
			os.Exit(2)
		}
		algos = kept
	}
	mode := psn.Replicate
	if *relay {
		mode = psn.Relay
	}

	fmt.Printf("trace %q: %d nodes, %d contacts, %d runs x rate %.3g/s\n",
		tr.Name, tr.NumNodes, tr.Len(), *runs, *rate)
	// One sweep engine for the whole (algorithm × run) matrix: the
	// oracle tables are built once and per-run simulation state is
	// pooled, so each run after the first pays only the replay.
	sweep, err := psn.NewSimSweep(tr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "psn-sim:", err)
		os.Exit(1)
	}
	cl := psn.NewClassifier(tr)
	fmt.Printf("%-22s %10s %14s %10s %12s\n", "algorithm", "success", "avg delay (s)", "delivered", "txs/msg")
	for _, alg := range algos {
		var all []*psn.SimResult
		for r := 0; r < *runs; r++ {
			msgs := psn.SimWorkload(tr, *rate, tr.Horizon*2/3, psn.DeriveSeed(*seed, r))
			res, err := sweep.Run(psn.SimConfig{Algorithm: alg, Messages: msgs, CopyMode: mode, Workers: *workers})
			if err != nil {
				fmt.Fprintln(os.Stderr, "psn-sim:", err)
				os.Exit(1)
			}
			all = append(all, res)
		}
		merged := dtnsim.Merge(all...)
		delivered := 0
		for _, o := range merged.Outcomes {
			if o.Delivered {
				delivered++
			}
		}
		txPerMsg := 0.0
		if len(merged.Outcomes) > 0 {
			txPerMsg = float64(merged.Transmissions) / float64(len(merged.Outcomes))
		}
		fmt.Printf("%-22s %10.3f %14.0f %10d %12.1f\n",
			alg.Name(), merged.SuccessRate(), merged.MeanDelay(), delivered, txPerMsg)
		if *byPair {
			for _, pt := range trace.PairTypes {
				part := merged.ByPairType(cl)[pt]
				fmt.Printf("    %-18s %10.3f %14.0f %10d\n", pt, part.SuccessRate(), part.MeanDelay(), len(part.Outcomes))
			}
		}
	}
}

// checkWorkload refuses a run count or message rate that would simulate
// no message: without it the table prints NaN for every algorithm. An
// infinite rate is refused too, since its Poisson gaps are all zero and
// the workload would never end.
func checkWorkload(runs int, rate float64) error {
	if runs < 1 {
		return fmt.Errorf("-runs %d: need at least one run", runs)
	}
	if !(rate > 0) || math.IsInf(rate, 1) {
		return fmt.Errorf("-rate %g: need a positive, finite message rate", rate)
	}
	return nil
}

// loadTrace reads a trace file, or resolves a named dataset through
// the shared registry (an unknown name lists the available ones).
func loadTrace(path, dataset string) (*psn.Trace, error) {
	if path != "" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return psn.ReadTrace(f)
	}
	return psn.NewRegistry().Trace(dataset)
}
