// Command benchmark is the end-to-end benchmark of the reproduction.
// It times, from outside, the calls each layer exports — trace
// generation, space-time graph build, path enumeration, simulation,
// the figure harness, and the HTTP service — on four workloads:
//
//	figures    regenerate the paper's figures at a reduced size
//	city-enum  enumerate single messages on the 2,000-node city trace
//	city-sim   run the six paper algorithms on the city trace
//	serve      open-loop, then back-to-back traffic to an in-process server
//
// Usage, from the repository root:
//
//	bash benchmark/run.sh --workload city-enum --seed 3 --seconds 15 --trace 0
//	go -C benchmark run . -workload all -seed 1 -o /tmp/results.json
//	go -C benchmark run . -workload city-sim -trace 1 -spans /tmp/spans.json
//	go -C benchmark run . -repeat 5 -o /tmp/set-a.json
//	go -C benchmark run . -compare /tmp/set-a.json /tmp/set-b.json
//
// A run prints, as the last line of its standard output, one JSON
// object with "correct", "attempted", "failed" and "metrics": the
// end-to-end metrics BENCHMARK.json lists, or with -trace 1 the
// per-layer ones. It exits 1 when an output check failed and 2 when
// the run could not complete. See README.md for the workloads, the
// metrics and their bounds.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

var workloads = map[string]func(config) (*outcome, error){
	"figures":   runFigures,
	"city-enum": runCityEnum,
	"city-sim":  runCitySim,
	"serve":     runServe,
}

// digests holds the SHA-256 of each workload's result prefix at seed
// 1, keyed "<workload>/<scale>/<seed>". A run whose digest differs has
// changed what the program computes.
//
//go:embed testdata/digests.json
var digestsJSON []byte

func main() {
	var (
		workload = flag.String("workload", "all", "workload to run, or all")
		seed     = flag.Int64("seed", 1, "seed the workload inputs are made from")
		seconds  = flag.Float64("seconds", 0, "length of the timed phase; 0 means run_seconds from BENCHMARK.json")
		traced   = flag.Int("trace", 0, "1 records spans and prints the per-layer metrics")
		spansOut = flag.String("spans", "", "with -trace 1, write the spans and self times as JSON to this file")
		out      = flag.String("o", "", "write the results of every run to this JSON file")
		repeat   = flag.Int("repeat", 1, "run every workload this many times, with seeds seed, seed+1, …")
		cmp      = flag.Bool("compare", false, "compare result files: -compare base.json head.json")
	)
	flag.Parse()
	sp, err := loadSpec()
	if err != nil {
		exit(err)
	}
	if *cmp {
		if flag.NArg() != 2 {
			exit(fmt.Errorf("-compare takes two result files, the base and the head"))
		}
		regressions, err := compareFiles(sp, flag.Arg(0), flag.Arg(1), os.Stdout)
		if err != nil {
			exit(err)
		}
		if regressions > 0 {
			os.Exit(1)
		}
		return
	}
	if *traced != 0 && *traced != 1 {
		exit(fmt.Errorf("-trace must be 0 or 1"))
	}
	window := time.Duration(*seconds * float64(time.Second))
	if window <= 0 {
		window = time.Duration(sp.RunSeconds) * time.Second
	}
	names := []string{*workload}
	if *workload == "all" {
		names = sp.workloadNames()
	}
	for _, n := range names {
		if workloads[n] == nil {
			exit(fmt.Errorf("unknown workload %q (have %s)", n, strings.Join(sp.workloadNames(), ", ")))
		}
	}
	if len(names) > 1 || *repeat > 1 {
		ok, err := runChildren(sp, names, *seed, window, *traced == 1, *repeat, *spansOut, *out)
		if err != nil {
			exit(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	rep, err := runOne(sp, names[0], *seed, window, *traced == 1, fullScale, *spansOut)
	if err != nil {
		exit(err)
	}
	if *out != "" {
		set := resultSet{Env: environment(window, *traced == 1), Runs: []runRecord{{names[0], *seed, *traced == 1, rep}}}
		if err := set.write(*out); err != nil {
			exit(err)
		}
	}
	line, err := json.Marshal(rep)
	if err != nil {
		exit(err)
	}
	fmt.Println(string(line))
	if !rep.Correct {
		os.Exit(1)
	}
}

func exit(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// runOne runs one workload in this process and checks its result
// digest.
func runOne(sp *spec, name string, seed int64, window time.Duration, traced bool, sc scale, spansPath string) (report, error) {
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	o, err := workloads[name](config{seed: seed, window: window, tr: tr, sc: sc})
	if err != nil {
		return report{}, err
	}
	if traced {
		wall := time.Since(tr.t0)
		spans := tr.snapshot()
		o.set("trace.coverage", "ratio", coverage(spans, wall))
		o.set("trace.op_p50_ms", "ms", o.metrics["op_p50_ms"].Value)
		o.set("tracegen.gen_s", "s", median(durations(spans, "tracegen.generate")))
		// A metric "<span name>.share" is the self time of the spans so
		// named, and of the names below it, as a share of the run's wall
		// time. Layer times are reported this way because every run
		// prints every per-layer metric: a time in seconds would read 0
		// on every workload that does not call the layer.
		self := selfTimes(spans)
		for _, m := range sp.PerLayer {
			if prefix, ok := strings.CutSuffix(m.Name, ".share"); ok {
				o.set(m.Name, "ratio", float64(selfTimeUnder(self, prefix))/float64(wall))
			}
		}
		if spansPath != "" {
			if err := writeSpans(spansPath, name, spans, wall); err != nil {
				return report{}, err
			}
		}
	}
	var digests map[string]string
	if err := json.Unmarshal(digestsJSON, &digests); err != nil {
		return report{}, fmt.Errorf("parse testdata/digests.json: %w", err)
	}
	key := fmt.Sprintf("%s/%s/%d", name, sc.name, seed)
	if want, ok := digests[key]; ok && want != o.digest {
		o.fail("%s: result digest %s, want %s", key, o.digest, want)
	}
	logf("%s seed %d: digest %s %s", name, seed, key, o.digest)
	for _, n := range o.notes {
		logf("%s seed %d: %s", name, seed, n)
	}
	for _, p := range o.problems {
		logf("%s seed %d: FAILED %s", name, seed, p)
	}
	rep, err := sp.report(o, traced)
	if err != nil {
		return rep, fmt.Errorf("%s: %w", name, err)
	}
	keys := make([]string, 0, len(rep.Metrics))
	for k := range rep.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		logf("%s seed %d: %-28s %14.4f %s", name, seed, k, rep.Metrics[k].Value, rep.Metrics[k].Unit)
	}
	return rep, nil
}
