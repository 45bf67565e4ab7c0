package main

import (
	"bytes"
	"regexp"
	"strings"
	"testing"
	"time"
)

var (
	nameRE    = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE    = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	timeUnits = map[string]bool{"s": true, "ms": true, "us": true}
)

func TestSpecIsWellFormed(t *testing.T) {
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	check := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("bad name %q", name)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	for _, w := range sp.Workloads {
		check(w.Name)
		if workloads[w.Name] == nil {
			t.Errorf("workload %s has no implementation", w.Name)
		}
	}
	if len(sp.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(sp.Workloads), len(workloads))
	}
	largest := 0.0
	var setup specMetric
	for _, m := range sp.EndToEnd {
		largest = max(largest, m.Bound)
		if m.Name == "setup_s" {
			setup = m
		}
	}
	for _, list := range [][]specMetric{sp.EndToEnd, sp.PerLayer} {
		for _, m := range list {
			check(m.Name)
			if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
				t.Errorf("metric %s: unit %q, better %q", m.Name, m.Unit, m.Better)
			}
		}
	}
	for _, m := range sp.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if setup.Unit != "s" || setup.Better != "lower" || setup.Bound != largest {
		t.Errorf("setup_s must be an end-to-end metric in s, lower better, with the largest bound: %+v", setup)
	}
}

// The smoke run drives all four workloads, untraced and traced, on
// small traces: each must pass its output checks, reproduce its
// committed result digest and print every metric BENCHMARK.json lists
// with its unit. The window is short: serve's phase A alone would send
// fewer than the replies it digests, so it must run on until they are
// sent.
func TestSmokeEveryWorkloadReportsEveryMetric(t *testing.T) {
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	for _, w := range sp.workloadNames() {
		for _, traced := range []bool{false, true} {
			rep, err := runOne(sp, w, 1, 200*time.Millisecond, traced, smokeScale, "")
			if err != nil {
				t.Fatalf("%s traced=%t: %v", w, traced, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("%s traced=%t: correct %t, %d attempted, %d failed", w, traced, rep.Correct, rep.Attempted, rep.Failed)
			}
			want := sp.EndToEnd
			if traced {
				want = sp.PerLayer
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s traced=%t: %d metrics, want %d", w, traced, len(rep.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := rep.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s traced=%t: metric %s = %+v, want unit %s", w, traced, m.Name, got, m.Unit)
				}
				// Every run prints every metric, so a time that a
				// workload does not measure would read 0 on every run.
				if timeUnits[m.Unit] && got.Value <= 0 {
					t.Errorf("%s traced=%t: time metric %s reads %g", w, traced, m.Name, got.Value)
				}
			}
			if traced && rep.Metrics["trace.coverage"].Value < 0.95 && w != "serve" {
				t.Errorf("%s: trace coverage %g below 0.95", w, rep.Metrics["trace.coverage"].Value)
			}
		}
	}
	t.Logf("smoke run of every workload, untraced and traced: %v", time.Since(start))
}

func TestCompareVerdicts(t *testing.T) {
	m := specMetric{Name: "op_p50_ms", Better: "lower", Bound: 0.1}
	base := []float64{10, 10.1, 9.9, 10, 10.05}
	for _, tc := range []struct {
		head []float64
		want string
	}{
		{[]float64{10.2, 9.95, 10.1, 10, 10.05}, "ok"},
		{[]float64{11.5, 11.6, 11.4, 11.5, 11.55}, "REGRESSION"},
		{[]float64{5, 15, 10, 7, 13}, "unresolved"},
		{[]float64{5, 5.05, 4.95, 5, 5.02}, "ok"}, // quiet and better
	} {
		if _, _, got := verdict(m, base, tc.head); got != tc.want {
			t.Errorf("head %v: verdict %s, want %s", tc.head, got, tc.want)
		}
	}
	if _, _, got := verdict(m, []float64{5, 15, 10, 7, 13}, []float64{1, 2, 1.5, 2.5, 3}); got != "better" {
		t.Errorf("noisy base, every head run better: verdict %s, want better", got)
	}
	hi := specMetric{Name: "ops_per_s", Better: "higher", Bound: 0.1}
	if _, _, got := verdict(hi, base, []float64{8.5, 8.6, 8.4, 8.5, 8.55}); got != "REGRESSION" {
		t.Errorf("higher-is-better metric falling 15%%: verdict %s, want REGRESSION", got)
	}
}

func TestCompareSetsFlagsARiseInFailures(t *testing.T) {
	sp := &spec{EndToEnd: []specMetric{{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.1}}}
	run := func(v float64, failed int) runRecord {
		return runRecord{Workload: "w", Result: report{Correct: failed == 0, Attempted: 100, Failed: failed,
			Metrics: map[string]metric{"op_p50_ms": {v, "ms"}}}}
	}
	base := &resultSet{Runs: []runRecord{run(10, 0), run(10, 0), run(10, 0)}}
	head := &resultSet{Runs: []runRecord{run(10, 0), run(10, 1), run(10, 0)}}
	var out bytes.Buffer
	if n := compareSets(sp, base, head, &out); n != 1 || !strings.Contains(out.String(), "fail_ratio") {
		t.Errorf("%d regressions, want 1 for fail_ratio:\n%s", n, out.String())
	}
}
