package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
)

// specMetric is one metric BENCHMARK.json lists.
type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"` // end-to-end only
}

// spec is BENCHMARK.json at the repository root: the workloads, the
// metrics every run prints, and the regression bounds.
type spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

// loadSpec reads BENCHMARK.json from the working directory or its
// parent: the benchmark runs from the repository root, its tests from
// this directory.
func loadSpec() (*spec, error) {
	var data []byte
	var err error
	for _, p := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		if data, err = os.ReadFile(p); !errors.Is(err, fs.ErrNotExist) {
			break
		}
	}
	if err != nil {
		return nil, fmt.Errorf("read BENCHMARK.json: %w", err)
	}
	var sp spec
	if err := json.Unmarshal(data, &sp); err != nil {
		return nil, fmt.Errorf("parse BENCHMARK.json: %w", err)
	}
	return &sp, nil
}

func (sp *spec) workloadNames() []string {
	names := make([]string, len(sp.Workloads))
	for i, w := range sp.Workloads {
		names[i] = w.Name
	}
	return names
}

// report is the line a run prints last: exactly the metrics the spec
// lists for its kind of run.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report selects from o the end-to-end metrics, or for a traced run the
// per-layer ones. Every end-to-end metric must have been measured; a
// per-layer metric of a layer the workload does not run reads 0.
func (sp *spec) report(o *outcome, traced bool) (report, error) {
	list := sp.EndToEnd
	if traced {
		list = sp.PerLayer
	}
	r := report{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: make(map[string]metric, len(list))}
	for _, want := range list {
		got, ok := o.metrics[want.Name]
		switch {
		case !ok && !traced:
			return r, fmt.Errorf("end-to-end metric %s was not measured", want.Name)
		case !ok:
			got = metric{0, want.Unit}
		case got.Unit != want.Unit:
			return r, fmt.Errorf("metric %s measured in %s, BENCHMARK.json says %s", want.Name, got.Unit, want.Unit)
		case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
			return r, fmt.Errorf("metric %s is %v", want.Name, got.Value)
		}
		r.Metrics[want.Name] = got
	}
	return r, nil
}
