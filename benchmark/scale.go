package main

import (
	"time"

	psn "repro"
)

// scale sizes every workload. fullScale is what the benchmark runs;
// smokeScale runs the same code on small traces so the tests finish in
// seconds.
type scale struct {
	name      string
	setupReps int // set-ups per run; setup_s is their median

	// figures: one operation is a fresh harness regenerating the paper's
	// figures at this size.
	figMessages, figK int
	figDatasets       []psn.Dataset

	// city-enum and city-sim
	city      func() (*psn.Trace, error)
	enumK     int
	enumCount int // messages whose results are counted and digested
	simRate   float64

	// serve
	serveCount int // phase A requests whose responses are digested
}

var fullScale = scale{
	name:      "full",
	setupReps: 3,

	figMessages: 64,
	figK:        50,

	city: func() (*psn.Trace, error) { return psn.GenerateCity(2000, 1) },
	// The cost of one city message varies by a factor of 15 to 20
	// between the 10th and 90th percentile, so which messages a seed
	// draws moved the median of the 300-odd a run held at k 50 by 20–30%.
	// At k 10 a message costs about a fifth as much and a run holds some
	// 1,600, enough for the median to settle.
	enumK:     10,
	enumCount: 20,
	simRate:   0.05,

	serveCount: 100,
}

var smokeScale = scale{
	name:      "smoke",
	setupReps: 2,

	figMessages: 2,
	figK:        5,
	figDatasets: []psn.Dataset{psn.Conext0912, psn.Conext0336},

	city:      func() (*psn.Trace, error) { return psn.DevTrace(1), nil },
	enumK:     20,
	enumCount: 5,
	simRate:   0.1,

	serveCount: 10,
}

// serve phases split the window: open-loop phase A first, then the
// closed-loop phase B.
const servePhaseAShare = 0.6

func phaseDurations(window time.Duration) (a, b time.Duration) {
	a = time.Duration(float64(window) * servePhaseAShare)
	return a, window - a
}
