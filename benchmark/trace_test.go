package main

import (
	"testing"
	"time"
)

func sp(id, parent int, name string, start, end int64) span {
	return span{ID: id, Parent: parent, Op: -1, Name: name, Start: start, End: end}
}

func TestSelfTimesSubtractChildCoverage(t *testing.T) {
	spans := []span{
		sp(0, -1, "op.x", 0, 100),
		sp(1, 0, "pathenum.enumerate", 10, 40),
		sp(2, 0, "stgraph.build", 30, 60), // overlaps its sibling
		sp(3, 1, "tracegen.generate", 15, 20),
		sp(4, 0, "dtnsim.run", 90, 120), // runs past its parent's end
		sp(5, -1, "pathenum.new", 200, 210),
	}
	want := map[string]time.Duration{
		"op.x":               100 - 60, // children cover [10,60) and [90,100)
		"pathenum.enumerate": 30 - 5,
		"stgraph.build":      30,
		"tracegen.generate":  5,
		"dtnsim.run":         30,
		"pathenum.new":       10,
	}
	got := selfTimes(spans)
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self time of %s = %v, want %v", name, got[name], w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("self times for %d names, want %d: %v", len(got), len(want), got)
	}
	for prefix, w := range map[string]time.Duration{"pathenum": 35, "pathenum.new": 10, "path": 0, "dtnsim.run.fresh": 0} {
		if d := selfTimeUnder(got, prefix); d != w {
			t.Errorf("self time under %s = %v, want %v", prefix, d, w)
		}
	}
}

func TestCoverageCountsTopLevelUnion(t *testing.T) {
	spans := []span{
		sp(0, -1, "a.x", 0, 40),
		sp(1, -1, "b.x", 30, 50),
		sp(2, 0, "c.x", 45, 58), // a child adds nothing
		sp(3, -1, "d.x", 60, 100),
	}
	if got := coverage(spans, 100); got != 0.9 {
		t.Errorf("coverage = %g, want 0.9", got)
	}
}

func TestNilTracerRunsCallsAndRecordsNothing(t *testing.T) {
	var tr *tracer
	ran := false
	if err := tr.do("a.x", -1, 0, func() error { ran = true; return nil }); err != nil || !ran {
		t.Fatalf("do on a nil tracer: ran %t, err %v", ran, err)
	}
	if id := tr.begin("a.x", -1, 0); id != -1 {
		t.Errorf("begin on a nil tracer = %d, want -1", id)
	}
	tr.end(-1)
}

func TestTracerNestsAndAggregatesPerOp(t *testing.T) {
	tr := newTracer()
	for op := 0; op < 2; op++ {
		outer := tr.begin("op.x", -1, op)
		for k := 0; k < 3; k++ {
			tr.do("figures.study", outer, op, func() error { time.Sleep(time.Millisecond); return nil })
		}
		tr.end(outer)
	}
	spans := tr.snapshot()
	if len(spans) != 8 {
		t.Fatalf("%d spans, want 8", len(spans))
	}
	sums, maxes := perOp(spans, "figures.study", sum), perOp(spans, "figures.study", maxOf)
	if len(sums) != 2 || len(maxes) != 2 {
		t.Fatalf("perOp gave %d sums and %d maxima, want 2 each", len(sums), len(maxes))
	}
	for i := range sums {
		if sums[i] < 0.003 || maxes[i] < 0.001 || maxes[i] > sums[i] {
			t.Errorf("op %d: sum %g s, max %g s", i, sums[i], maxes[i])
		}
	}
	if self := selfTimes(spans); self["op.x"] > self["figures.study"] {
		t.Errorf("op self time %v exceeds its children's %v", self["op.x"], self["figures.study"])
	}
}
