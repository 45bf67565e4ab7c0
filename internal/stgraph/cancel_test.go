package stgraph

import (
	"context"
	"reflect"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/trace"
	"repro/internal/tracegen"
)

// TestNewWorkersCancelEquivalence: building with a never-firing token
// yields a graph identical to an untokened build,
// serial and parallel.
func TestNewWorkersCancelEquivalence(t *testing.T) {
	tr := tracegen.Dev(9)
	plain, err := build(tr, DefaultDelta, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	inert := engine.NewCtx(context.Background(), time.Hour, nil)
	for _, workers := range []int{1, 4} {
		g, err := build(tr, DefaultDelta, workers, &inert)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(plain, g) {
			t.Fatalf("workers=%d: graph differs under a never-firing token", workers)
		}
	}
}

// TestNewWorkersCancelAbandons: a fired token abandons the build with
// a *engine.CanceledError and no graph.
func TestNewWorkersCancelAbandons(t *testing.T) {
	tr := tracegen.Dev(9)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cx := engine.NewCtx(ctx, 0, nil)
	for _, workers := range []int{1, 4} {
		g, err := build(tr, DefaultDelta, workers, &cx)
		if !engine.IsCanceled(err) {
			t.Fatalf("workers=%d: err = %v, want CanceledError", workers, err)
		}
		if g != nil {
			t.Fatalf("workers=%d: build returned a graph alongside cancellation", workers)
		}
	}
}

// TestBuildCancelCheckpoints pins the build's own checkpoints, which
// New's re-poll of the token would hide: with a fired token the event
// sweep stops at its step-1,023 checkpoint, emitting fewer frames than
// a full sweep, and the frame fill leaves every frame unfilled.
func TestBuildCancelCheckpoints(t *testing.T) {
	// One pair meeting every other step for 3,000 steps: a new frame
	// every second step, past the sweep's first checkpoint too.
	const steps = 3000
	var cs []trace.Contact
	for s := 0.0; s < steps*10; s += 20 {
		cs = append(cs, trace.Contact{A: 0, B: 1, Start: s, End: s + 5})
	}
	tr, err := trace.New("checkpoints", 2, steps*10, cs)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	fired := engine.NewCtx(ctx, 0, nil)
	runSweep := func(cx *engine.Ctx) (*Graph, *sweep) {
		g := &Graph{NumNodes: 2, Delta: 10, Steps: steps, stepFrame: make([]int32, steps)}
		sw := newSweep(tr, 10, steps)
		sw.run(g, cx)
		return g, sw
	}
	_, full := runSweep(nil)
	if _, stopped := runSweep(&fired); len(stopped.frameOff) >= len(full.frameOff)/2 {
		t.Errorf("sweep under a fired token emitted %d of %d frames", len(stopped.frameOff), len(full.frameOff))
	}
	g, sw := runSweep(nil)
	buildFrames(g, sw, 2, 1, &fired)
	for i, f := range g.frames {
		if f.offsets != nil {
			t.Fatalf("frame %d of %d filled under a fired token", i, len(g.frames))
		}
	}
}
