package stgraph

import (
	"context"
	"reflect"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/tracegen"
)

// TestNewWorkersCancelEquivalence: building with a never-firing token
// yields a graph identical to an untokened build,
// serial and parallel.
func TestNewWorkersCancelEquivalence(t *testing.T) {
	tr := tracegen.Dev(9)
	plain, err := NewWorkersCancel(tr, DefaultDelta, 1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	inert := engine.NewCancel(context.Background(), time.Hour)
	for _, workers := range []int{1, 4} {
		g, err := NewWorkersCancel(tr, DefaultDelta, workers, nil, &inert)
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
	cc := engine.NewCancel(ctx, 0)
	for _, workers := range []int{1, 4} {
		g, err := NewWorkersCancel(tr, DefaultDelta, workers, nil, &cc)
		if !engine.IsCanceled(err) {
			t.Fatalf("workers=%d: err = %v, want CanceledError", workers, err)
		}
		if g != nil {
			t.Fatalf("workers=%d: build returned a graph alongside cancellation", workers)
		}
	}
}
