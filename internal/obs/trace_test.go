package obs

import (
	"sync"
	"testing"
	"time"
)

// TestNilTraceNoop: every method of a nil *Trace is a safe no-op, so
// library call sites can thread a trace unconditionally.
func TestNilTraceNoop(t *testing.T) {
	var tr *Trace
	sp := tr.Start(StageGraphSweep)
	sp.End()
	if got := tr.StageNs(StageGraphSweep); got != 0 {
		t.Fatalf("nil trace accumulated %d", got)
	}
}

// TestNilTraceZeroAlloc pins the disabled path: starting and ending a
// span on a nil trace allocates nothing (and never reads the clock,
// though that part is only visible in the implementation).
func TestNilTraceZeroAlloc(t *testing.T) {
	var tr *Trace
	if n := testing.AllocsPerRun(1000, func() {
		sp := tr.Start(StageEnumFork)
		sp.End()
	}); n != 0 {
		t.Errorf("nil-trace span allocates %.1f/op, want 0", n)
	}
}

// TestLiveSpanZeroAlloc pins the enabled path as allocation-free too.
func TestLiveSpanZeroAlloc(t *testing.T) {
	tr := &Trace{}
	if n := testing.AllocsPerRun(1000, func() {
		sp := tr.Start(StageEnumPrefix)
		sp.End()
	}); n != 0 {
		t.Errorf("live span allocates %.1f/op, want 0", n)
	}
}

// TestSpanAccumulates checks spans add up and Reset clears.
func TestSpanAccumulates(t *testing.T) {
	tr := &Trace{}
	sp := tr.Start(StageSimRun)
	time.Sleep(2 * time.Millisecond)
	sp.End()
	if got := tr.StageNs(StageSimRun); got < int64(2*time.Millisecond) {
		t.Fatalf("span accumulated %dns, want >= 2ms", got)
	}
	if got := tr.StageNs(StageEnumPrefix); got != 0 {
		t.Fatalf("untouched stage has %dns", got)
	}
	tr.Reset()
	for s := 0; s < NumStages; s++ {
		if got := tr.StageNs(Stage(s)); got != 0 {
			t.Fatalf("stage %v nonzero after Reset: %d", Stage(s), got)
		}
	}
}

// TestConcurrentSpans: spans on one trace from many goroutines (the
// batch enumerator's fan-out shape) race-cleanly accumulate all time.
// A span lasts at least as long as the sleep it wraps, so the stage
// holds at least the sum of the sleeps.
func TestConcurrentSpans(t *testing.T) {
	const goroutines, spans, nap = 8, 20, 200 * time.Microsecond
	tr := &Trace{}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < spans; i++ {
				sp := tr.Start(StageEnumFork)
				time.Sleep(nap)
				sp.End()
			}
		}()
	}
	wg.Wait()
	if got, want := tr.StageNs(StageEnumFork), int64(goroutines*spans*nap); got < want {
		t.Fatalf("lost span time: %dns, want >= %dns", got, want)
	}
}

// TestStageNames: every stage has a distinct non-empty snake_case name.
func TestStageNames(t *testing.T) {
	seen := map[string]bool{}
	for s := 0; s < NumStages; s++ {
		name := Stage(s).String()
		if name == "" || name == "unknown" || seen[name] {
			t.Fatalf("stage %d has bad or duplicate name %q", s, name)
		}
		seen[name] = true
	}
	if Stage(200).String() != "unknown" {
		t.Fatal("out-of-range stage should be unknown")
	}
}
