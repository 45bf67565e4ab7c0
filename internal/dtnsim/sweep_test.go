package dtnsim

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/forward"
	"repro/internal/tracegen"
)

// --- liveSet: the dense live-message index ---

// TestLiveSetMatchesMapModel drives the dense live set and a map-based
// model through seeded random schedules of add/remove events —
// mimicking the create/deliver churn of a simulation run — and checks
// membership, count and iteration agree after every step.
func TestLiveSetMatchesMapModel(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(300)
		var l liveSet
		l.reset(n)
		model := make(map[int]bool)
		for step := 0; step < 2000; step++ {
			id := rng.Intn(n)
			switch {
			case rng.Intn(2) == 0:
				l.add(id)
				model[id] = true
			default:
				l.remove(id)
				delete(model, id)
			}
			if got, want := l.has(id), model[id]; got != want {
				t.Fatalf("seed %d step %d: has(%d) = %v, model %v", seed, step, id, got, want)
			}
			if got, want := l.count(), len(model); got != want {
				t.Fatalf("seed %d step %d: count = %d, model %d", seed, step, got, want)
			}
		}
		// Iteration yields exactly the model's members, each once, in
		// ascending order.
		var seen []int
		l.Each(func(id int) { seen = append(seen, id) })
		if len(seen) != len(model) {
			t.Fatalf("seed %d: Each yielded %d ids, model has %d", seed, len(seen), len(model))
		}
		for i, id := range seen {
			if !model[id] {
				t.Fatalf("seed %d: Each yielded non-member %d", seed, id)
			}
			if i > 0 && seen[i-1] >= id {
				t.Fatalf("seed %d: Each order not ascending: %d before %d", seed, seen[i-1], id)
			}
		}
	}
}

// TestLiveSetRemoveDuringEach pins the one mutation Each permits:
// removing the id currently being visited must not skip or double-
// visit any other member (the simulator's deliver does exactly this).
func TestLiveSetRemoveDuringEach(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(200)
		var l liveSet
		l.reset(n)
		want := make(map[int]bool)
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				l.add(i)
				want[i] = true
			}
		}
		visited := make(map[int]int)
		l.Each(func(id int) {
			visited[id]++
			if rng.Intn(2) == 0 {
				l.remove(id)
			}
		})
		if len(visited) != len(want) {
			t.Fatalf("seed %d: visited %d ids, want %d", seed, len(visited), len(want))
		}
		for id, c := range visited {
			if !want[id] || c != 1 {
				t.Fatalf("seed %d: id %d visited %d times (member: %v)", seed, id, c, want[id])
			}
		}
	}
}

// --- Sweep: pooled-state reset equivalence ---

// TestSweepResetIndistinguishableFromFresh runs a varied configuration
// sequence twice over one Sweep — so the second pass runs entirely on
// pooled, reset state — and checks every result equals both the first
// pass's and a fresh Run's. This pins the reset contract: a pooled sim
// is indistinguishable from a freshly constructed one even after runs
// with different algorithms, copy modes, message counts and worker
// counts have dirtied it.
func TestSweepResetIndistinguishableFromFresh(t *testing.T) {
	tr := tracegen.Dev(11)
	sw, err := NewSweep(tr)
	if err != nil {
		t.Fatal(err)
	}
	msgsA := Workload(tr, 0.2, tr.Horizon, 7)
	msgsB := Workload(tr, 0.05, tr.Horizon/2, 8) // different count and window
	matrix := []Config{
		{Algorithm: forward.Epidemic{}, Messages: msgsA, Workers: 1},
		{Algorithm: forward.SprayAndWait{L: 4}, Messages: msgsB, Workers: 1},
		{Algorithm: &forward.PRoPHET{}, Messages: msgsA, CopyMode: Relay, Workers: 1},
		{Algorithm: forward.DynamicProgramming{}, Messages: msgsB, Workers: 3},
		{Algorithm: forward.Greedy{}, Messages: msgsA, CopyMode: Relay, Workers: 2},
		{Algorithm: forward.Epidemic{}, Messages: msgsB, Workers: 4},
	}
	first := make([]*Result, len(matrix))
	for i, cfg := range matrix {
		if first[i], err = sw.Run(cfg); err != nil {
			t.Fatalf("pass 1 cfg %d: %v", i, err)
		}
	}
	for i, cfg := range matrix {
		again, err := sw.Run(cfg)
		if err != nil {
			t.Fatalf("pass 2 cfg %d: %v", i, err)
		}
		if !reflect.DeepEqual(first[i], again) {
			t.Errorf("cfg %d: pooled rerun diverges from first run", i)
		}
		cfg.Trace = tr
		fresh, err := Run(cfg)
		if err != nil {
			t.Fatalf("fresh cfg %d: %v", i, err)
		}
		if !reflect.DeepEqual(first[i], fresh) {
			t.Errorf("cfg %d: sweep run diverges from fresh Run", i)
		}
	}
}

// TestSweepValidation exercises the Sweep-specific error paths.
func TestSweepValidation(t *testing.T) {
	if _, err := NewSweep(nil); err == nil {
		t.Error("nil trace accepted")
	}
	tr := tracegen.Dev(1)
	other := tracegen.Dev(2)
	sw, err := NewSweep(tr)
	if err != nil {
		t.Fatal(err)
	}
	if sw.Trace() != tr {
		t.Error("Trace() does not return the sweep trace")
	}
	if sw.Oracle() == nil || sw.Oracle().tr != tr {
		t.Error("Oracle() not built from the sweep trace")
	}
	if _, err := sw.Run(Config{Algorithm: forward.Epidemic{}, Trace: other}); err == nil {
		t.Error("different trace accepted")
	}
	if _, err := sw.Run(Config{}); err == nil {
		t.Error("nil algorithm accepted")
	}
	if _, err := sw.Run(Config{Algorithm: forward.Epidemic{}, Messages: []Message{{Src: 0, Dst: 0}}}); err == nil {
		t.Error("invalid message accepted")
	}
	// The sweep's own trace is accepted explicitly.
	if _, err := sw.Run(Config{Algorithm: forward.Epidemic{}, Trace: tr}); err != nil {
		t.Errorf("sweep's own trace rejected: %v", err)
	}
}

// TestSweepConcurrentRuns hammers one Sweep from many goroutines (the
// serving layer's usage) and checks every result matches a fresh
// serial Run; `go test -race` guards the pool handoff.
func TestSweepConcurrentRuns(t *testing.T) {
	tr := tracegen.Dev(3)
	sw, err := NewSweep(tr)
	if err != nil {
		t.Fatal(err)
	}
	msgs := Workload(tr, 0.15, tr.Horizon, 3)
	want, err := Run(Config{Trace: tr, Algorithm: forward.Epidemic{}, Messages: msgs, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				r, err := sw.Run(Config{Algorithm: forward.Epidemic{}, Messages: msgs, Workers: 1 + g%3})
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(want, r) {
					t.Error("concurrent sweep run diverges")
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestSweepZeroAndTinyRuns covers the degenerate shard shapes: no
// messages, fewer messages than workers.
func TestSweepZeroAndTinyRuns(t *testing.T) {
	tr := tracegen.Dev(4)
	sw, err := NewSweep(tr)
	if err != nil {
		t.Fatal(err)
	}
	r, err := sw.Run(Config{Algorithm: forward.Epidemic{}, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Outcomes) != 0 || r.Transmissions != 0 {
		t.Errorf("empty run produced %+v", r)
	}
	one := []Message{{Src: 0, Dst: 1, Start: 10}}
	r1, err := sw.Run(Config{Algorithm: forward.Epidemic{}, Messages: one, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := Run(Config{Trace: tr, Algorithm: forward.Epidemic{}, Messages: one, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, fresh) {
		t.Error("single-message sweep run diverges from fresh Run")
	}
}
