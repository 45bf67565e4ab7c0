package pathenum

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/trace"
	"repro/internal/tracegen"
)

// resultKey flattens a Result into a comparable string: message,
// exhaustion flag and every arrival path with its step.
func resultKey(r *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d->%d@%g delta=%g exhausted=%v\n", r.Msg.Src, r.Msg.Dst, r.Msg.Start, r.Delta, r.Exhausted)
	for _, p := range r.Arrivals {
		b.WriteString(p.String())
		b.WriteByte('\n')
	}
	return b.String()
}

func sampleMessages(rng *rand.Rand, tr *trace.Trace, n int) []Message {
	msgs := make([]Message, n)
	for i := range msgs {
		src := trace.NodeID(rng.Intn(tr.NumNodes))
		dst := trace.NodeID(rng.Intn(tr.NumNodes - 1))
		if dst >= src {
			dst++
		}
		msgs[i] = Message{Src: src, Dst: dst, Start: rng.Float64() * tr.Horizon / 2}
	}
	return msgs
}

// EnumerateAll must return, in order, exactly what a serial Enumerate
// loop returns — for several seeds and several worker counts.
func TestEnumerateAllSerialEquivalence(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 11} {
		tr := tracegen.Dev(seed)
		rng := rand.New(rand.NewSource(seed + 55))
		msgs := sampleMessages(rng, tr, 12)

		serialEnum, err := NewEnumerator(tr, Options{K: 150, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		want := make([]string, len(msgs))
		for i, m := range msgs {
			r, err := serialEnum.Enumerate(m)
			if err != nil {
				t.Fatalf("seed %d message %d: %v", seed, i, err)
			}
			want[i] = resultKey(r)
		}

		for _, workers := range []int{1, 2, 8} {
			enum, err := NewEnumerator(tr, Options{K: 150, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			results, err := enum.EnumerateAll(msgs, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(results) != len(msgs) {
				t.Fatalf("workers=%d: %d results for %d messages", workers, len(results), len(msgs))
			}
			for i, r := range results {
				if got := resultKey(r); got != want[i] {
					t.Errorf("seed %d workers=%d message %d diverges:\n got %q\nwant %q",
						seed, workers, i, got, want[i])
				}
			}
		}
	}
}

// EnumerateAll must report the error of the lowest-index invalid
// message regardless of worker count, matching a serial loop.
func TestEnumerateAllDeterministicError(t *testing.T) {
	tr := tracegen.Dev(1)
	enum, err := NewEnumerator(tr, Options{K: 50, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	msgs := []Message{
		{Src: 0, Dst: 1, Start: 0},
		{Src: 2, Dst: 2, Start: 0},  // invalid: equal endpoints
		{Src: 3, Dst: 4, Start: -1}, // invalid: negative start
	}
	_, err = enum.EnumerateAll(msgs, nil)
	if err == nil || !strings.Contains(err.Error(), "message 1") {
		t.Errorf("err = %v, want the index-1 failure", err)
	}
}

// A single shared Enumerator hammered from many goroutines (mixing
// Enumerate and EnumerateAll) must stay race-free and deterministic.
// The batch holds a shared-prefix group, so its forks move in and out
// of the scratch pool that the lone calls draw from.
func TestEnumeratorConcurrentStress(t *testing.T) {
	tr := tracegen.Dev(4)
	enum, err := NewEnumerator(tr, Options{K: 100, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	msgs := append(sampleMessages(rng, tr, 8), sharedPrefixBatch(rng, tr, 4)...)
	want := make([]string, len(msgs))
	for i, m := range msgs {
		r, err := enum.Enumerate(m)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = resultKey(r)
	}

	var wg sync.WaitGroup
	for g := 0; g < 12; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if g%3 == 0 {
				results, err := enum.EnumerateAll(msgs, nil)
				if err != nil {
					t.Error(err)
					return
				}
				for i, r := range results {
					if resultKey(r) != want[i] {
						t.Errorf("goroutine %d: batch message %d diverged", g, i)
					}
				}
				return
			}
			for i := range msgs {
				r, err := enum.Enumerate(msgs[(i+g)%len(msgs)])
				if err != nil {
					t.Error(err)
					return
				}
				if resultKey(r) != want[(i+g)%len(msgs)] {
					t.Errorf("goroutine %d: message %d diverged", g, (i+g)%len(msgs))
				}
			}
		}(g)
	}
	wg.Wait()
}

// Property: on random seeded traces, every batch-enumerated path obeys
// the §4.1 validity rules, the K budget and the 4·K arrival cap, and
// the batch equals the serial loop. Complements the fixed-trace cases
// in validity_test.go with engine-derived per-case seeds.
func TestEnumerateAllValidityProperty(t *testing.T) {
	cases := 24
	if testing.Short() {
		cases = 8
	}
	for c := 0; c < cases; c++ {
		seed := engine.DeriveSeed(20260729, c)
		rng := rand.New(rand.NewSource(seed))
		tr, err := randomTrace(rng, 10, 400)
		if err != nil {
			t.Fatal(err)
		}
		opt := Options{Delta: 5 + float64(rng.Intn(3))*5, K: 20 + rng.Intn(120)}
		enum, err := NewEnumerator(tr, opt)
		if err != nil {
			t.Fatal(err)
		}
		opt = opt.withDefaults()
		msgs := sampleMessages(rng, tr, 4)
		results, err := enum.EnumerateAll(msgs, nil)
		if err != nil {
			t.Fatalf("case %d (seed %d): %v", c, seed, err)
		}
		for i, r := range results {
			if r.Delta != opt.Delta {
				t.Fatalf("case %d: delta %g, want %g", c, r.Delta, opt.Delta)
			}
			checkPathValidity(t, tr, msgs[i], r)
			// Budget: enumeration never records more than the 4·K
			// arrival cap, and stopping early must be flagged as
			// exhaustion of the K budget.
			if n := r.NumPaths(); n > 4*opt.K {
				t.Fatalf("case %d: %d arrivals exceed the arrival cap %d", c, n, 4*opt.K)
			}
			if r.Exhausted && r.NumPaths() < opt.K {
				t.Fatalf("case %d: exhausted with %d < K=%d arrivals", c, r.NumPaths(), opt.K)
			}
			// Per-worker scratch must not leak across messages: a
			// fresh enumerator on the same message agrees.
			fresh, err := NewEnumerator(tr, Options{Delta: opt.Delta, K: opt.K})
			if err != nil {
				t.Fatal(err)
			}
			fr, err := fresh.Enumerate(msgs[i])
			if err != nil {
				t.Fatal(err)
			}
			if resultKey(fr) != resultKey(r) {
				t.Fatalf("case %d message %d: batch result differs from fresh enumerator", c, i)
			}
		}
	}
}
