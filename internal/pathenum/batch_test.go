package pathenum

import (
	"math/rand"
	"testing"

	"repro/internal/trace"
	"repro/internal/tracegen"
)

// batchCompare enumerates msgs as one EnumerateAll batch and as
// independent serial Enumerate calls on a fresh enumerator, requiring
// byte-identical results in message order. This is the contract the
// shared-prefix grouping must uphold: grouping is invisible in the
// output.
func batchCompare(t *testing.T, tr *trace.Trace, opt Options, msgs []Message, label string) {
	t.Helper()
	batch, err := NewEnumerator(tr, opt)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	serial, err := NewEnumerator(tr, opt)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	got, err := batch.EnumerateAll(msgs, nil)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if len(got) != len(msgs) {
		t.Fatalf("%s: %d results for %d messages", label, len(got), len(msgs))
	}
	for i, m := range msgs {
		want, err := serial.Enumerate(m)
		if err != nil {
			t.Fatalf("%s message %d: %v", label, i, err)
		}
		if gk, wk := resultKey(got[i]), resultKey(want); gk != wk {
			t.Errorf("%s message %d (%d->%d@%g) batch diverges from serial:\n got %q\nwant %q",
				label, i, m.Src, m.Dst, m.Start, gk, wk)
		}
	}
}

// sharedPrefixBatch builds a batch of messages all sharing (src, start)
// — the maximal-sharing shape of the paper's per-destination sweeps —
// with nDst distinct destinations plus one duplicated destination.
func sharedPrefixBatch(rng *rand.Rand, tr *trace.Trace, nDst int) []Message {
	src := trace.NodeID(rng.Intn(tr.NumNodes))
	start := rng.Float64() * tr.Horizon / 2
	seen := map[trace.NodeID]bool{src: true}
	var msgs []Message
	for len(msgs) < nDst {
		d := trace.NodeID(rng.Intn(tr.NumNodes))
		if seen[d] {
			continue
		}
		seen[d] = true
		msgs = append(msgs, Message{Src: src, Dst: d, Start: start})
	}
	// A repeated destination must fork and deliver twice, identically.
	msgs = append(msgs, msgs[0])
	return msgs
}

// TestBatchEquivalenceDatasets pins grouped EnumerateAll to serial
// enumeration on all four conference datasets, with every message of a
// batch sharing one (src, start) group.
func TestBatchEquivalenceDatasets(t *testing.T) {
	datasets := tracegen.Datasets[:]
	nDst := 6
	if testing.Short() {
		datasets = datasets[:2]
		nDst = 3
	}
	for _, d := range datasets {
		tr := tracegen.MustGenerate(d)
		for _, seed := range []int64{1, 7} {
			rng := rand.New(rand.NewSource(seed))
			msgs := sharedPrefixBatch(rng, tr, nDst)
			batchCompare(t, tr, Options{K: 80, Workers: 2}, msgs, d.String())
		}
	}
}

// TestBatchEquivalenceCity pins grouped EnumerateAll on the city-scale
// 2000-node trace, exercising the fork path's layered 32-word row
// arenas end to end.
func TestBatchEquivalenceCity(t *testing.T) {
	if testing.Short() {
		t.Skip("city-scale trace generation in -short mode")
	}
	tr := tracegen.MustCity(2000, 1)
	rng := rand.New(rand.NewSource(3))
	msgs := sharedPrefixBatch(rng, tr, 4)
	batchCompare(t, tr, Options{K: 40}, msgs, "city-2k")
}

// TestBatchEquivalenceMixedBatches covers batches mixing several
// groups: different sources, different start steps, two float starts
// landing in the same step (which must share a group and still carry
// their own Start through to the result), singleton groups, and exact
// duplicate messages.
func TestBatchEquivalenceMixedBatches(t *testing.T) {
	for _, seed := range []int64{2, 5, 13} {
		tr := tracegen.Dev(seed)
		h := tr.Horizon
		msgs := []Message{
			// Group A: source 0, step of h/4, three destinations; the
			// third start differs but lands in the same Delta=10 step.
			{Src: 0, Dst: 1, Start: h / 4},
			{Src: 0, Dst: 2, Start: h / 4},
			{Src: 0, Dst: 3, Start: h/4 + 3},
			// Group B: same source, different step.
			{Src: 0, Dst: 1, Start: h / 2},
			// Group C: different source, same step as A.
			{Src: 1, Dst: 0, Start: h / 4},
			{Src: 1, Dst: 4, Start: h / 4},
			// Singleton.
			{Src: 2, Dst: 5, Start: 0},
			// Exact duplicate of a group-A message.
			{Src: 0, Dst: 2, Start: h / 4},
		}
		batchCompare(t, tr, Options{K: 60, Workers: 3}, msgs, "mixed")
	}
}

// TestBatchNeverActiveDestination covers destinations with no contacts
// at or after the start step: the group must emit an empty,
// non-exhausted result without running any dynamic program for them,
// matching what serial enumeration reports after sweeping the trace.
func TestBatchNeverActiveDestination(t *testing.T) {
	// Node 3 contacts only early; node 4 never contacts anyone.
	cs := []trace.Contact{
		{A: 0, B: 1, Start: 0, End: 200},
		{A: 1, B: 2, Start: 50, End: 200},
		{A: 2, B: 3, Start: 0, End: 40},
		{A: 0, B: 2, Start: 120, End: 180},
	}
	tr, err := trace.New("never-active", 5, 200, cs)
	if err != nil {
		t.Fatal(err)
	}
	msgs := []Message{
		{Src: 0, Dst: 3, Start: 100}, // dst inactive after start
		{Src: 0, Dst: 4, Start: 100}, // dst never active at all
		{Src: 0, Dst: 2, Start: 100}, // live destination, same group
	}
	batchCompare(t, tr, Options{Delta: 10, K: 20}, msgs, "never-active")

	enum, err := NewEnumerator(tr, Options{Delta: 10, K: 20})
	if err != nil {
		t.Fatal(err)
	}
	results, err := enum.EnumerateAll(msgs, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if results[i].NumPaths() != 0 || results[i].Exhausted {
			t.Errorf("message %d: want empty non-exhausted result, got %d paths exhausted=%v",
				i, results[i].NumPaths(), results[i].Exhausted)
		}
	}
	if results[2].NumPaths() == 0 {
		t.Errorf("live destination found no paths")
	}
}

// TestBatchEquivalenceRandomTraces fuzzes grouped batches over random
// sparse traces: random messages plus a forced shared-prefix clump, so
// group sizes and fork points vary with the topology.
func TestBatchEquivalenceRandomTraces(t *testing.T) {
	cases := 20
	if testing.Short() {
		cases = 6
	}
	for c := 0; c < cases; c++ {
		rng := rand.New(rand.NewSource(int64(4000 + c)))
		tr, err := randomTrace(rng, 10, 400)
		if err != nil {
			t.Fatal(err)
		}
		msgs := append(sampleMessages(rng, tr, 4), sharedPrefixBatch(rng, tr, 4)...)
		opt := Options{Delta: 5 + float64(rng.Intn(4))*5, K: 20 + rng.Intn(120), Workers: 1 + c%3}
		batchCompare(t, tr, opt, msgs, "random")
	}
}
