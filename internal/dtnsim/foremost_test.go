package dtnsim

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/forward"
	"repro/internal/trace"
	"repro/internal/tracegen"
)

// foremostArrivals computes, from the definition and without the
// simulator's event machinery, the earliest time each node can hold a
// message created at src at time start: a node holds it at start, and
// a contact [Start, End] between x and y hands it from x to y at
// max(arrival[x], Start) whenever arrival[x] ≤ End. Relaxing every
// contact in both directions until nothing changes gives the foremost
// journey to every node (+Inf where none exists).
func foremostArrivals(tr *trace.Trace, src trace.NodeID, start float64) []float64 {
	arr := make([]float64, tr.NumNodes)
	for i := range arr {
		arr[i] = math.Inf(1)
	}
	arr[src] = start
	for changed := true; changed; {
		changed = false
		for _, c := range tr.Contacts() {
			for _, d := range [2][2]trace.NodeID{{c.A, c.B}, {c.B, c.A}} {
				x, y := d[0], d[1]
				if arr[x] <= c.End {
					if t := max(arr[x], c.Start); t < arr[y] {
						arr[y] = t
						changed = true
					}
				}
			}
		}
	}
	return arr
}

// TestEpidemicDelayIsForemostJourney checks the whole epidemic replay
// against its definition: in replicate mode, Epidemic delivers a
// message exactly when a foremost journey reaches the destination, and
// its delay is that journey's arrival minus the message start, to the
// bit, because both sides subtract the start from the same contact
// start or creation time. The inputs are the Dev trace (seeds 1–5),
// the four paper datasets and 300 random integer-time traces of 3–8
// nodes, whose ties put contact starts, contact ends and message
// creations at the same instant.
func TestEpidemicDelayIsForemostJourney(t *testing.T) {
	type input struct {
		tr   *trace.Trace
		msgs []Message
	}
	var inputs []input
	for seed := int64(1); seed <= 5; seed++ {
		tr := tracegen.Dev(seed)
		inputs = append(inputs, input{tr, Workload(tr, 0.2, tr.Horizon, seed)})
	}
	for i, d := range tracegen.Datasets {
		tr := tracegen.MustGenerate(d)
		inputs = append(inputs, input{tr, Workload(tr, 0.02, tr.Horizon*2/3, int64(i+1))})
	}
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(6)
		const horizon = 300
		var cs []trace.Contact
		for i := 5 + rng.Intn(40); i > 0; i-- {
			a := trace.NodeID(rng.Intn(n))
			b := trace.NodeID((int(a) + 1 + rng.Intn(n-1)) % n)
			s := float64(rng.Intn(270))
			cs = append(cs, trace.Contact{A: a, B: b, Start: s, End: min(s+float64(rng.Intn(60)), horizon)})
		}
		tr := mkTrace(t, n, horizon, cs)
		msgs := make([]Message, 10)
		for i := range msgs {
			src := trace.NodeID(rng.Intn(n))
			msgs[i] = Message{Src: src, Dst: trace.NodeID((int(src) + 1 + rng.Intn(n-1)) % n), Start: float64(rng.Intn(200))}
		}
		inputs = append(inputs, input{tr, msgs})
	}

	delivered, undelivered := 0, 0
	for _, in := range inputs {
		r := run(t, Config{Trace: in.tr, Algorithm: forward.Epidemic{}, Messages: in.msgs})
		for i, m := range in.msgs {
			arrival := foremostArrivals(in.tr, m.Src, m.Start)[m.Dst]
			o := r.Outcomes[i]
			reachable := !math.IsInf(arrival, 1)
			if o.Delivered != reachable || (reachable && o.Delay != arrival-m.Start) {
				t.Fatalf("%s: message %d (%d→%d at %v): epidemic delivered %v with delay %v; foremost journey arrives at %v (delay %v)",
					in.tr.Name, i, m.Src, m.Dst, m.Start, o.Delivered, o.Delay, arrival, arrival-m.Start)
			}
			if reachable {
				delivered++
			} else {
				undelivered++
			}
		}
	}
	// Guard against a vacuous pass: both outcomes occur often.
	if delivered < 1000 || undelivered < 100 {
		t.Fatalf("only %d delivered and %d undelivered messages checked", delivered, undelivered)
	}
	t.Logf("%d delivered and %d undelivered messages agree with their foremost journeys", delivered, undelivered)
}
