package pathenum

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/trace"
)

// These property tests verify the §4.1 validity conditions directly
// against the source trace, independently of the enumerator's own
// data structures: for every delivered path,
//
//  1. the node sequence is loop-free and starts/ends at src/dst;
//  2. join steps are non-decreasing and every hop corresponds to a
//     real contact overlapping that step;
//  3. first preference: no member node is in direct contact with the
//     destination at any step between joining the path and the path's
//     arrival step (a strictly earlier encounter would dominate);
//  4. minimal progress at the source: the path's start step is the
//     message's start step or later.

// inContactAt reports whether a and b share a contact overlapping step
// s (of width delta) in tr.
func inContactAt(tr *trace.Trace, a, b trace.NodeID, s int, delta float64) bool {
	lo := float64(s) * delta
	hi := lo + delta
	for _, c := range tr.Contacts() {
		if !c.Involves(a) || !c.Involves(b) || c.A == c.B {
			continue
		}
		if (c.A == a && c.B == b) || (c.A == b && c.B == a) {
			if c.Start < hi && (c.End > lo || (c.End == c.Start && c.End >= lo)) {
				return true
			}
		}
	}
	return false
}

func checkPathValidity(t *testing.T, tr *trace.Trace, msg Message, res *Result) {
	t.Helper()
	delta := res.Delta
	for _, p := range res.Arrivals {
		nodes := p.Nodes()
		steps := p.Steps()
		if nodes[0] != msg.Src {
			t.Fatalf("path %s does not start at source %d", p, msg.Src)
		}
		if nodes[len(nodes)-1] != msg.Dst {
			t.Fatalf("path %s does not end at destination %d", p, msg.Dst)
		}
		seen := map[trace.NodeID]bool{}
		for i, n := range nodes {
			if seen[n] {
				t.Fatalf("path %s revisits %d", p, n)
			}
			seen[n] = true
			if i > 0 {
				if steps[i] < steps[i-1] {
					t.Fatalf("path %s steps decrease", p)
				}
				if !inContactAt(tr, nodes[i-1], nodes[i], steps[i], delta) {
					t.Fatalf("path %s hop %d->%d at step %d has no contact",
						p, nodes[i-1], nodes[i], steps[i])
				}
			}
		}
		// First preference: members must not meet dst strictly before
		// the arrival step while on the path.
		arrival := p.Step
		for i := 0; i+1 < len(nodes); i++ {
			for s := steps[i]; s < arrival; s++ {
				if inContactAt(tr, nodes[i], msg.Dst, s, delta) {
					t.Fatalf("path %s violates first preference: member %d met dst at step %d < arrival %d",
						p, nodes[i], s, arrival)
				}
			}
		}
		if start := int(msg.Start / delta); steps[0] < start {
			t.Fatalf("path %s starts at step %d before message start step %d", p, steps[0], start)
		}
	}
}

func randomTrace(rng *rand.Rand, n int, horizon float64) (*trace.Trace, error) {
	var cs []trace.Contact
	m := 5 + rng.Intn(40)
	for i := 0; i < m; i++ {
		a := trace.NodeID(rng.Intn(n))
		b := trace.NodeID(rng.Intn(n))
		if a == b {
			continue
		}
		s := rng.Float64() * horizon * 0.9
		e := s + rng.Float64()*horizon*0.2
		if e > horizon {
			e = horizon
		}
		cs = append(cs, trace.Contact{A: a, B: b, Start: s, End: e})
	}
	return trace.New("rand", n, horizon, cs)
}

func TestEnumerateValidityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr, err := randomTrace(rng, 8, 300)
		if err != nil {
			return false
		}
		e, err := NewEnumerator(tr, Options{K: 500})
		if err != nil {
			return false
		}
		src := trace.NodeID(rng.Intn(8))
		dst := trace.NodeID(rng.Intn(8))
		if src == dst {
			dst = (dst + 1) % 8
		}
		msg := Message{Src: src, Dst: dst, Start: rng.Float64() * 200}
		res, err := e.Enumerate(msg)
		if err != nil {
			return false
		}
		checkPathValidity(t, tr, msg, res)
		// Arrivals must be sorted by step.
		for i := 1; i < len(res.Arrivals); i++ {
			if res.Arrivals[i].Step < res.Arrivals[i-1].Step {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Narrowing the table must never find paths a wide table misses, and
// the first arrival time must be identical (the optimal path always
// fits any table).
func TestTableWidthMonotonicityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr, err := randomTrace(rng, 8, 300)
		if err != nil {
			return false
		}
		src := trace.NodeID(rng.Intn(8))
		dst := trace.NodeID(rng.Intn(8))
		if src == dst {
			dst = (dst + 1) % 8
		}
		msg := Message{Src: src, Dst: dst, Start: 0}
		wide, err := NewEnumerator(tr, Options{K: 1000})
		if err != nil {
			return false
		}
		narrow, err := NewEnumerator(tr, Options{K: 1000, TableWidth: 2})
		if err != nil {
			return false
		}
		rw, err := wide.Enumerate(msg)
		if err != nil {
			return false
		}
		rn, err := narrow.Enumerate(msg)
		if err != nil {
			return false
		}
		if rn.NumPaths() > rw.NumPaths() {
			return false
		}
		tw, okw := rw.T1()
		tn, okn := rn.T1()
		if okw != okn {
			return false
		}
		return !okw || tw == tn
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// The enumerator is reusable: enumerating the same message twice must
// give identical results (scratch state fully reset).
func TestEnumeratorReuseProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr, err := randomTrace(rng, 8, 300)
		if err != nil {
			return false
		}
		e, err := NewEnumerator(tr, Options{K: 200})
		if err != nil {
			return false
		}
		msg := Message{Src: 0, Dst: 5, Start: 0}
		r1, err := e.Enumerate(msg)
		if err != nil {
			return false
		}
		// Interleave a different message.
		if _, err := e.Enumerate(Message{Src: 2, Dst: 7, Start: 10}); err != nil {
			return false
		}
		r2, err := e.Enumerate(msg)
		if err != nil {
			return false
		}
		if r1.NumPaths() != r2.NumPaths() {
			return false
		}
		for i := range r1.Arrivals {
			if r1.Arrivals[i].String() != r2.Arrivals[i].String() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Relabeling the nodes permutes the results: on a trace whose contacts
// are renamed by a permutation (and kept in their order), the renamed
// message's arrivals are the original arrivals renamed, step for step,
// and the budget verdict is the same. K is large enough that nothing
// truncates, so arrival order within a step is the only freedom.
func TestRelabelingPermutesArrivals(t *testing.T) {
	// arrivalsByStep returns each arrival step's sorted list of paths
	// (nodes renamed through rename, then steps).
	arrivalsByStep := func(r *Result, rename []int) map[int][]string {
		out := make(map[int][]string)
		for _, p := range r.Arrivals {
			nodes := p.Nodes()
			for i, x := range nodes {
				nodes[i] = trace.NodeID(rename[x])
			}
			out[p.Step] = append(out[p.Step], fmt.Sprint(nodes, p.Steps()))
		}
		for _, ps := range out {
			slices.Sort(ps)
		}
		return out
	}
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(6)
		tr, err := randomTrace(rng, n, 300)
		if err != nil {
			t.Fatal(err)
		}
		perm := rng.Perm(n)
		cs := slices.Clone(tr.Contacts())
		for i := range cs {
			cs[i].A, cs[i].B = trace.NodeID(perm[cs[i].A]), trace.NodeID(perm[cs[i].B])
		}
		relabeled, err := trace.New("relabeled", n, tr.Horizon, cs)
		if err != nil {
			t.Fatal(err)
		}
		src := trace.NodeID(rng.Intn(n))
		dst := trace.NodeID((int(src) + 1 + rng.Intn(n-1)) % n)
		msg := Message{Src: src, Dst: dst, Start: rng.Float64() * 200}
		relMsg := Message{Src: trace.NodeID(perm[src]), Dst: trace.NodeID(perm[dst]), Start: msg.Start}

		opt := Options{K: 1 << 20}
		e, err := NewEnumerator(tr, opt)
		if err != nil {
			t.Fatal(err)
		}
		re, err := NewEnumerator(relabeled, opt)
		if err != nil {
			t.Fatal(err)
		}
		r, err := e.Enumerate(msg)
		if err != nil {
			t.Fatal(err)
		}
		rr, err := re.Enumerate(relMsg)
		if err != nil {
			t.Fatal(err)
		}
		identity := make([]int, n)
		for i := range identity {
			identity[i] = i
		}
		if r.Exhausted != rr.Exhausted || !reflect.DeepEqual(arrivalsByStep(r, perm), arrivalsByStep(rr, identity)) {
			t.Fatalf("seed %d: relabeled %v → %v does not permute the arrivals of %v", seed, perm, relMsg, msg)
		}
	}
}
