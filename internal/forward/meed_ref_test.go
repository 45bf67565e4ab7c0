package forward

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/trace"
	"repro/internal/tracegen"
)

// meedReference is the full-matrix, serial Floyd-Warshall closure that
// MEEDDistances ran before the triangular, row-parallel one, kept
// verbatim as the reference the bit-identity tests compare against.
func meedReference(tr *trace.Trace) *DistMatrix {
	n := tr.NumNodes
	dist := NewDistMatrix(n)
	counts := make([]int32, n*n)
	for _, c := range tr.Contacts() {
		counts[int(c.A)*n+int(c.B)]++
		counts[int(c.B)*n+int(c.A)]++
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && counts[i*n+j] > 0 {
				dist.set(trace.NodeID(i), trace.NodeID(j), tr.Horizon/float64(counts[i*n+j]+1))
			}
		}
	}
	d := dist.d
	for k := 0; k < n; k++ {
		rowK := d[k*n : (k+1)*n : (k+1)*n]
		for i := 0; i < n; i++ {
			dik := d[i*n+k]
			if math.IsInf(dik, 1) {
				continue
			}
			rowI := d[i*n : (i+1)*n : (i+1)*n]
			for j, dkj := range rowK {
				if v := dik + dkj; v < rowI[j] {
					rowI[j] = v
				}
			}
		}
	}
	return dist
}

// TestMEEDClosureMatchesFullClosure pins MEEDDistances, and its
// closure at 1, 2, 3 and 8 workers, to meedReference bit for bit.
// Dynamic Programming compares oracle distances with <, so a change
// in the last bit of one entry can change a forwarding decision.
func TestMEEDClosureMatchesFullClosure(t *testing.T) {
	type meedCase struct {
		name string
		tr   *trace.Trace
	}
	var cases []meedCase
	for _, d := range tracegen.Datasets {
		cases = append(cases, meedCase{d.String(), tracegen.MustGenerate(d)})
	}
	rng := rand.New(rand.NewSource(1))
	allOneGroup := func(int) int { return 0 }
	cases = append(cases,
		meedCase{"dev", tracegen.Dev(1)},
		meedCase{"one node", trace.MustNew("one", 1, 100, nil)},
		meedCase{"two nodes", trace.MustNew("two", 2, 100, []trace.Contact{{A: 0, B: 1, Start: 1, End: 2}})},
		meedCase{"three nodes", trace.MustNew("three", 3, 100, []trace.Contact{
			{A: 0, B: 1, Start: 1, End: 2}, {A: 1, B: 2, Start: 3, End: 4}, {A: 0, B: 1, Start: 5, End: 6},
		})},
		// Every ninth node never meets anyone, so its rows stay +Inf
		// and the closure skips them as pivots and as rows.
		meedCase{"isolated nodes", meedTestTrace(rng, 60, 400, false, func(a int) int {
			if a%9 == 4 {
				return -1
			}
			return 0
		})},
		meedCase{"two components", meedTestTrace(rng, 61, 400, false, func(a int) int { return a % 2 })},
		// Each pair meets at most once: every direct delay is
		// horizon/2, so candidate sums tie with the entries they
		// challenge and < must keep the earlier value.
		meedCase{"tie-heavy counts", meedTestTrace(rng, 40, 300, true, allOneGroup)},
	)
	// Populations either side of the serial/parallel switch. Only
	// every seventh node meets anyone, which keeps the cubic reference
	// cheap under the race detector while the relaxed rows still span
	// every chunk.
	sparse := func(a int) int {
		if a%7 != 0 {
			return -1
		}
		return 0
	}
	for _, n := range []int{meedParallelNodes - 1, meedParallelNodes} {
		cases = append(cases, meedCase{fmt.Sprintf("%d nodes", n), meedTestTrace(rng, n, 8*n, false, sparse)})
	}
	if !testing.Short() {
		cases = append(cases, meedCase{"city-1000", tracegen.MustCity(1000, 1)})
	}
	for _, c := range cases {
		want := meedReference(c.tr)
		check := func(label string, got *DistMatrix) {
			t.Helper()
			if got.Size() != want.Size() {
				t.Fatalf("%s, %s: size %d, want %d", c.name, label, got.Size(), want.Size())
			}
			for i := range want.d {
				if math.Float64bits(got.d[i]) != math.Float64bits(want.d[i]) {
					n := want.Size()
					t.Fatalf("%s, %s: d(%d,%d) = %v (%#x), want %v (%#x)", c.name, label, i/n, i%n,
						got.d[i], math.Float64bits(got.d[i]), want.d[i], math.Float64bits(want.d[i]))
				}
			}
		}
		check("MEEDDistances", MEEDDistances(c.tr))
		for _, w := range []int{1, 2, 3, 8} {
			check(fmt.Sprintf("%d workers", w), meedDistances(c.tr, w))
		}
	}
}

// meedTestTrace draws m contacts over a 3-hour horizon between random
// pairs of n nodes that share a group; nodes in group -1 meet nobody.
// With once set, no pair meets twice.
func meedTestTrace(rng *rand.Rand, n, m int, once bool, group func(int) int) *trace.Trace {
	const horizon = 3 * 3600.0
	met := make(map[[2]int]bool)
	var cs []trace.Contact
	for len(cs) < m {
		a, b := rng.Intn(n), rng.Intn(n)
		if a == b || group(a) < 0 || group(a) != group(b) {
			continue
		}
		pair := [2]int{min(a, b), max(a, b)}
		if once && met[pair] {
			if len(met) == n*(n-1)/2 {
				break
			}
			continue
		}
		met[pair] = true
		start := rng.Float64() * (horizon - 60)
		cs = append(cs, trace.Contact{A: trace.NodeID(a), B: trace.NodeID(b), Start: start, End: start + 1 + rng.Float64()*59})
	}
	return trace.MustNew(fmt.Sprintf("meed-%d", n), n, horizon, cs)
}
