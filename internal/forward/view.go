// Package forward implements the forwarding algorithms evaluated in
// the paper's §6: Epidemic, FRESH, Greedy, Greedy Total, Greedy
// Online, and Dynamic Programming (MEED).
//
// Algorithms are pure decision rules over a View: the contact
// knowledge a node could hold at a point in simulated time, plus the
// two oracle tables (whole-trace contact totals and MEED distances)
// used by the future-knowledge algorithms. The trace-driven simulator
// in package dtnsim owns and updates the View.
package forward

import (
	"math"

	"repro/internal/engine"
	"repro/internal/trace"
)

// DistMatrix is a dense n×n distance matrix stored row-major in one
// backing slice, so a whole row — the unit the simulator's
// per-destination lookups walk — is contiguous in memory, and so is
// the part of a row right of the diagonal, which the symmetric
// Floyd-Warshall closure in MEEDDistances relaxes. It is immutable
// once built and safe for concurrent readers.
type DistMatrix struct {
	n int
	d []float64
}

// NewDistMatrix returns an n×n matrix of +Inf with a zero diagonal
// (the standard shortest-path initial state).
func NewDistMatrix(n int) *DistMatrix {
	m := &DistMatrix{n: n, d: make([]float64, n*n)}
	for i := range m.d {
		m.d[i] = math.Inf(1)
	}
	for i := 0; i < n; i++ {
		m.d[i*n+i] = 0
	}
	return m
}

// Size returns the matrix dimension.
func (m *DistMatrix) Size() int { return m.n }

// At returns the distance from a to b.
func (m *DistMatrix) At(a, b trace.NodeID) float64 { return m.d[int(a)*m.n+int(b)] }

// Row returns the distances from a to every node. The returned slice
// aliases the matrix; callers must not modify it.
func (m *DistMatrix) Row(a trace.NodeID) []float64 {
	return m.d[int(a)*m.n : (int(a)+1)*m.n]
}

// set writes the distance from a to b (build-time only).
func (m *DistMatrix) set(a, b trace.NodeID, v float64) { m.d[int(a)*m.n+int(b)] = v }

// View is the contact knowledge shared by all nodes at one instant of
// a simulation. The paper's algorithms assume nodes can learn each
// other's contact history on encounter; exposing one global view is
// the standard simplification (information is only ever *used* at
// encounters).
//
// The pairwise tables are flat row-major slices (index a*n+b) rather
// than per-node heap rows: one allocation each, contiguous in memory,
// and cheap to wipe when a pooled simulation resets the view between
// runs.
type View struct {
	numNodes int

	// lastEnc[a*n+b] is the most recent time a and b were in contact,
	// or -Inf if they have not met yet.
	lastEnc []float64
	// encCount[a*n+b] is the number of contacts between a and b so far.
	encCount []int32
	// soFar[a] is a's total number of contacts so far.
	soFar []int32

	// totals[a] is a's total contacts over the whole trace (oracle).
	totals []int
	// meed holds the expected-delay distances under the MEED metric
	// computed over the whole trace (oracle); +Inf if unreachable.
	// When nil, meedFn (if installed) resolves the matrix on first
	// read: the Floyd-Warshall closure is cubic in the population, so
	// the simulator defers it until an algorithm actually compares
	// oracle distances — most never do.
	meed   *DistMatrix
	meedFn func() *DistMatrix
}

// NewView allocates a View for n nodes with empty history and no
// oracle tables (install them with InstallOracleLazy).
func NewView(n int) *View {
	v := &View{
		numNodes: n,
		lastEnc:  make([]float64, n*n),
		encCount: make([]int32, n*n),
		soFar:    make([]int32, n),
	}
	for i := range v.lastEnc {
		v.lastEnc[i] = math.Inf(-1)
	}
	return v
}

// Reset wipes the observed contact history, returning the view to its
// freshly-constructed state. Installed oracle tables are kept: they
// are pure functions of the trace, so a pooled simulation reusing the
// view across runs of one trace keeps them in place.
func (v *View) Reset() {
	for i := range v.lastEnc {
		v.lastEnc[i] = math.Inf(-1)
	}
	clear(v.encCount)
	clear(v.soFar)
}

// NumNodes returns the population size.
func (v *View) NumNodes() int { return v.numNodes }

// Observe records a contact between a and b at time now. The
// simulator calls this at every contact start, before forwarding
// decisions for that contact are made.
func (v *View) Observe(a, b trace.NodeID, now float64) {
	ab := int(a)*v.numNodes + int(b)
	ba := int(b)*v.numNodes + int(a)
	v.lastEnc[ab] = now
	v.lastEnc[ba] = now
	v.encCount[ab]++
	v.encCount[ba]++
	v.soFar[a]++
	v.soFar[b]++
}

// LastEncounter returns the most recent contact time between a and b,
// or -Inf if they have not met.
func (v *View) LastEncounter(a, b trace.NodeID) float64 {
	return v.lastEnc[int(a)*v.numNodes+int(b)]
}

// EncounterCount returns the number of contacts between a and b so far.
func (v *View) EncounterCount(a, b trace.NodeID) int {
	return int(v.encCount[int(a)*v.numNodes+int(b)])
}

// ContactsSoFar returns a's total number of contacts so far.
func (v *View) ContactsSoFar(a trace.NodeID) int { return int(v.soFar[a]) }

// TotalContacts returns a's whole-trace contact total (oracle); zero
// before InstallOracleLazy.
func (v *View) TotalContacts(a trace.NodeID) int {
	if v.totals == nil {
		return 0
	}
	return v.totals[a]
}

// MEEDDistance returns the oracle expected-delay distance from a to b,
// or +Inf when unreachable or before InstallOracleLazy. The first call
// after InstallOracleLazy resolves the distance matrix.
func (v *View) MEEDDistance(a, b trace.NodeID) float64 {
	if v.meed == nil {
		if v.meedFn == nil {
			return math.Inf(1)
		}
		v.meed = v.meedFn()
	}
	return v.meed.At(a, b)
}

// InstallOracleLazy installs the contact-total table eagerly and a
// resolver for the MEED matrix, called at most once per view on the
// first MEEDDistance read. The resolver must be safe for concurrent
// callers (parallel shards each hold their own view but share the
// underlying oracle; dtnsim guards the computation with a sync.Once),
// and must always return the same immutable matrix.
func (v *View) InstallOracleLazy(totals []int, meed func() *DistMatrix) {
	v.totals = totals
	v.meed = nil
	v.meedFn = meed
}

// MEEDDistances computes the Minimum Estimated Expected Delay metric
// of Jones et al. over a whole trace: the expected waiting time for
// the next i-j contact from a uniformly random instant is estimated as
// horizon/(n_ij+1) for a pair with n_ij contacts (the mean gap between
// renewals of a Poisson-like process), and all-pairs expected-delay
// distances follow by Floyd-Warshall. Pairs that never meet have
// infinite direct delay.
//
// The direct delays are symmetric, so the closure relaxes only the
// upper triangle and mirrors it at the end, and each pivot splits its
// rows across engine.Workers(0) goroutines once the population
// reaches meedParallelNodes. Every entry still sees the same
// candidate sums in the same pivot order as a full-matrix closure, so
// the result is bit-identical to it for any worker count.
func MEEDDistances(tr *trace.Trace) *DistMatrix {
	workers := 1
	if tr.NumNodes >= meedParallelNodes {
		workers = engine.Workers(0)
	}
	return meedDistances(tr, workers)
}

// meedParallelNodes is the population from which MEEDDistances splits
// each pivot's rows across workers. Below it, handing the rows out
// costs more than the second core saves: on a 2-core machine two
// workers were slower than one at 98 to 250 nodes (by up to 1.6×),
// broke even at 300 and won from 350 (1.4× at 600, 2× at 2,000).
const meedParallelNodes = 300

// meedDistances is MEEDDistances on a given number of workers.
func meedDistances(tr *trace.Trace, workers int) *DistMatrix {
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
	closeSymmetric(dist.d, n, workers)
	return dist
}

// closeSymmetric runs the Floyd-Warshall closure in place on d, a
// symmetric row-major n×n matrix with a zero diagonal.
//
// Pivot k leaves row k and column k unchanged (d[k][k] is 0), and
// float addition commutes, so the matrix stays symmetric after every
// pivot and entry (i, j), i < j, reads the same d[i][k] + d[k][j] as a
// full closure would. Only the upper triangle is relaxed: row k is
// first assembled from column k above the diagonal and row k on and
// after it, then every other row i relaxes its entries j > i against
// it. Rows of one pivot are independent, so with several workers each
// pivot hands out row chunks of equal work; the triangle's rows
// shrink, so the chunks hold more rows towards the bottom.
func closeSymmetric(d []float64, n, workers int) {
	rowK := make([]float64, n)
	var k int
	relax := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			dik := rowK[i]
			if i == k || math.IsInf(dik, 1) {
				continue
			}
			row := d[i*n+i+1 : (i+1)*n]
			rk := rowK[i+1:]
			rk = rk[:len(row)]
			for j, dkj := range rk {
				if v := dik + dkj; v < row[j] {
					row[j] = v
				}
			}
		}
	}
	bounds := equalWorkRows(n, meedChunksPerWorker*workers)
	chunk := func(_, c int) { relax(bounds[c], bounds[c+1]) }
	for k = 0; k < n; k++ {
		for j := 0; j < k; j++ {
			rowK[j] = d[j*n+k]
		}
		copy(rowK[k:], d[k*n+k:(k+1)*n])
		engine.MapWorkers(workers, len(bounds)-1, chunk)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d[j*n+i] = d[i*n+j]
		}
	}
}

// meedChunksPerWorker is how many row chunks each worker gets per
// pivot on average: more than one, so the engine's dynamic hand-out
// evens out rows skipped for +Inf and a core busy with other work.
const meedChunksPerWorker = 4

// equalWorkRows splits rows [0, n) of an upper triangle (row i holds
// n-1-i entries) into at most chunks contiguous ranges of about equal
// entry counts. It returns the range bounds, starting at 0 and ending
// at n.
func equalWorkRows(n, chunks int) []int {
	bounds := []int{0}
	total := n * (n - 1) / 2
	done := 0
	for i := 0; i < n; i++ {
		done += n - 1 - i
		if len(bounds) < chunks && done*chunks >= total*len(bounds) && i+1 < n {
			bounds = append(bounds, i+1)
		}
	}
	return append(bounds, n)
}
