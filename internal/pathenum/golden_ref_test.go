package pathenum

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/trace"
	"repro/internal/tracegen"
)

// This file vendors the pre-index enumerator — the implementation that
// shipped before the space-time graph became a CSR/component index and
// the hot loops went allocation-free — and proves the rewrite is a
// pure optimization: for every dataset, seed and option combination,
// the indexed enumerator's Arrivals (nodes, steps, hops, order) and
// Exhausted flags are byte-identical to the reference's.
//
// The reference is kept deliberately naive and close to the original
// source: per-step adjacency lists built with a linear has-edge scan,
// per-message thresholds recomputed by one BFS (with a heap-allocated
// depth map) per component member per step, one heap allocation per
// path extension, and front-reslicing BFS queues.

// refGraph is the pre-index space-time graph: one contact adjacency
// list per step, built in contact order.
type refGraph struct {
	numNodes int
	delta    float64
	steps    int
	adj      [][][]trace.NodeID
}

func refNewGraph(tr *trace.Trace, delta float64) *refGraph {
	steps := int(tr.Horizon / delta)
	if float64(steps)*delta < tr.Horizon {
		steps++
	}
	if steps == 0 {
		steps = 1
	}
	g := &refGraph{numNodes: tr.NumNodes, delta: delta, steps: steps}
	g.adj = make([][][]trace.NodeID, steps)
	for s := 0; s < steps; s++ {
		g.adj[s] = make([][]trace.NodeID, tr.NumNodes)
	}
	for _, c := range tr.Contacts() {
		first := int(c.Start / delta)
		last := int(c.End / delta)
		if c.End > c.Start && float64(last)*delta == c.End {
			last--
		}
		if last >= steps {
			last = steps - 1
		}
		for s := first; s <= last; s++ {
			if g.hasEdge(s, c.A, c.B) {
				continue
			}
			g.adj[s][c.A] = append(g.adj[s][c.A], c.B)
			g.adj[s][c.B] = append(g.adj[s][c.B], c.A)
		}
	}
	return g
}

func (g *refGraph) hasEdge(s int, a, b trace.NodeID) bool {
	for _, n := range g.adj[s][a] {
		if n == b {
			return true
		}
	}
	return false
}

func (g *refGraph) stepOf(t float64) int {
	s := int(t / g.delta)
	if s < 0 {
		return 0
	}
	if s >= g.steps {
		return g.steps - 1
	}
	return s
}

// refEnumerator is the pre-index dynamic program (paper Figure 3). It
// resolves path membership only by walking public parent chains
// (Path.Contains), while the enumerator under test uses its bitset
// rows: the two share no membership machinery, so agreement pins loop
// avoidance and first-preference pruning for every population size.
type refEnumerator struct {
	tr  *trace.Trace
	g   *refGraph
	opt Options

	visited  []int
	epoch    int
	mergeBuf []*Path
}

func newRefEnumerator(tr *trace.Trace, opt Options) *refEnumerator {
	opt = opt.withDefaults()
	return &refEnumerator{
		tr:      tr,
		g:       refNewGraph(tr, opt.Delta),
		opt:     opt,
		visited: make([]int, tr.NumNodes),
	}
}

// refPrune removes table paths containing a node of dn.
func refPrune(paths []*Path, dn []trace.NodeID) []*Path {
	out := paths[:0]
	for _, p := range paths {
		hit := false
		for _, d := range dn {
			if p.Contains(d) {
				hit = true
				break
			}
		}
		if !hit {
			out = append(out, p)
		}
	}
	for i := len(out); i < len(paths); i++ {
		paths[i] = nil
	}
	return out
}

func (e *refEnumerator) enumerate(msg Message) *Result {
	n := e.tr.NumNodes
	res := &Result{Msg: msg, Delta: e.g.delta}
	table := make([][]*Path, n)
	s0 := e.g.stepOf(msg.Start)
	table[msg.Src] = []*Path{newSource(msg.Src, s0)}

	cands := make([][]*Path, n)
	var queue []*Path
	thresh := make([]int, n)

	for s := s0; s < e.g.steps; s++ {
		e.computeThresholds(s, msg.Dst, table, thresh)
		for i := 0; i < n; i++ {
			paths := table[i]
			if len(paths) == 0 || thresh[i] == int(skipAll) {
				continue
			}
			bound := thresh[i]
			for _, p := range paths {
				if p.Hops >= bound {
					break
				}
				queue = e.extendBFS(res, p, s, queue, table, cands, thresh)
				if len(res.Arrivals) >= 4*e.opt.K {
					res.Exhausted = true
					return res
				}
			}
		}
		for i := 0; i < n; i++ {
			if len(cands[i]) > 0 {
				table[i] = e.mergeShortest(table[i], cands[i])
				cands[i] = cands[i][:0]
			}
		}
		if dn := e.g.adj[s][msg.Dst]; len(dn) > 0 {
			alive := false
			for i := 0; i < n; i++ {
				table[i] = refPrune(table[i], dn)
				alive = alive || len(table[i]) > 0
			}
			if !alive {
				return res
			}
		}
		if len(res.Arrivals) >= e.opt.K {
			res.Exhausted = true
			return res
		}
	}
	return res
}

func (e *refEnumerator) computeThresholds(s int, dst trace.NodeID, table [][]*Path, thresh []int) {
	for i := range thresh {
		thresh[i] = int(skipAll)
	}
	var comp, queue []trace.NodeID
	for start := 0; start < len(thresh); start++ {
		if thresh[start] != int(skipAll) || len(e.g.adj[s][start]) == 0 {
			continue
		}
		comp = comp[:0]
		queue = append(queue[:0], trace.NodeID(start))
		thresh[start] = int(skipAll) + 1
		hasDst := false
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			comp = append(comp, cur)
			if cur == dst {
				hasDst = true
			}
			for _, nb := range e.g.adj[s][cur] {
				if thresh[nb] == int(skipAll) {
					thresh[nb] = int(skipAll) + 1
					queue = append(queue, nb)
				}
			}
		}
		if hasDst {
			for _, v := range comp {
				thresh[v] = int(extendAll)
			}
			continue
		}
		for _, src := range comp {
			queue = append(queue[:0], src)
			best := int(skipAll)
			depth := make(map[trace.NodeID]int, len(comp))
			depth[src] = 0
			for len(queue) > 0 {
				cur := queue[0]
				queue = queue[1:]
				d := depth[cur]
				if cur != src {
					capacity := int(extendAll)
					if t := table[cur]; len(t) >= e.opt.K {
						capacity = t[len(t)-1].Hops
					}
					if capacity == int(extendAll) {
						best = int(extendAll)
						break
					}
					if b := capacity - d; b > best {
						best = b
					}
				}
				for _, nb := range e.g.adj[s][cur] {
					if _, ok := depth[nb]; !ok {
						depth[nb] = d + 1
						queue = append(queue, nb)
					}
				}
			}
			thresh[src] = best
		}
	}
}

func (e *refEnumerator) extendBFS(res *Result, p *Path, s int, queue []*Path, table, cands [][]*Path, thresh []int) []*Path {
	e.epoch++
	epoch := e.epoch
	dst := res.Msg.Dst
	e.visited[p.Node] = epoch
	queue = append(queue[:0], p)
	delivered := false
	for len(queue) > 0 {
		q := queue[0]
		queue = queue[1:]
		for _, nb := range e.g.adj[s][q.Node] {
			if nb == dst {
				if !delivered {
					delivered = true
					res.Arrivals = append(res.Arrivals, q.extend(dst, s))
				}
				continue
			}
			if e.visited[nb] == epoch || p.Contains(nb) {
				continue
			}
			e.visited[nb] = epoch
			childHops := q.Hops + 1
			t := table[nb]
			accept := len(t) < e.opt.K || t[len(t)-1].Hops > childHops
			deeper := thresh[nb] == int(extendAll) || thresh[nb] > childHops
			if !accept && !deeper {
				continue
			}
			child := q.extend(nb, s)
			if accept {
				cands[nb] = append(cands[nb], child)
			}
			if deeper {
				queue = append(queue, child)
			}
		}
	}
	return queue[:0]
}

func (e *refEnumerator) mergeShortest(existing, cands []*Path) []*Path {
	width := e.opt.K
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].Hops < cands[j].Hops })
	buf := e.mergeBuf[:0]
	i, j := 0, 0
	for len(buf) < width && (i < len(existing) || j < len(cands)) {
		if j >= len(cands) || (i < len(existing) && existing[i].Hops <= cands[j].Hops) {
			buf = append(buf, existing[i])
			i++
		} else {
			buf = append(buf, cands[j])
			j++
		}
	}
	e.mergeBuf = buf
	existing = append(existing[:0], buf...)
	return existing
}

// goldenCompare enumerates msgs with both implementations and compares
// the flattened results (message, delta, Exhausted, and every arrival
// path with its per-hop steps, in order).
func goldenCompare(t *testing.T, tr *trace.Trace, opt Options, msgs []Message, label string) {
	t.Helper()
	enum, err := NewEnumerator(tr, opt)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	ref := newRefEnumerator(tr, opt)
	for i, msg := range msgs {
		got, err := enum.Enumerate(msg)
		if err != nil {
			t.Fatalf("%s message %d: %v", label, i, err)
		}
		want := ref.enumerate(msg)
		if gk, wk := resultKey(got), resultKey(want); gk != wk {
			t.Fatalf("%s message %d (%d->%d@%g) diverges from pre-index implementation:\n got %q\nwant %q",
				label, i, msg.Src, msg.Dst, msg.Start, gk, wk)
		}
	}
}

// TestGoldenEquivalenceDatasets pins the indexed enumerator to the
// pre-index implementation across all four paper datasets, three
// seeds, and representative Delta/K settings.
func TestGoldenEquivalenceDatasets(t *testing.T) {
	opts := []struct {
		name string
		opt  Options
	}{
		{"default", Options{K: 80}},
		{"delta30", Options{Delta: 30, K: 60}},
		{"narrowTable", Options{K: 8}},
	}
	datasets := tracegen.Datasets[:]
	seeds := []int64{1, 2, 3}
	msgsPerSeed := 2
	if testing.Short() {
		datasets = datasets[:2]
		seeds = seeds[:2]
		msgsPerSeed = 1
	}
	for _, d := range datasets {
		tr := tracegen.MustGenerate(d)
		for _, o := range opts {
			for _, seed := range seeds {
				rng := rand.New(rand.NewSource(seed))
				msgs := sampleMessages(rng, tr, msgsPerSeed)
				goldenCompare(t, tr, o.opt, msgs, d.String()+"/"+o.name)
			}
		}
	}
}

// TestGoldenEquivalenceDevTrace sweeps more seeds and options on the
// small development trace, including budget edge cases (K 1 and 4,
// where the table holds one or four paths per node).
func TestGoldenEquivalenceDevTrace(t *testing.T) {
	opts := []Options{
		{K: 150},
		{K: 40},
		{Delta: 5, K: 60},
		{Delta: 25, K: 60},
		{K: 1},
		{K: 4},
	}
	for _, seed := range []int64{1, 2, 3, 7, 11} {
		tr := tracegen.Dev(seed)
		rng := rand.New(rand.NewSource(seed * 101))
		msgs := sampleMessages(rng, tr, 6)
		for _, o := range opts {
			goldenCompare(t, tr, o, msgs, "dev")
		}
	}
}

// TestGoldenEquivalenceRandomTraces fuzzes the comparison over random
// sparse traces, where component shapes (chains, stars, merged blobs)
// vary more than in the conference generator.
func TestGoldenEquivalenceRandomTraces(t *testing.T) {
	cases := 30
	if testing.Short() {
		cases = 10
	}
	for c := 0; c < cases; c++ {
		rng := rand.New(rand.NewSource(int64(1000 + c)))
		tr, err := randomTrace(rng, 10, 400)
		if err != nil {
			t.Fatal(err)
		}
		msgs := sampleMessages(rng, tr, 4)
		opt := Options{Delta: 5 + float64(rng.Intn(4))*5, K: 20 + rng.Intn(150)}
		goldenCompare(t, tr, opt, msgs, "random")
	}
}
