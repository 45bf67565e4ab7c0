package stgraph

// This file vendors the pre-sweep builder (the per-step bucketing
// implementation the event-sweep New replaced) and pins the sweep
// builder against it: for every dataset, delta and random trace in
// the suite, the two builds must agree on every public query — step
// layout, frame identity and sharing, neighbor rows (including
// order, the determinism contract enumeration depends on), contact
// tests, active nodes, components, member lists and order, and every
// pairwise hop distance. Do not "fix" or modernize the reference: its
// output is the contract.

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/trace"
	"repro/internal/tracegen"
)

// --- vendored pre-sweep reference implementation ---

type refGraph struct {
	NumNodes int
	Delta    float64
	Steps    int

	frames    []*refFrame
	stepFrame []int32
}

type refFrame struct {
	offsets []int32
	nbrs    []trace.NodeID
	sorted  []trace.NodeID

	active []trace.NodeID

	compID    []int32
	memberIdx []int32
	comps     []refComponent
}

type refComponent struct {
	members []trace.NodeID
	dist    []int32
}

func (f *refFrame) row(x trace.NodeID) []trace.NodeID {
	return f.nbrs[f.offsets[x]:f.offsets[x+1]]
}

func (f *refFrame) sortedRow(x trace.NodeID) []trace.NodeID {
	return f.sorted[f.offsets[x]:f.offsets[x+1]]
}

type refPairRec struct {
	key uint64
	seq int32
}

func refNew(tr *trace.Trace, delta float64) *refGraph {
	steps := int(math.Ceil(tr.Horizon / delta))
	if steps == 0 {
		steps = 1
	}
	g := &refGraph{
		NumNodes:  tr.NumNodes,
		Delta:     delta,
		Steps:     steps,
		stepFrame: make([]int32, steps),
	}

	perStep := make([][]refPairRec, steps)
	for _, c := range tr.Contacts() {
		first := int(c.Start / delta)
		last := int(c.End / delta)
		if c.End > c.Start && float64(last)*delta == c.End {
			last--
		}
		if last >= steps {
			last = steps - 1
		}
		lo, hi := c.A, c.B
		if lo > hi {
			lo, hi = hi, lo
		}
		key := uint64(lo)<<32 | uint64(uint32(hi))
		for s := first; s <= last; s++ {
			perStep[s] = append(perStep[s], refPairRec{key: key, seq: int32(len(perStep[s]))})
		}
	}

	b := newRefFrameBuilder(tr.NumNodes)
	emptyFrame := int32(-1)
	var prev []refPairRec
	for s := 0; s < steps; s++ {
		pairs := refDedupPairs(perStep[s])
		if len(pairs) == 0 {
			if emptyFrame < 0 {
				emptyFrame = int32(len(g.frames))
				g.frames = append(g.frames, b.build(nil))
			}
			g.stepFrame[s] = emptyFrame
			prev = pairs
			continue
		}
		if s > 0 && refSamePairs(pairs, prev) {
			g.stepFrame[s] = g.stepFrame[s-1]
		} else {
			g.stepFrame[s] = int32(len(g.frames))
			g.frames = append(g.frames, b.build(pairs))
		}
		prev = pairs
	}
	return g
}

func refDedupPairs(pairs []refPairRec) []refPairRec {
	if len(pairs) < 2 {
		return pairs
	}
	slices.SortStableFunc(pairs, func(a, b refPairRec) int {
		switch {
		case a.key < b.key:
			return -1
		case a.key > b.key:
			return 1
		}
		return 0
	})
	out := pairs[:1]
	for _, p := range pairs[1:] {
		if p.key != out[len(out)-1].key {
			out = append(out, p)
		}
	}
	slices.SortFunc(out, func(a, b refPairRec) int { return int(a.seq) - int(b.seq) })
	return out
}

func refSamePairs(a, b []refPairRec) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].key != b[i].key {
			return false
		}
	}
	return true
}

type refFrameBuilder struct {
	n      int
	degree []int32
	cursor []int32
	queue  []trace.NodeID
}

func newRefFrameBuilder(n int) *refFrameBuilder {
	return &refFrameBuilder{
		n:      n,
		degree: make([]int32, n),
		cursor: make([]int32, n),
	}
}

func refUnpack(key uint64) (trace.NodeID, trace.NodeID) {
	return trace.NodeID(key >> 32), trace.NodeID(uint32(key))
}

func (b *refFrameBuilder) build(pairs []refPairRec) *refFrame {
	n := b.n
	f := &refFrame{
		offsets:   make([]int32, n+1),
		compID:    make([]int32, n),
		memberIdx: make([]int32, n),
	}
	deg := b.degree
	for i := range deg {
		deg[i] = 0
	}
	for _, p := range pairs {
		a, c := refUnpack(p.key)
		deg[a]++
		deg[c]++
	}
	total := int32(0)
	for x := 0; x < n; x++ {
		f.offsets[x] = total
		b.cursor[x] = total
		total += deg[x]
	}
	f.offsets[n] = total
	f.nbrs = make([]trace.NodeID, total)
	for _, p := range pairs {
		a, c := refUnpack(p.key)
		f.nbrs[b.cursor[a]] = c
		b.cursor[a]++
		f.nbrs[b.cursor[c]] = a
		b.cursor[c]++
	}
	f.sorted = make([]trace.NodeID, total)
	copy(f.sorted, f.nbrs)
	for x := 0; x < n; x++ {
		if deg[x] > 0 {
			f.active = append(f.active, trace.NodeID(x))
			slices.Sort(f.sortedRow(trace.NodeID(x)))
		}
		f.compID[x] = -1
	}
	b.buildComponents(f)
	return f
}

func (b *refFrameBuilder) buildComponents(f *refFrame) {
	for _, start := range f.active {
		if f.compID[start] >= 0 {
			continue
		}
		id := int32(len(f.comps))
		var members []trace.NodeID
		queue := append(b.queue[:0], start)
		f.compID[start] = id
		for head := 0; head < len(queue); head++ {
			cur := queue[head]
			f.memberIdx[cur] = int32(len(members))
			members = append(members, cur)
			for _, nb := range f.row(cur) {
				if f.compID[nb] < 0 {
					f.compID[nb] = id
					queue = append(queue, nb)
				}
			}
		}
		b.queue = queue[:0]

		m := len(members)
		dist := make([]int32, m*m)
		for i := range dist {
			dist[i] = -1
		}
		for j, src := range members {
			row := dist[j*m : (j+1)*m]
			row[j] = 0
			queue = append(b.queue[:0], src)
			for head := 0; head < len(queue); head++ {
				cur := queue[head]
				d := row[f.memberIdx[cur]]
				for _, nb := range f.row(cur) {
					if row[f.memberIdx[nb]] < 0 {
						row[f.memberIdx[nb]] = d + 1
						queue = append(queue, nb)
					}
				}
			}
			b.queue = queue[:0]
		}
		f.comps = append(f.comps, refComponent{members: members, dist: dist})
	}
}

// --- comparison harness ---

// assertGraphsEqual compares every public query of the sweep-built
// graph against the reference build.
func assertGraphsEqual(t *testing.T, label string, tr *trace.Trace, delta float64) {
	t.Helper()
	got, err := New(tr, delta, nil)
	if err != nil {
		t.Fatalf("%s: New: %v", label, err)
	}
	want := refNew(tr, delta)

	if got.Steps != want.Steps || got.NumNodes != want.NumNodes || got.Delta != want.Delta {
		t.Fatalf("%s: shape %d/%d/%g, want %d/%d/%g",
			label, got.Steps, got.NumNodes, got.Delta, want.Steps, want.NumNodes, want.Delta)
	}
	if got.NumFrames() != len(want.frames) {
		t.Fatalf("%s: NumFrames = %d, want %d", label, got.NumFrames(), len(want.frames))
	}
	for s := 0; s < got.Steps; s++ {
		if int32(got.FrameOf(s)) != want.stepFrame[s] {
			t.Fatalf("%s: FrameOf(%d) = %d, want %d", label, s, got.FrameOf(s), want.stepFrame[s])
		}
	}
	n := tr.NumNodes
	for s := 0; s < got.Steps; s++ {
		// Each distinct frame only needs one deep check.
		if s > 0 && got.FrameOf(s) == got.FrameOf(s-1) {
			continue
		}
		wf := want.frames[want.stepFrame[s]]

		if !slices.Equal(got.ActiveNodes(s), wf.active) {
			t.Fatalf("%s: step %d ActiveNodes = %v, want %v", label, s, got.ActiveNodes(s), wf.active)
		}
		wantEdges := len(wf.nbrs) / 2
		if got.EdgeCount(s) != wantEdges {
			t.Fatalf("%s: step %d EdgeCount = %d, want %d", label, s, got.EdgeCount(s), wantEdges)
		}
		for x := 0; x < n; x++ {
			if !slices.Equal(got.Neighbors(s, trace.NodeID(x)), wf.row(trace.NodeID(x))) {
				t.Fatalf("%s: step %d Neighbors(%d) = %v, want %v",
					label, s, x, got.Neighbors(s, trace.NodeID(x)), wf.row(trace.NodeID(x)))
			}
		}
		for _, x := range wf.active {
			for y := 0; y < n; y++ {
				_, wantIn := slices.BinarySearch(wf.sortedRow(x), trace.NodeID(y))
				if got.InContact(s, x, trace.NodeID(y)) != wantIn {
					t.Fatalf("%s: step %d InContact(%d,%d) = %v, want %v",
						label, s, x, y, !wantIn, wantIn)
				}
			}
		}

		v := got.View(s)
		if v.NumComponents() != len(wf.comps) {
			t.Fatalf("%s: step %d NumComponents = %d, want %d",
				label, s, v.NumComponents(), len(wf.comps))
		}
		for x := 0; x < n; x++ {
			if int32(v.ComponentOf(trace.NodeID(x))) != wf.compID[x] {
				t.Fatalf("%s: step %d ComponentOf(%d) = %d, want %d",
					label, s, x, v.ComponentOf(trace.NodeID(x)), wf.compID[x])
			}
		}
		for c := range wf.comps {
			wc := &wf.comps[c]
			if !slices.Equal(v.Members(c), wc.members) {
				t.Fatalf("%s: step %d Members(%d) = %v, want %v",
					label, s, c, v.Members(c), wc.members)
			}
			m := len(wc.members)
			for _, x := range wc.members {
				if v.MemberIndex(x) != int(wf.memberIdx[x]) {
					t.Fatalf("%s: step %d MemberIndex(%d) = %d, want %d",
						label, s, x, v.MemberIndex(x), wf.memberIdx[x])
				}
			}
			for i := 0; i < m; i++ {
				for j := 0; j < m; j++ {
					if got, want := v.Dist(c, i, j), int(wc.dist[i*m+j]); got != want {
						t.Fatalf("%s: step %d Dist(%d,%d,%d) = %d, want %d",
							label, s, c, i, j, got, want)
					}
				}
			}
		}
	}
}

// --- golden suites ---

// TestGoldenDatasets pins the sweep builder to the reference over all
// four paper datasets at several discretization steps (including a
// delta far larger than the typical contact duration and one larger
// than the horizon).
func TestGoldenDatasets(t *testing.T) {
	deltas := []float64{10}
	if !testing.Short() {
		deltas = []float64{2.5, 10, 60, 7200, 2 * tracegen.ConferenceHorizon}
	}
	for _, d := range tracegen.Datasets {
		tr := tracegen.MustGenerate(d)
		for _, delta := range deltas {
			assertGraphsEqual(t, tr.Name, tr, delta)
		}
	}
}

// TestGoldenDevTrace covers the small development trace across seeds.
func TestGoldenDevTrace(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		tr := tracegen.Dev(seed)
		for _, delta := range []float64{3, 10, 45} {
			assertGraphsEqual(t, tr.Name, tr, delta)
		}
	}
}

// TestGoldenRandomTraces sweeps dense random traces whose contacts
// overlap heavily (duplicate pairs within a step, same-pair records
// overlapping in step space, zero-duration contacts, boundary-aligned
// ends), the regimes where the sweep's incremental bookkeeping has to
// reproduce the reference's per-step dedup exactly.
func TestGoldenRandomTraces(t *testing.T) {
	trials := 40
	if testing.Short() {
		trials = 8
	}
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		n := 3 + rng.Intn(14)
		horizon := 40 + rng.Float64()*200
		delta := []float64{5, 10, 17.3}[trial%3]
		var cs []trace.Contact
		for i := 0; i < 10+rng.Intn(120); i++ {
			a := trace.NodeID(rng.Intn(n))
			b := trace.NodeID(rng.Intn(n - 1))
			if b >= a {
				b++
			}
			start := rng.Float64() * horizon
			var end float64
			switch rng.Intn(4) {
			case 0: // zero duration
				end = start
			case 1: // end aligned to a step boundary
				end = float64(int(start/delta)+1+rng.Intn(3)) * delta
			default:
				end = start + rng.Float64()*horizon/4
			}
			if end > horizon {
				end = horizon
			}
			cs = append(cs, trace.Contact{A: a, B: b, Start: start, End: end})
		}
		tr, err := trace.New("rand", n, horizon, cs)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		assertGraphsEqual(t, tr.Name, tr, delta)
	}
}

// TestGoldenWorkerCounts pins the parallel frame construction: every
// worker count must produce a graph identical to the serial build
// (compared via the reference, which is serial by construction).
func TestGoldenWorkerCounts(t *testing.T) {
	tr := tracegen.Dev(3)
	want := refNew(tr, 10)
	for _, workers := range []int{1, 2, 3, 8} {
		g, err := build(tr, 10, workers, nil)
		if err != nil {
			t.Fatal(err)
		}
		for s := 0; s < g.Steps; s++ {
			if int32(g.FrameOf(s)) != want.stepFrame[s] {
				t.Fatalf("workers=%d: FrameOf(%d) = %d, want %d",
					workers, s, g.FrameOf(s), want.stepFrame[s])
			}
			wf := want.frames[want.stepFrame[s]]
			for x := 0; x < tr.NumNodes; x++ {
				if !slices.Equal(g.Neighbors(s, trace.NodeID(x)), wf.row(trace.NodeID(x))) {
					t.Fatalf("workers=%d: step %d Neighbors(%d) differ", workers, s, x)
				}
			}
			v := g.View(s)
			for c := range wf.comps {
				wc := &wf.comps[c]
				m := len(wc.members)
				if !slices.Equal(v.Members(c), wc.members) {
					t.Fatalf("workers=%d: step %d Members(%d) differ", workers, s, c)
				}
				for i := 0; i < m; i++ {
					for j := 0; j < m; j++ {
						if v.Dist(c, i, j) != int(wc.dist[i*m+j]) {
							t.Fatalf("workers=%d: step %d Dist(%d,%d,%d) differs", workers, s, c, i, j)
						}
					}
				}
			}
		}
	}
}
