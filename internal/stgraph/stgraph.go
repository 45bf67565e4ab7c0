// Package stgraph builds the paper's space-time graph (§4.1, based on
// Merugu/Ammar/Zegura): time is discretized in steps of Δ; the vertex
// set is (node, step); an edge of weight zero connects (x, T) to (y, T)
// iff x and y were in contact at any time during [T−Δ, T); an edge of
// unit weight connects (x, T) to (x, T+Δ).
//
// The graph is an immutable index. Each step is backed by a frame: a
// CSR adjacency (flat offset + neighbor arrays) plus, precomputed once,
// the step's contact components — component IDs, member lists, and
// intra-component all-pairs hop distances. Contacts span many Δ-wide
// steps, so most steps repeat the previous step's contact pattern;
// identical consecutive steps share one frame, so the component and
// distance indexes are computed once per distinct pattern rather than
// once per step (let alone once per enumerated message, as the
// pre-index enumerator did).
//
// New is an event sweep: contact start/end boundaries are bucketed by
// step once, the active pair set is maintained incrementally across
// steps, and a frame is emitted only at steps where the contact
// pattern actually changes — O(contacts·log contacts) sweep work plus
// per-distinct-frame construction, instead of re-inserting every
// contact into every step it spans and sort-deduplicating each step
// from scratch. All frame storage (offsets, neighbor rows, component
// labels, member lists, distance matrices) lives in a handful of
// per-graph slabs sized by a pre-pass, so a build performs O(1)
// allocations per frame rather than O(components); the expensive
// per-frame work (CSR fill, component labeling, per-member BFS
// distances) is parallelized across distinct frames through
// internal/engine, each frame writing only its own slab regions so
// the result is byte-identical for every worker count.
//
// Neighbor order is part of the determinism contract: Neighbors lists
// a node's contacts in first-contact-record order (contacts are sorted
// by start time), exactly reproducing the adjacency built by the
// pre-sweep implementation, so path enumeration visits nodes — and
// therefore selects representative paths — byte-identically. The
// golden suite in golden_ref_test.go pins every query against a
// vendored copy of the pre-sweep builder.
//
// Discretization loses the ordering of contacts within a step: a
// message may traverse two contacts of the same step even when the
// second physically ended before the first began. Each in-step relay
// chain can therefore be optimistic by up to Δ relative to continuous
// time, and the error compounds over consecutive steps — the paper
// accepts this O(Δ) artifact ("we can always identify this time
// accurately to within an error of Δ").
package stgraph

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/trace"
)

// DefaultDelta is the paper's discretization step (10 seconds).
const DefaultDelta = 10.0

// Graph is an indexed space-time graph over a trace.
type Graph struct {
	NumNodes int
	Delta    float64
	Steps    int // number of discrete steps; step s covers [s·Δ, (s+1)·Δ)

	frames    []frame
	stepFrame []int32 // step -> index into frames
}

// frame is the shared per-step index: one frame backs every maximal
// run of consecutive steps with an identical contact pattern. All
// slices alias per-graph slabs or per-worker arena chunks. Component
// records are flat int32 tables rather than per-component structs, so
// a built graph holds almost no GC-scannable pointers beyond the slab
// headers themselves.
type frame struct {
	// CSR adjacency. Row x is nbrs[offsets[x]:offsets[x+1]], in
	// first-contact order (the canonical enumeration order).
	offsets []int32
	nbrs    []trace.NodeID

	active []trace.NodeID // nodes with at least one contact, ascending

	// Contact components. compID[x] holds x's component id plus one
	// (so the slab's zero value means "no contacts" without a
	// per-frame fill). members lists every contacted node in BFS
	// discovery order, grouped by component: component c's members
	// are members[compBounds[c]:compBounds[c+1]].
	compID     []int32
	members    []trace.NodeID
	compBounds []int32

	// prevSame[c] reports that component c is identical — same member
	// list, same adjacency rows, hence same distances — to a component
	// of the frame backing the preceding step. Consumers use it to
	// skip per-step work that cannot have changed across the boundary.
	prevSame []bool

	// distRef[c] locates component c's all-pairs hop-distance matrix
	// (row-major over member indices; components are connected, so
	// every entry is finite): a non-negative value is an offset into
	// dist, a negative value selects one of the shared static
	// matrices in staticDist (two-member components and the four
	// three-member shapes are identical everywhere).
	distRef []int32
	dist    []int32
}

func (f *frame) row(x trace.NodeID) []trace.NodeID {
	return f.nbrs[f.offsets[x]:f.offsets[x+1]]
}

// New discretizes a trace with step delta and builds the step index.
// Following the paper, step index T covers the half-open interval
// [T·Δ, (T+1)·Δ): a contact active at any point in that interval
// produces a zero-weight edge at that step.
func New(tr *trace.Trace, delta float64) (*Graph, error) {
	return NewWorkersCancel(tr, delta, 0, nil, nil)
}

// NewWorkersCancel is New with an explicit worker count for the
// per-frame construction fan-out (0 = GOMAXPROCS, 1 = serial), stage
// spans recorded into ot and a cooperative cancellation token. The
// built graph is byte-identical for every worker count. The event
// sweep (boundary bucketing plus frame-spec emission) and the frame
// fill (CSR rows, components, distance tables, stable-component marks)
// are timed separately, so a serving layer can tell which half of a
// cold build dominates. cc is polled at amortized checkpoints of both
// build halves; once it fires the build abandons with a
// *engine.CanceledError and no graph. A nil ot costs one pointer
// check, a nil cc is inert, and a token that never fires leaves the
// built graph byte-identical.
func NewWorkersCancel(tr *trace.Trace, delta float64, workers int, ot *obs.Trace, cc *engine.Cancel) (*Graph, error) {
	if delta <= 0 {
		return nil, fmt.Errorf("stgraph: delta %g must be positive", delta)
	}
	// Steps index int32 tables (stepFrame, pnode.step), and the build
	// allocates per step, so a tiny delta must fail here rather than
	// overflow make or exhaust memory.
	fsteps := math.Ceil(tr.Horizon / delta)
	if math.IsNaN(fsteps) || fsteps > math.MaxInt32 {
		return nil, fmt.Errorf("stgraph: delta %g gives %g steps over horizon %g, above the limit of %d", delta, fsteps, tr.Horizon, math.MaxInt32)
	}
	steps := int(fsteps)
	if steps == 0 {
		steps = 1
	}
	g := &Graph{
		NumNodes:  tr.NumNodes,
		Delta:     delta,
		Steps:     steps,
		stepFrame: make([]int32, steps),
	}
	sp := ot.Start(obs.StageGraphSweep)
	sw := newSweep(tr, delta, steps)
	canceled := sw.run(g, cc)
	sp.End()
	if canceled {
		return nil, cc.FiredErr()
	}
	sp = ot.Start(obs.StageGraphFrames)
	if buildFrames(g, sw, tr.NumNodes, workers, cc) {
		sp.End()
		return nil, cc.FiredErr()
	}
	markStableComponents(g, sw.framePrev)
	sp.End()
	return g, nil
}

// markStableComponents fills each frame's prevSame marks by comparing
// its components against the frame backing the preceding step:
// identical member list and identical adjacency rows per member mean
// the component — including its distance matrix, a pure function of
// the adjacency — carried over unchanged. One sequential O(V+E) pass
// over the emitted frames; rows and member lists are canonical
// (first-contact order, BFS discovery order), so list equality is
// subgraph equality.
func markStableComponents(g *Graph, framePrev []int32) {
	total := 0
	for i := range g.frames {
		total += len(g.frames[i].distRef)
	}
	slab := make([]bool, total)
	off := 0
	for i := range g.frames {
		f := &g.frames[i]
		nc := len(f.distRef)
		f.prevSame = slab[off : off+nc]
		off += nc
		pf := framePrev[i]
		if pf < 0 {
			continue
		}
		prev := &g.frames[pf]
		for c := 0; c < nc; c++ {
			members := f.members[f.compBounds[c]:f.compBounds[c+1]]
			c2 := int(prev.compID[members[0]]) - 1
			if c2 < 0 {
				continue
			}
			pm := prev.members[prev.compBounds[c2]:prev.compBounds[c2+1]]
			if !slices.Equal(members, pm) {
				continue
			}
			same := true
			for _, m := range members {
				if !slices.Equal(f.row(m), prev.row(m)) {
					same = false
					break
				}
			}
			f.prevSame[c] = same
		}
	}
}

// sweep holds the event-sweep state of one build: per-contact step
// spans bucketed into start/end events, and the incrementally
// maintained active pair set.
type sweep struct {
	steps int

	// Start/end events in CSR layout: startEvents[startIdx[s]:
	// startIdx[s+1]] are the contacts whose span begins at step s, in
	// trace order; endEvents likewise for spans ending before step s.
	startIdx, endIdx []int32
	startEvents      []int32
	endEvents        []int32

	// slotOf maps each contact to its pair slot (one slot per distinct
	// unordered node pair appearing in the trace).
	slotOf   []int32
	slotKeys []uint64 // slot -> packed pair key

	// Active-record bookkeeping. A pair slot is active when at least
	// one of its contact records spans the current step; its rank —
	// the position the pair takes in the step's canonical order — is
	// the smallest trace index among its active records (the earliest
	// contact record covering the step). Records of one slot form a
	// doubly linked list through nextRec/prevRec, inserted in
	// ascending trace order, so slotMin is the list head.
	slotMin, slotTail []int32
	nextRec, prevRec  []int32
	slotPos           []int32 // slot -> position in ord (valid while active)

	// ord is the active slots in rank order — exactly the step's
	// canonical pair order — maintained incrementally: a newly
	// activated slot's rank is the highest contact index seen so far
	// (appends at the tail), and a rank only changes when a slot's
	// head record ends while a later record keeps it active (a rank
	// increase, repositioned rightwards in place). Deactivated slots
	// are tombstoned (slotMin -1) and compacted away by the next
	// emission's walk over ord, so the common removal is O(1). live
	// counts the non-tombstoned entries. No per-step sort.
	ord  []int32
	live int

	// Per-node count of active pairs and the number of nodes with at
	// least one, maintained on slot (de)activation so each emitted
	// frame knows its active-node count without a separate sizing
	// pass over its pairs.
	nodeDeg     []int32
	activeNodes int32

	// Emitted frame specs: frame f's ordered pair keys are
	// pairSlab[frameOff[f]:frameOff[f+1]] and it has frameActive[f]
	// contacted nodes.
	pairSlab    []uint64
	frameOff    []int32
	frameActive []int32

	// framePrev[f] is the frame backing the step just before frame
	// f's first step (-1 for the frame of step 0). It feeds the
	// stable-component pass: components identical to one in the
	// preceding step are marked so consumers can skip re-deriving
	// per-step state that provably cannot have changed.
	framePrev []int32
}

// pairKey packs an unordered node pair as lo<<32 | hi.
func pairKey(a, b trace.NodeID) uint64 {
	lo, hi := a, b
	if lo > hi {
		lo, hi = hi, lo
	}
	return uint64(lo)<<32 | uint64(uint32(hi))
}

func unpack(key uint64) (trace.NodeID, trace.NodeID) {
	return trace.NodeID(key >> 32), trace.NodeID(uint32(key))
}

// contactSpan returns the inclusive step span [first, last] a contact
// covers, or ok=false when the contact touches no step.
func contactSpan(c trace.Contact, delta float64, steps int) (first, last int, ok bool) {
	first = int(c.Start / delta)
	last = int(c.End / delta)
	if c.End > c.Start && float64(last)*delta == c.End {
		last-- // exclusive end on a step boundary
	}
	if last >= steps {
		last = steps - 1
	}
	return first, last, first < steps && first <= last
}

func newSweep(tr *trace.Trace, delta float64, steps int) *sweep {
	contacts := tr.Contacts()
	n := len(contacts)
	sw := &sweep{
		steps:    steps,
		startIdx: make([]int32, steps+1),
		endIdx:   make([]int32, steps+1),
		slotOf:   make([]int32, n),
		nextRec:  make([]int32, n),
		prevRec:  make([]int32, n),
	}

	// Bucket span boundaries by step (counting sort: count, prefix,
	// fill). Events within one step keep ascending trace order.
	firsts := make([]int32, n)
	lasts := make([]int32, n)
	for i, c := range contacts {
		first, last, ok := contactSpan(c, delta, steps)
		if !ok {
			firsts[i] = -1
			continue
		}
		firsts[i], lasts[i] = int32(first), int32(last)
		sw.startIdx[first]++
		if last+1 < steps {
			sw.endIdx[last+1]++
		}
	}
	startTotal, endTotal := int32(0), int32(0)
	for s := 0; s < steps; s++ {
		cs, ce := sw.startIdx[s], sw.endIdx[s]
		sw.startIdx[s], sw.endIdx[s] = startTotal, endTotal
		startTotal += cs
		endTotal += ce
	}
	sw.startIdx[steps], sw.endIdx[steps] = startTotal, endTotal
	sw.startEvents = make([]int32, startTotal)
	sw.endEvents = make([]int32, endTotal)
	startCur := append([]int32(nil), sw.startIdx[:steps]...)
	endCur := append([]int32(nil), sw.endIdx[:steps]...)
	for i := range contacts {
		if firsts[i] < 0 {
			continue
		}
		sw.startEvents[startCur[firsts[i]]] = int32(i)
		startCur[firsts[i]]++
		if e := int(lasts[i]) + 1; e < steps {
			sw.endEvents[endCur[e]] = int32(i)
			endCur[e]++
		}
	}

	// Assign one dense slot per distinct pair. Small node counts use a
	// direct n×n table (first-encounter numbering); larger ones sort
	// the packed keys, dedup, and map each contact by binary search.
	// Slot numbering never affects the result — per-step order is
	// decided by record ranks alone.
	nn := tr.NumNodes
	if nn*nn <= 1<<18 {
		table := make([]int32, nn*nn)
		for i, c := range contacts {
			lo, hi := c.A, c.B
			if lo > hi {
				lo, hi = hi, lo
			}
			k := int(lo)*nn + int(hi)
			s := table[k]
			if s == 0 {
				sw.slotKeys = append(sw.slotKeys, pairKey(c.A, c.B))
				s = int32(len(sw.slotKeys))
				table[k] = s
			}
			sw.slotOf[i] = s - 1
		}
	} else {
		keys := make([]uint64, n)
		for i, c := range contacts {
			keys[i] = pairKey(c.A, c.B)
		}
		sorted := append([]uint64(nil), keys...)
		slices.Sort(sorted)
		sw.slotKeys = slices.Compact(sorted)
		for i, k := range keys {
			slot, _ := slices.BinarySearch(sw.slotKeys, k)
			sw.slotOf[i] = int32(slot)
		}
	}
	numSlots := len(sw.slotKeys)
	sw.slotMin = make([]int32, numSlots)
	sw.slotTail = make([]int32, numSlots)
	sw.slotPos = make([]int32, numSlots)
	for s := range sw.slotMin {
		sw.slotMin[s] = -1
		sw.slotPos[s] = -1
	}
	// Pre-size the key slab near its final extent (a few keys per
	// contact in practice) to avoid growth copies.
	sw.pairSlab = make([]uint64, 0, 4*n+64)
	sw.nodeDeg = make([]int32, tr.NumNodes)
	return sw
}

// add activates contact record i (ascending trace order within each
// slot, so insertion is always at the tail). A newly active slot's
// rank i exceeds every current rank — every other active record
// started earlier — so it appends at ord's tail, keeping rank order.
func (sw *sweep) add(i int32) {
	s := sw.slotOf[i]
	if sw.slotMin[s] < 0 {
		sw.slotMin[s], sw.slotTail[s] = i, i
		sw.prevRec[i], sw.nextRec[i] = -1, -1
		if pos := sw.slotPos[s]; pos >= 0 {
			// The slot's tombstone from an earlier deactivation is
			// still in ord (no emission compacted it yet): drop it so
			// the slot re-enters at the tail with its new rank.
			for j := int(pos) + 1; j < len(sw.ord); j++ {
				sw.ord[j-1] = sw.ord[j]
				sw.slotPos[sw.ord[j-1]] = int32(j - 1)
			}
			sw.ord = sw.ord[:len(sw.ord)-1]
		}
		sw.slotPos[s] = int32(len(sw.ord))
		sw.ord = append(sw.ord, s)
		sw.live++
		a, b := unpack(sw.slotKeys[s])
		if sw.nodeDeg[a]++; sw.nodeDeg[a] == 1 {
			sw.activeNodes++
		}
		if sw.nodeDeg[b]++; sw.nodeDeg[b] == 1 {
			sw.activeNodes++
		}
		return
	}
	t := sw.slotTail[s]
	sw.nextRec[t] = i
	sw.prevRec[i], sw.nextRec[i] = t, -1
	sw.slotTail[s] = i
}

// remove deactivates contact record i. When i was its slot's head the
// slot's rank changes: the slot is either tombstoned in place (no
// record remains; the next emission compacts it away) or moves
// rightwards to its successor record's rank.
func (sw *sweep) remove(i int32) {
	s := sw.slotOf[i]
	if sw.slotMin[s] != i {
		// Not the head: the slot's rank is unaffected.
		p, q := sw.prevRec[i], sw.nextRec[i]
		sw.nextRec[p] = q
		if q >= 0 {
			sw.prevRec[q] = p
		} else {
			sw.slotTail[s] = p
		}
		return
	}
	q := sw.nextRec[i]
	if q < 0 {
		// Slot is no longer active: tombstone in place (slotPos keeps
		// tracking the tombstone until a compaction drops it).
		sw.slotMin[s] = -1
		sw.live--
		a, b := unpack(sw.slotKeys[s])
		if sw.nodeDeg[a]--; sw.nodeDeg[a] == 0 {
			sw.activeNodes--
		}
		if sw.nodeDeg[b]--; sw.nodeDeg[b] == 0 {
			sw.activeNodes--
		}
		return
	}
	sw.prevRec[q] = -1
	sw.slotMin[s] = q
	// Rank increased from i to q: shift the entries ranked between
	// them (live or tombstoned — tombstones keep their position until
	// the next compaction) one left and reinsert s. ord[pos+1:] stays
	// rank-sorted because tombstones are skipped by rank reads only
	// at compaction time; their stale slotMin is -1, which sorts low,
	// so they must be hopped over explicitly here.
	pos := int(sw.slotPos[s])
	j := pos + 1
	for j < len(sw.ord) {
		t := sw.ord[j]
		if sw.slotMin[t] >= q {
			break
		}
		sw.ord[j-1] = t
		sw.slotPos[t] = int32(j - 1)
		j++
	}
	sw.ord[j-1] = s
	sw.slotPos[s] = int32(j - 1)
}

// run sweeps the steps, fills g.stepFrame, and records one ordered
// pair-key spec per emitted frame. The canonical per-step order — a
// pair ranks by the earliest contact record covering the step — and
// the frame-sharing rule (a step shares the previous step's frame iff
// the ordered key lists are equal; empty steps all share one frame)
// reproduce the pre-sweep builder exactly. It reports whether the
// sweep abandoned at a cancellation checkpoint, leaving the graph
// partially filled — the caller must then discard it.
func (sw *sweep) run(g *Graph, cc *engine.Cancel) bool {
	emptyFrame := int32(-1)
	var prevKeys []uint64
	prevValid := false // prevKeys meaningful (s > 0)

	for s := 0; s < sw.steps; s++ {
		if s&1023 == 1023 && cc.Stopped() {
			return true
		}
		changed := false
		for _, i := range sw.endEvents[sw.endIdx[s]:sw.endIdx[s+1]] {
			sw.remove(i)
			changed = true
		}
		for _, i := range sw.startEvents[sw.startIdx[s]:sw.startIdx[s+1]] {
			sw.add(i)
			changed = true
		}
		if !changed && s > 0 {
			// No boundary crossed: the pattern is structurally the
			// previous step's — share its frame without comparing.
			g.stepFrame[s] = g.stepFrame[s-1]
			continue
		}
		prev := int32(-1)
		if s > 0 {
			prev = g.stepFrame[s-1]
		}
		if sw.live == 0 {
			for _, slot := range sw.ord {
				sw.slotPos[slot] = -1
			}
			sw.ord = sw.ord[:0]
			if emptyFrame < 0 {
				emptyFrame = sw.emitKeys(len(sw.pairSlab), prev)
			}
			g.stepFrame[s] = emptyFrame
			prevKeys, prevValid = nil, true
			continue
		}
		// Materialize the ordered key list in scratch shared with the
		// slab — compacting tombstoned slots away as the walk goes —
		// then roll back if the step repeats the previous pattern.
		mark := len(sw.pairSlab)
		w := 0
		for _, slot := range sw.ord {
			if sw.slotMin[slot] < 0 {
				sw.slotPos[slot] = -1
				continue
			}
			sw.ord[w] = slot
			sw.slotPos[slot] = int32(w)
			w++
			sw.pairSlab = append(sw.pairSlab, sw.slotKeys[slot])
		}
		sw.ord = sw.ord[:w]
		keys := sw.pairSlab[mark:]
		if prevValid && slices.Equal(keys, prevKeys) {
			sw.pairSlab = sw.pairSlab[:mark]
			g.stepFrame[s] = g.stepFrame[s-1]
			// prevKeys keeps pointing at the prior copy, still live.
			continue
		}
		g.stepFrame[s] = sw.emitKeys(mark, prev)
		prevKeys, prevValid = keys, true
	}
	sw.frameOff = append(sw.frameOff, int32(len(sw.pairSlab)))
	return false
}

// emitKeys emits the frame whose keys start at pairSlab[mark],
// recording the current active-node count and the frame backing the
// preceding step.
func (sw *sweep) emitKeys(mark int, prev int32) int32 {
	id := int32(len(sw.frameOff))
	sw.frameOff = append(sw.frameOff, int32(mark))
	sw.frameActive = append(sw.frameActive, sw.activeNodes)
	sw.framePrev = append(sw.framePrev, prev)
	return id
}

// buildScratch is one worker's reusable per-frame construction state.
// degree and cursor are cleared after each frame by walking the
// frame's own nodes, so reuse across frames costs no O(n) reset. The
// comps and dist arenas hand out chunked slab space for component
// records and distance matrices, whose totals are only known after
// labeling; chunks are never grown in place, so handed-out slices
// stay valid.
type buildScratch struct {
	degree []int32
	cursor []int32
	queue  []trace.NodeID
	bounds []int32 // component boundaries of the frame being built
	// localIdx[x] is x's member index within the component currently
	// being solved; only entries of that component's members are ever
	// read, so it needs no reset between components or frames.
	localIdx []int32
	adj      [maxBitsetComp]uint64
	meta     arena[int32]
	dist     arena[int32]
}

// maxBitsetComp is the largest component solved by single-word bitset
// BFS; larger components fall back to queue BFS.
const maxBitsetComp = 64

// arena hands out slices from append-only chunks of chunk elements.
type arena[T any] struct {
	chunk int
	cur   []T
	used  int
}

func (a *arena[T]) alloc(n int) []T {
	if a.used+n > len(a.cur) {
		size := a.chunk
		if n > size {
			size = n
		}
		a.cur = make([]T, size)
		a.used = 0
	}
	s := a.cur[a.used : a.used+n : a.used+n]
	a.used += n
	return s
}

// buildFrames materializes every emitted frame spec into slab-backed
// storage. Slab extents come from counts the sweep recorded; one
// parallel pass over frames fills adjacency, labels components and
// computes per-component all-pairs distances, drawing component
// tables and distance matrices from per-worker arenas (their totals
// are only known after labeling). Every frame writes only its own
// slab regions, so graph contents are identical for any worker count.
// A fired cc makes the remaining frames no-ops (MapWorkers cannot stop
// early) and buildFrames report true; the partial graph must then be
// discarded. Both stop conditions are monotonic, so a false return
// guarantees no frame was skipped.
func buildFrames(g *Graph, sw *sweep, n, workers int, cc *engine.Cancel) bool {
	frameOff, pairSlab := sw.frameOff, sw.pairSlab
	numFrames := len(frameOff) - 1
	if numFrames < 0 {
		numFrames = 0
	}
	g.frames = make([]frame, numFrames)
	if numFrames == 0 {
		return false
	}

	activeOff := make([]int32, numFrames+1)
	var activeTotal int32
	for f := 0; f < numFrames; f++ {
		activeOff[f] = activeTotal
		activeTotal += sw.frameActive[f]
	}
	activeOff[numFrames] = activeTotal

	offsetsSlab := make([]int32, numFrames*(n+1))
	compIDSlab := make([]int32, numFrames*n)
	nbrsSlab := make([]trace.NodeID, 2*len(pairSlab))
	activeSlab := make([]trace.NodeID, activeTotal)
	membersSlab := make([]trace.NodeID, activeTotal)

	nw := engine.Workers(workers)
	if nw > numFrames {
		nw = numFrames
	}
	scratch := make([]buildScratch, nw)
	for w := range scratch {
		scratch[w] = buildScratch{
			degree:   make([]int32, n),
			cursor:   make([]int32, n),
			queue:    make([]trace.NodeID, 0, n),
			bounds:   make([]int32, 0, n+1),
			localIdx: make([]int32, n),
			meta:     arena[int32]{chunk: 1 << 13},
			dist:     arena[int32]{chunk: 1 << 15},
		}
	}

	engine.MapWorkers(nw, numFrames, func(w, i int) {
		if cc.Stopped() {
			return
		}
		f := &g.frames[i]
		f.offsets = offsetsSlab[i*(n+1) : (i+1)*(n+1)]
		f.compID = compIDSlab[i*n : (i+1)*n]
		f.nbrs = nbrsSlab[2*frameOff[i] : 2*frameOff[i+1]]
		f.active = activeSlab[activeOff[i]:activeOff[i]:activeOff[i+1]]
		f.members = membersSlab[activeOff[i]:activeOff[i+1]]
		pairs := pairSlab[frameOff[i]:frameOff[i+1]]
		b := &scratch[w]

		for _, p := range pairs {
			a, c := unpack(p)
			b.degree[a]++
			b.degree[c]++
		}
		total := int32(0)
		for x := 0; x < n; x++ {
			f.offsets[x] = total
			b.cursor[x] = total
			total += b.degree[x]
			if b.degree[x] > 0 {
				f.active = append(f.active, trace.NodeID(x))
			}
		}
		f.offsets[n] = total
		// Filling both directions in pair order reproduces the append
		// order of the pre-sweep adjacency build exactly.
		for _, p := range pairs {
			a, c := unpack(p)
			f.nbrs[b.cursor[a]] = c
			b.cursor[a]++
			f.nbrs[b.cursor[c]] = a
			b.cursor[c]++
		}
		buildComponents(f, b)
		// Reset scratch by walking only this frame's nodes.
		for _, x := range f.active {
			b.degree[x], b.cursor[x] = 0, 0
		}
	})
	return cc.Stopped()
}

// Static distance-matrix codes stored in frame.distRef: every
// two-member component has the same matrix, and a connected
// three-member component is either a triangle or a path (identified
// by its middle member's index). Sharing one immutable matrix per
// shape removes both the arena traffic and the BFS for ~three
// quarters of all components in a sparse contact graph.
const (
	refDist2    = -1 - iota // {0 1 / 1 0}
	refDist3Tri             // triangle
	refDist3P0              // path, middle is member 0
	refDist3P1              // path, middle is member 1
	refDist3P2              // path, middle is member 2
)

var staticDist = [5][]int32{
	{0, 1, 1, 0},
	{0, 1, 1, 1, 0, 1, 1, 1, 0},
	{0, 1, 1, 1, 0, 2, 1, 2, 0},
	{0, 1, 2, 1, 0, 1, 2, 1, 0},
	{0, 2, 1, 2, 0, 1, 1, 1, 0},
}

// buildComponents BFS-labels the frame's contact components in active
// order (member discovery order grouped by component, matching the
// pre-sweep builder), then fills the flat component tables: member
// boundaries, distance references, and the distance matrices of
// components too big for a static shape.
func buildComponents(f *frame, b *buildScratch) {
	filled := 0
	bigLen := 0
	bounds := append(b.bounds[:0], 0)
	for _, start := range f.active {
		if f.compID[start] != 0 {
			continue
		}
		id := int32(len(bounds)) // stored off by one: zero means "no contacts"
		compStart := filled
		queue := append(b.queue[:0], start)
		f.compID[start] = id
		for head := 0; head < len(queue); head++ {
			cur := queue[head]
			f.members[filled] = cur
			filled++
			for _, nb := range f.row(cur) {
				if f.compID[nb] == 0 {
					f.compID[nb] = id
					queue = append(queue, nb)
				}
			}
		}
		b.queue = queue[:0]
		if m := filled - compStart; m > 3 {
			bigLen += m * m
		}
		bounds = append(bounds, int32(filled))
	}
	b.bounds = bounds

	comps := len(bounds) - 1
	meta := b.meta.alloc(2*comps + 1)
	f.compBounds = meta[: comps+1 : comps+1]
	copy(f.compBounds, bounds)
	f.distRef = meta[comps+1:]
	f.dist = b.dist.alloc(bigLen)

	off := int32(0)
	for c := 0; c < comps; c++ {
		members := f.members[bounds[c]:bounds[c+1]]
		switch len(members) {
		case 2:
			f.distRef[c] = refDist2
		case 3:
			d0, d1 := len(f.row(members[0])), len(f.row(members[1]))
			switch {
			case d0+d1+len(f.row(members[2])) == 6:
				f.distRef[c] = refDist3Tri
			case d0 == 2:
				f.distRef[c] = refDist3P0
			case d1 == 2:
				f.distRef[c] = refDist3P1
			default:
				f.distRef[c] = refDist3P2
			}
		default:
			m := len(members)
			f.distRef[c] = off
			fillDistances(f, members, f.dist[off:off+int32(m*m)], b)
			off += int32(m * m)
		}
	}
}

// fillDistances computes one component's all-pairs hop distances (for
// components of four or more members; smaller ones share static
// matrices). Components up to 64 members run a single-word bitset BFS
// per member, and symmetry halves the work: member j only resolves
// distances to members below j (stopping as soon as all are reached)
// and mirrors each entry, so member 0 costs nothing. Larger
// components fall back to one full queue BFS per member, as the
// pre-sweep builder did for every component.
func fillDistances(f *frame, members []trace.NodeID, dist []int32, b *buildScratch) {
	m := len(members)
	for i, x := range members {
		b.localIdx[x] = int32(i)
	}
	if m <= maxBitsetComp {
		adj := &b.adj
		for i, x := range members {
			var mask uint64
			for _, nb := range f.row(x) {
				mask |= 1 << uint(b.localIdx[nb])
			}
			adj[i] = mask
		}
		for j := 0; j < m; j++ {
			dist[j*m+j] = 0
			remaining := uint64(1)<<uint(j) - 1 // members below j
			visited := uint64(1) << uint(j)
			frontier := visited
			d := int32(0)
			for remaining != 0 {
				var next uint64
				for fr := frontier; fr != 0; fr &= fr - 1 {
					next |= adj[bits.TrailingZeros64(fr)]
				}
				next &^= visited
				if next == 0 {
					break // unreachable: components are connected
				}
				d++
				for fr := next & remaining; fr != 0; fr &= fr - 1 {
					k := bits.TrailingZeros64(fr)
					dist[j*m+k] = d
					dist[k*m+j] = d
				}
				remaining &^= next
				visited |= next
				frontier = next
			}
		}
		return
	}
	for i := range dist {
		dist[i] = -1
	}
	for j, src := range members {
		row := dist[j*m : (j+1)*m]
		row[j] = 0
		queue := append(b.queue[:0], src)
		for head := 0; head < len(queue); head++ {
			cur := queue[head]
			d := row[b.localIdx[cur]]
			for _, nb := range f.row(cur) {
				if row[b.localIdx[nb]] < 0 {
					row[b.localIdx[nb]] = d + 1
					queue = append(queue, nb)
				}
			}
		}
		b.queue = queue[:0]
	}
}

// StepOf returns the step index whose interval contains time t
// (clamped to the valid range).
func (g *Graph) StepOf(t float64) int {
	s := int(t / g.Delta)
	if s < 0 {
		return 0
	}
	if s >= g.Steps {
		return g.Steps - 1
	}
	return s
}

// TimeOf returns the start time of step s.
func (g *Graph) TimeOf(s int) float64 { return float64(s) * g.Delta }

// frameAt returns the frame backing step s.
func (g *Graph) frameAt(s int) *frame { return &g.frames[g.stepFrame[s]] }

// NumFrames returns the number of distinct step frames (consecutive
// steps with identical contact patterns share one frame).
func (g *Graph) NumFrames() int { return len(g.frames) }

// FrameOf returns the index of the frame backing step s. Two steps
// with equal FrameOf values share all per-step indexes.
func (g *Graph) FrameOf(s int) int { return int(g.stepFrame[s]) }

// Neighbors returns the nodes in contact with x at step s, in
// first-contact order (the canonical enumeration order). The returned
// slice is shared and must not be modified.
func (g *Graph) Neighbors(s int, x trace.NodeID) []trace.NodeID {
	return g.frameAt(s).row(x)
}

// InContact reports whether nodes a and b share a zero-weight edge at
// step s, by scanning a's row (instantaneous contact graphs are
// sparse; rows hold a handful of entries).
func (g *Graph) InContact(s int, a, b trace.NodeID) bool {
	return slices.Contains(g.frameAt(s).row(a), b)
}

// ActiveNodes returns the nodes with at least one contact at step s,
// ascending. The returned slice is shared and must not be modified.
func (g *Graph) ActiveNodes(s int) []trace.NodeID {
	return g.frameAt(s).active
}

// EdgeCount returns the number of distinct zero-weight edges at step s.
func (g *Graph) EdgeCount(s int) int {
	return len(g.frameAt(s).nbrs) / 2
}

// View exposes step s's precomputed contact-component index.
type View struct {
	f        *frame
	samePrev bool // step shares the previous step's frame outright
}

// View returns the component index of step s.
func (g *Graph) View(s int) View {
	return View{
		f:        g.frameAt(s),
		samePrev: s > 0 && g.stepFrame[s] == g.stepFrame[s-1],
	}
}

// SameAsPrev reports whether component c is identical — members,
// adjacency, distances — to a component of the previous step. The
// previous step then assigns the same component index to every
// member.
func (v View) SameAsPrev(c int) bool { return v.samePrev || v.f.prevSame[c] }

// Neighbors returns the nodes in contact with x, in first-contact
// order. The returned slice is shared and must not be modified.
func (v View) Neighbors(x trace.NodeID) []trace.NodeID { return v.f.row(x) }

// NumComponents returns the number of contact components (isolated
// nodes belong to none).
func (v View) NumComponents() int { return len(v.f.distRef) }

// ComponentOf returns x's component index, or -1 when x has no
// contacts this step.
func (v View) ComponentOf(x trace.NodeID) int { return int(v.f.compID[x]) - 1 }

// Members returns a component's nodes. The returned slice is shared
// and must not be modified.
func (v View) Members(c int) []trace.NodeID {
	return v.f.members[v.f.compBounds[c]:v.f.compBounds[c+1]]
}

// MemberIndex returns x's position within its component's Members
// (by scanning the member list; components are small, and the hot
// paths address members by index directly).
func (v View) MemberIndex(x trace.NodeID) int {
	c := v.f.compID[x] - 1
	if c < 0 {
		return 0
	}
	members := v.f.members[v.f.compBounds[c]:v.f.compBounds[c+1]]
	for i, y := range members {
		if y == x {
			return i
		}
	}
	return 0
}

// Dist returns the hop distance between members i and j (member
// indices within component c). Components are connected, so the
// distance is always finite.
func (v View) Dist(c, i, j int) int {
	ref := v.f.distRef[c]
	if ref >= 0 {
		m := int(v.f.compBounds[c+1] - v.f.compBounds[c])
		return int(v.f.dist[int(ref)+i*m+j])
	}
	m := int(v.f.compBounds[c+1] - v.f.compBounds[c])
	return int(staticDist[-ref-1][i*m+j])
}
