package pathenum

import (
	"fmt"
	"sync"

	"repro/internal/engine"
	"repro/internal/stgraph"
	"repro/internal/trace"
)

// Message identifies one forwarding problem: deliver from Src to Dst a
// message created at time Start (seconds from trace origin).
type Message struct {
	Src, Dst trace.NodeID
	Start    float64
}

// Options tunes the enumerator.
type Options struct {
	// Delta is the space-time discretization step in seconds.
	// Zero means stgraph.DefaultDelta (the paper's 10 s).
	Delta float64

	// K is the paper's k, the one enumeration budget. It is the arrival
	// budget: enumeration stops at the end of the first step by which
	// K paths in total have reached the destination. It is also the
	// table width: each node keeps its K shortest valid paths (Figure
	// 3). And enumeration stops at once, even mid-step, when 4·K paths
	// have arrived; this arrival cap bounds the overshoot in the final
	// step, where a dense contact component can deliver every table
	// path at once. Zero means the paper's 2000.
	K int

	// Workers caps the number of goroutines EnumerateAll uses to
	// enumerate a message batch concurrently. Zero means
	// runtime.GOMAXPROCS(0); 1 forces a serial batch. Each message is
	// enumerated independently over the shared immutable space-time
	// graph, so results are identical for every worker count.
	Workers int
}

// Normalized returns the options with every zero field replaced by
// its documented default (Δ = 10 s, K = 2000; Workers stays as
// given), or an error if any field is out of range. Two option values
// describing the same enumeration normalize identically, so callers
// that key caches on options — e.g. the serving layer — must key on
// the normalized form rather than re-deriving the defaults.
func (o Options) Normalized() (Options, error) {
	o = o.withDefaults()
	if err := o.validate(); err != nil {
		return Options{}, err
	}
	return o, nil
}

func (o Options) withDefaults() Options {
	if o.Delta == 0 {
		o.Delta = stgraph.DefaultDelta
	}
	if o.K == 0 {
		o.K = 2000
	}
	return o
}

func (o Options) validate() error {
	if o.Delta < 0 {
		return fmt.Errorf("pathenum: negative delta %g", o.Delta)
	}
	if o.K < 0 {
		return fmt.Errorf("pathenum: negative K %d", o.K)
	}
	return nil
}

// Enumerator enumerates valid paths for messages over one trace. The
// indexed space-time graph — CSR adjacency plus per-step contact
// components and intra-component hop distances — is built once and
// shared across messages, so the per-message dynamic program reads
// precomputed indexes instead of re-deriving per-step structure. An
// Enumerator is safe for concurrent use: every Enumerate call draws
// its mutable scratch (tables, queues, and a path arena) from an
// internal pool, so goroutines may share one Enumerator (or call
// EnumerateAll, which fans a batch out itself).
type Enumerator struct {
	tr  *trace.Trace
	g   *stgraph.Graph
	opt Options

	// Per-call scratch, pooled so sequential calls reuse their
	// allocations and concurrent calls never share state.
	pool sync.Pool
}

// entry is one table slot: an arena handle with the path's hop count
// alongside, so the merge, threshold and acceptance checks never touch
// the arena. Entries are pointer-free, keeping every per-node table
// outside the garbage collector's write barriers. row is the handle of
// the entry's membership bitset (see rowArena). (Carrying the
// membership bitset in the entry was measured and lost: 12-byte
// entries keep the saturated tables and merge traffic almost 3x denser
// than 32-byte ones, which outweighs the arena loads.)
type entry struct {
	idx  int32
	hops int32
	row  int32
}

// bfsNode is one slot of the per-extension BFS queue. Transit nodes —
// reached only to search deeper, not (yet) accepted by any table — are
// kept unmaterialized: idx is -1 and the chain back to the root lives
// in par links (queue indexes), so hopeless subtrees never touch the
// arena. The first accepted or delivered descendant materializes the
// chain on demand (see scratch.materialize). Slots carry no path
// membership: an accepted child's row is built from the root's row
// plus the nodes on its par chain (see extendBFS), so the dominant
// share of slots that never get accepted costs 16 bytes each.
type bfsNode struct {
	idx  int32 // arena handle, -1 while unmaterialized
	par  int32 // queue index of the parent slot, -1 for the root
	node int32
	hops int32
}

// scratch is the mutable per-Enumerate state. Everything the dynamic
// program touches per call lives here, so a warmed-up scratch makes
// Enumerate allocate only its result.
type scratch struct {
	visited   []int // BFS epoch marks
	epoch     int
	hopCounts []int32 // counting-sort buckets, len NumNodes+1
	mergeBuf  []entry
	table     [][]entry // per-node k-shortest tables (rows reused across calls)
	cands     [][]entry // per-node candidate lists for the current step
	thresh    []int32   // per-node extension thresholds
	caps      []int32   // per-member table capacities (threshold scratch)
	bqueue    []bfsNode // BFS queue (lazily materialized chains)
	matStack  []int32   // queue indexes pending materialization
	sortBuf   []entry   // counting-sort output buffer
	arrivals  []int32   // arena handles of delivered paths, arrival order
	arena     pathArena // slab allocator for this call's path tree

	// Exact acceptance bounds. bound[i] is the hop count a candidate at
	// node i must beat to survive this step's merge: the width-th
	// smallest hop count among i's table entries plus the step's
	// accepted candidates so far (boundInf while fewer than width
	// exist). Between steps it equals the static table cap, maintained
	// at every table mutation; within a step noteAccept tightens it as
	// candidates are accepted, so the BFS rejects exactly the
	// candidates the merge would drop — one array load per scan.
	// below/hist back the tightening: hist[i*histCap+h] counts tracked
	// elements at hop h, below[i] counts tracked elements strictly
	// under bound[i] (-1 until the node's first accept lazily bins its
	// existing table; dirty lists the nodes to clean at step end).
	bound []int32
	below []int32
	hist  []int32
	dirty []int32

	// cx is the run's call context (nil when the caller passed none).
	// Once its token fires step reports "finished" so the loops
	// unwind; the caller re-polls cx and discards the scratch
	// result-free.
	cx *engine.Ctx

	// stamp[i] is the last step whose merge, prune or seed changed
	// node i's table. Together with the graph's stable-component
	// marks it drives the static-component skip: a component whose
	// adjacency is unchanged from the previous step and none of whose
	// members' tables changed during it would reproduce exactly the
	// candidate set it produced then — all of which were dropped, or
	// the tables would have changed — so the whole component is
	// skipped without extending a single path.
	stamp []int32

	// Membership bitset rows plus the delivered-node bitset for
	// pruning. Every entry owns its row exclusively; rows are freed the
	// moment the merge or prune drops the entry.
	// deliveredIdx lists the indexes of deliveredBits' nonzero words:
	// the destination's contact set is a handful of nodes, so the
	// per-entry prune sweep touches one or two words instead of the
	// full ceil(n/64)-word row.
	rows          rowArena
	deliveredBits []uint64
	deliveredIdx  []int32
}

// materialize returns the arena handle of BFS queue slot qi, allocating
// the unmaterialized suffix of its chain (parent-first) on demand. Every
// allocated slot is recorded back into the queue, so a chain shared by
// several accepted descendants is materialized once.
func (sc *scratch) materialize(qi int32, s int) int32 {
	if sc.bqueue[qi].idx >= 0 {
		return sc.bqueue[qi].idx
	}
	stack := sc.matStack[:0]
	for sc.bqueue[qi].idx < 0 {
		stack = append(stack, qi)
		qi = sc.bqueue[qi].par
	}
	idx := sc.bqueue[qi].idx
	for i := len(stack) - 1; i >= 0; i-- {
		b := &sc.bqueue[stack[i]]
		idx = sc.arena.extend(idx, b.hops-1, trace.NodeID(b.node), s)
		b.idx = idx
	}
	sc.matStack = stack[:0]
	return idx
}

func (e *Enumerator) getScratch() *scratch {
	if sc, ok := e.pool.Get().(*scratch); ok {
		return sc
	}
	return newScratch(e.tr.NumNodes)
}

// newScratch allocates the scratch for an n-node population, every
// node's table empty and unbinned.
func newScratch(n int) *scratch {
	words := (n + 63) / 64
	sc := &scratch{
		visited:       make([]int, n),
		hopCounts:     make([]int32, n+1),
		table:         make([][]entry, n),
		cands:         make([][]entry, n),
		thresh:        make([]int32, n),
		bound:         make([]int32, n),
		below:         make([]int32, n),
		hist:          make([]int32, n*int(histCap)),
		stamp:         make([]int32, n),
		rows:          rowArena{words: int32(words)},
		deliveredBits: make([]uint64, words),
	}
	for i := range sc.bound {
		sc.bound[i] = boundInf
		sc.below[i] = -1
		sc.stamp[i] = -2
	}
	return sc
}

// prepare resets the scratch for a fresh enumeration. The arena rewind
// is safe here because every path that escaped the previous call was
// materialized out of the arena before the scratch returned to the
// pool.
func (sc *scratch) prepare() {
	for i := range sc.table {
		sc.table[i] = sc.table[i][:0]
		sc.cands[i] = sc.cands[i][:0]
		sc.bound[i] = boundInf
		sc.stamp[i] = -2
	}
	// An arrival cap stop (or a cancellation checkpoint) can abandon a
	// step mid-phase; clean the histogram state its accepts left behind.
	sc.clearHists()
	sc.arrivals = sc.arrivals[:0]
	sc.arena.reset()
	sc.rows.reset()
}

// clearHists resets the per-step acceptance histograms of every node
// binned since the last clear.
func (sc *scratch) clearHists() {
	for _, d := range sc.dirty {
		clear(sc.hist[d*histCap : (d+1)*histCap])
		sc.below[d] = -1
	}
	sc.dirty = sc.dirty[:0]
}

// NewEnumerator prepares path enumeration over tr.
func NewEnumerator(tr *trace.Trace, opt Options) (*Enumerator, error) {
	opt, err := opt.Normalized()
	if err != nil {
		return nil, err
	}
	g, err := stgraph.New(tr, opt.Delta, nil)
	if err != nil {
		return nil, err
	}
	return &Enumerator{tr: tr, g: g, opt: opt}, nil
}

// NewEnumeratorWithGraph prepares path enumeration over tr reusing a
// space-time graph built earlier (by NewSpaceTimeGraph or another
// enumerator's Graph method). The graph index is the expensive part of
// enumerator construction and is immutable, so callers that vary only
// K — e.g. a serving layer answering per-request budgets — can share
// one graph across many enumerators.
// The graph must have been built from tr; a non-zero opt.Delta must
// match the graph's step (zero adopts it).
func NewEnumeratorWithGraph(tr *trace.Trace, g *stgraph.Graph, opt Options) (*Enumerator, error) {
	if g == nil {
		return nil, fmt.Errorf("pathenum: nil graph")
	}
	if g.NumNodes != tr.NumNodes {
		return nil, fmt.Errorf("pathenum: graph built for %d nodes, trace has %d", g.NumNodes, tr.NumNodes)
	}
	if opt.Delta != 0 && opt.Delta != g.Delta {
		return nil, fmt.Errorf("pathenum: options delta %g does not match graph delta %g", opt.Delta, g.Delta)
	}
	opt.Delta = g.Delta
	opt, err := opt.Normalized()
	if err != nil {
		return nil, err
	}
	return &Enumerator{tr: tr, g: g, opt: opt}, nil
}

// Graph exposes the underlying space-time graph.
func (e *Enumerator) Graph() *stgraph.Graph { return e.g }

// Result collects the delivered paths of one message enumeration.
type Result struct {
	Msg   Message
	Delta float64

	// Arrivals holds every delivered valid path in arrival order
	// (non-decreasing step). Paths arriving within the same step share
	// an arrival time; their relative order is arbitrary.
	Arrivals []*Path

	// Exhausted is true when enumeration stopped because the arrival
	// budget K was met, i.e. the path explosion was fully observed.
	// False means the trace ended (or all paths were invalidated by a
	// direct source-destination encounter) first.
	Exhausted bool
}

// validateMessage checks a message against the enumerator's trace.
// Enumeration itself cannot fail, so this is the only error source of
// Enumerate and EnumerateAll.
func (e *Enumerator) validateMessage(msg Message) error {
	n := e.tr.NumNodes
	if msg.Src < 0 || int(msg.Src) >= n || msg.Dst < 0 || int(msg.Dst) >= n {
		return fmt.Errorf("pathenum: message endpoints (%d,%d) out of range [0,%d)", msg.Src, msg.Dst, n)
	}
	if msg.Src == msg.Dst {
		return fmt.Errorf("pathenum: source equals destination (%d)", msg.Src)
	}
	if msg.Start < 0 || msg.Start >= e.tr.Horizon {
		return fmt.Errorf("pathenum: start time %g outside [0,%g)", msg.Start, e.tr.Horizon)
	}
	return nil
}

// Enumerate runs the Figure 3 dynamic program for one message, as a
// batch group of one.
func (e *Enumerator) Enumerate(msg Message) (*Result, error) {
	if err := e.validateMessage(msg); err != nil {
		return nil, err
	}
	idxs, msgs, out := [1]int{}, [1]Message{msg}, [1]*Result{}
	if err := e.enumerateGroup(msg.Src, e.g.StepOf(msg.Start), idxs[:], msgs[:], out[:], nil); err != nil {
		return nil, err
	}
	return out[0], nil
}

// seed installs the zero-hop source tuple into the table.
func (e *Enumerator) seed(sc *scratch, src trace.NodeID, s0 int) {
	row := sc.rows.alloc()
	sc.rows.set(row, src)
	sc.table[src] = append(sc.table[src], entry{idx: sc.arena.source(src, s0), row: row})
	sc.bound[src] = boundOf(sc.table[src], e.opt.K)
	sc.stamp[src] = int32(s0) - 1
}

// step runs one step of the dynamic program. A negative dst runs the
// step destination-free — no arrivals, thresholds, pruning or stop
// rules involve the destination, exactly as if it had no contacts —
// which is how batch enumeration advances the prefix shared by a
// (src, start) group before each destination becomes active. It
// reports whether enumeration is finished (arrival budget met or every
// path invalidated).
func (e *Enumerator) step(sc *scratch, s int, dst trace.NodeID, res *Result) bool {
	// Cancellation checkpoint, once per step: report "finished" so the
	// caller's loop unwinds; re-polling sc.cx tells it no result
	// exists. Mid-phase abandonment is safe by the same argument as the
	// arrival cap stop — prepare/clearHists reset everything a partial
	// step leaves behind.
	if sc.cx.Stopped() {
		return true
	}
	n := e.tr.NumNodes
	v := e.g.View(s)
	table, cands, thresh := sc.table, sc.cands, sc.thresh
	arrivalCap := 4 * e.opt.K

	// Compute, for each node with contacts, the largest resident
	// hop count that could still contribute this step: a path p at
	// node i can only matter if some reachable node v could accept
	// an extension (its table has room or holds a longer path) at
	// hop count p.Hops + dist(i, v), or if the destination is in
	// i's component. Everything above the threshold is skipped
	// wholesale — this keeps the saturated steady state (every
	// table full of short paths) cheap between explosion onset and
	// trace end.
	e.computeThresholds(sc, v, dst, s, thresh)

	// The destination component's roots always run (delivery bypasses
	// tables), but once a root has delivered, its BFS is only worth
	// expanding where a descendant could still be accepted. dstMax —
	// the loosest acceptance bound in the component at step start —
	// prunes that expansion exactly: a child whose children would all
	// arrive at or beyond every member's bound cannot seed an accept.
	dstComp := -1
	dstMax := int32(0)
	if dst >= 0 {
		dstComp = v.ComponentOf(dst)
		if dstComp >= 0 {
			for _, x := range v.Members(dstComp) {
				if b := sc.bound[x]; b > dstMax {
					dstMax = b
				}
			}
		}
	}

	// Phase 1: extend every resident path through the zero-weight
	// closure of this step, collecting candidates and arrivals. Each
	// node's threshold is recomputed just in time from the live
	// acceptance bounds, so nodes processed later in the sweep skip
	// roots whose candidates the bounds — tightened by earlier
	// accepts — would reject anyway.
	for i := 0; i < n; i++ {
		// Amortized mid-step checkpoint: dense steps on city-scale
		// traces take milliseconds, so polling every few hundred
		// extension roots bounds the post-cancel overrun without
		// measurable cost on the hot path.
		if i&511 == 511 && sc.cx.Stopped() {
			return true
		}
		paths := table[i]
		if len(paths) == 0 || thresh[i] == skipAll {
			continue
		}
		bound := thresh[i]
		mustDeliver := bound == extendAll && dstComp >= 0 && v.ComponentOf(trace.NodeID(i)) == dstComp
		if bound != extendAll {
			bound = e.jitThresh(sc, v, i)
			thresh[i] = bound
		}
		for _, p := range paths {
			// Tables are sorted by hop count: once one resident
			// path is bounded out, the rest are too.
			if p.hops >= bound {
				break
			}
			e.extendBFS(sc, v, dst, p, trace.NodeID(i), s, cands, thresh, mustDeliver, dstMax)
			if len(sc.arrivals) >= arrivalCap {
				res.Exhausted = true
				return true
			}
		}
	}

	// Phase 2: merge candidates into the per-node tables, keeping
	// the K shortest (by hop count; existing paths win ties,
	// preserving shorter durations), and restore each merged node's
	// acceptance bound to its new static table cap.
	width := e.opt.K
	for i := 0; i < n; i++ {
		if len(cands[i]) > 0 {
			table[i] = e.mergeShortest(sc, table[i], cands[i])
			cands[i] = cands[i][:0]
			sc.bound[i] = boundOf(table[i], width)
			sc.stamp[i] = int32(s)
		}
	}
	sc.clearHists()

	if dst < 0 {
		return false
	}

	// Phase 3: first preference. Every node in direct contact with
	// the destination this step has just delivered; any table path
	// containing such a node could only deliver strictly later and
	// is invalid (§4.1).
	if dn := v.Neighbors(dst); len(dn) > 0 {
		clear(sc.deliveredBits)
		for _, d := range dn {
			sc.deliveredBits[d>>6] |= 1 << (uint(d) & 63)
		}
		sc.deliveredIdx = sc.deliveredIdx[:0]
		for w, bits := range sc.deliveredBits {
			if bits != 0 {
				sc.deliveredIdx = append(sc.deliveredIdx, int32(w))
			}
		}
		alive := false
		for i := 0; i < n; i++ {
			before := len(table[i])
			table[i] = pruneRows(&sc.rows, table[i], sc.deliveredBits, sc.deliveredIdx)
			if len(table[i]) != before {
				sc.bound[i] = boundOf(table[i], width)
				sc.stamp[i] = int32(s)
			}
			alive = alive || len(table[i]) > 0
		}
		if !alive {
			// Every surviving path contained a node that met the
			// destination (e.g. the source itself); no further
			// valid path can exist.
			return true
		}
	}

	if len(sc.arrivals) >= e.opt.K {
		res.Exhausted = true
		return true
	}
	return false
}

// materializeArrivals converts the arrival handles into public Path
// chains, copied out of the arena into one slab owned by the result.
// The copy unshares common prefixes but preserves every observable
// property (Nodes, Steps, Hops, String); in exchange the arena — which
// also holds the millions of intermediate table paths — is reusable
// the moment the call returns.
func materializeArrivals(sc *scratch, res *Result) {
	if len(sc.arrivals) == 0 {
		return
	}
	a := &sc.arena
	total := 0
	for _, idx := range sc.arrivals {
		total += int(a.at(idx).hops) + 1
	}
	slab := make([]Path, total)
	res.Arrivals = make([]*Path, len(sc.arrivals))
	base := 0
	for i, idx := range sc.arrivals {
		h := int(a.at(idx).hops)
		j := base + h
		for cur := idx; cur >= 0; {
			pn := a.at(cur)
			slab[j] = Path{Node: trace.NodeID(pn.node), Step: int(pn.step), Hops: int(pn.hops)}
			cur = pn.parent
			j--
		}
		for k := base + 1; k <= base+h; k++ {
			slab[k].parent = &slab[k-1]
		}
		res.Arrivals[i] = &slab[base+h]
		base += h + 1
	}
}

// Sentinel thresholds: skipAll marks nodes whose paths cannot
// contribute at all this step (no contacts); extendAll marks nodes in
// the destination's component, whose paths always extend (arrivals).
// Both compare correctly under the uniform `hops < thresh` test, since
// hop counts are bounded far below boundInf.
const (
	skipAll   = int32(-1) << 30
	extendAll = boundInf

	// boundInf is the acceptance bound of a table with room: any
	// candidate is accepted.
	boundInf = int32(1) << 30

	// histCap bounds the hop counts the acceptance histograms track.
	// Candidates at or above it skip the bookkeeping entirely, leaving
	// the bound looser than exact — a safe over-accept the merge
	// corrects — but paths that long are virtually nonexistent (hop
	// counts are capped by the loop-freedom invariant and in practice
	// by component diameters).
	histCap = int32(128)
)

// boundOf returns the static acceptance bound of a table: the hop
// count of its worst entry when full, boundInf while it has room.
func boundOf(t []entry, width int) int32 {
	if len(t) < width {
		return boundInf
	}
	return t[len(t)-1].hops
}

// binExisting initializes node nb's acceptance histogram from its
// existing table plus the candidates already accepted this step (the
// current one included — noteAccept appends to cands first). Entries at
// or beyond histCap stay untracked: below then undercounts, which only
// delays tightening (over-accept, never over-reject).
func (sc *scratch) binExisting(nb trace.NodeID) {
	base := int32(nb) * histCap
	b := sc.bound[nb]
	cnt := int32(0)
	for _, en := range sc.table[nb] {
		if en.hops < histCap {
			sc.hist[base+en.hops]++
			if en.hops < b {
				cnt++
			}
		}
	}
	for _, en := range sc.cands[nb] {
		if en.hops < histCap {
			sc.hist[base+en.hops]++
			if en.hops < b {
				cnt++
			}
		}
	}
	sc.below[nb] = cnt
	sc.dirty = append(sc.dirty, int32(nb))
}

// noteAccept records an accepted candidate at node nb and tightens the
// node's acceptance bound when the count of tracked elements below it
// reaches the table width: the bound walks down to the largest
// occupied histogram bucket, which is exactly the new width-th
// smallest hop count. While the table and the step's accepts together
// hold fewer than width elements no tightening is possible (the
// width-th smallest does not exist, the bound stays boundInf), so the
// histogram stays cold until the count first crosses width — which
// skips the binning entirely for the long pre-saturation phase.
func (sc *scratch) noteAccept(nb trace.NodeID, h, width int32) {
	if sc.below[nb] < 0 {
		if int32(len(sc.table[nb])+len(sc.cands[nb])) < width {
			return
		}
		sc.binExisting(nb)
	} else {
		if h >= histCap {
			return
		}
		base := int32(nb) * histCap
		sc.hist[base+h]++
		sc.below[nb]++
	}
	if sc.below[nb] >= width {
		base := int32(nb) * histCap
		b := sc.bound[nb]
		if b > histCap {
			b = histCap
		}
		for b--; sc.hist[base+b] == 0; b-- {
		}
		sc.below[nb] -= sc.hist[base+b]
		sc.bound[nb] = b
	}
}

// computeThresholds fills thresh[i] with the strict upper bound on the
// hop count of resident paths at node i worth extending at step s: a
// path p contributes only if some node v in i's component could accept
// a table insertion at p.Hops + dist(i, v) hops. The per-node caps are
// read straight from the maintained acceptance bounds — at a step
// boundary bound[v] is exactly the hop count of v's worst table entry
// (boundInf when the table has room) — and the threshold is max over v
// of bound(v) − dist(i, v). Nodes in the destination's component
// always extend (deliveries bypass tables).
//
// The component member lists and pairwise hop distances come straight
// from the graph's step index — the pre-index implementation re-ran
// one BFS (with a heap-allocated depth map) per member, per step, per
// message to derive the same numbers.
func (e *Enumerator) computeThresholds(sc *scratch, v stgraph.View, dst trace.NodeID, s int, thresh []int32) {
	for i := range thresh {
		thresh[i] = skipAll
	}
	dstComp := -1
	if dst >= 0 {
		dstComp = v.ComponentOf(dst)
	}
	for c := 0; c < v.NumComponents(); c++ {
		members := v.Members(c)
		if c == dstComp {
			for _, x := range members {
				thresh[x] = extendAll
			}
			continue
		}
		// Static-component skip: if the component carried over from
		// the previous step unchanged and none of its members'
		// tables changed during that step, this step would reproduce
		// the previous step's candidate set exactly — and every one
		// of those candidates was dropped (a kept candidate would
		// have stamped its table). Leaving thresh at skipAll elides
		// the whole component: no roots, no scans, no accepts.
		if v.SameAsPrev(c) {
			stable := true
			for _, x := range members {
				if sc.stamp[x] >= int32(s)-1 {
					stable = false
					break
				}
			}
			if stable {
				continue
			}
		}
		// cap per member, and how many members still have table room.
		caps := sc.caps[:0]
		room := 0
		for _, x := range members {
			b := sc.bound[x]
			caps = append(caps, b)
			if b >= boundInf {
				room++
			}
		}
		sc.caps = caps
		m := len(members)
		for j, x := range members {
			othersRoom := room
			if caps[j] >= boundInf {
				othersRoom--
			}
			if othersRoom > 0 {
				// Some other member's table has room: any extension
				// depth can still be accepted there.
				thresh[x] = extendAll
				continue
			}
			best := skipAll
			for k := 0; k < m; k++ {
				if k == j {
					continue
				}
				if b := caps[k] - int32(v.Dist(c, j, k)); b > best {
					best = b
				}
			}
			thresh[x] = best
		}
	}
}

// jitThresh recomputes node i's extension threshold from the current
// (step-tightened) acceptance bounds, just before its resident paths
// root their BFS runs. Bounds only tighten during a step, so the
// returned threshold is never looser than the step-start value and
// never tighter than what the final tables justify: a root it skips
// could only have produced candidates every acceptance test would
// reject anyway. Called only for nodes with contacts outside the
// destination's component (thresh neither skipAll nor extendAll).
func (e *Enumerator) jitThresh(sc *scratch, v stgraph.View, i int) int32 {
	c := v.ComponentOf(trace.NodeID(i))
	members := v.Members(c)
	j := v.MemberIndex(trace.NodeID(i))
	best := skipAll
	for k, x := range members {
		if k == j {
			continue
		}
		b := sc.bound[x]
		if b >= boundInf {
			return extendAll
		}
		if t := b - int32(v.Dist(c, j, k)); t > best {
			best = t
		}
	}
	return best
}

// extendBFS extends path p (resident at p's final node) through the
// zero-weight closure at step s. Newly reached nodes become candidate
// table entries; reaching the destination records an arrival. Transit
// nodes — reached only to search deeper — stay unmaterialized bfsNode
// slots; an arena chain is allocated only when a table accepts a child
// or a delivery happens, so the (dominant) hopeless share of the
// frontier costs no arena traffic at all. The queue is the scratch's
// ring buffer: a head index walks it in place instead of reslicing the
// front away (which would leak capacity and force regrowth).
func (e *Enumerator) extendBFS(sc *scratch, v stgraph.View, dst trace.NodeID, p entry, rootNode trace.NodeID, s int, cands [][]entry, thresh []int32, mustDeliver bool, dstMax int32) {
	sc.epoch++
	epoch := sc.epoch
	a := &sc.arena
	width := int32(e.opt.K)
	bound := sc.bound
	// The root is a table entry; caching its membership bitset row makes
	// the per-neighbor loop check below one word-indexed bit test.
	rootRow := sc.rows.row(p.row)
	sc.visited[rootNode] = epoch
	sc.bqueue = append(sc.bqueue[:0], bfsNode{idx: p.idx, par: -1, node: int32(rootNode), hops: p.hops})
	delivered := false
	for head := 0; head < len(sc.bqueue); head++ {
		q := sc.bqueue[head]
		for _, nb := range v.Neighbors(trace.NodeID(q.node)) {
			if nb == dst {
				if !delivered {
					delivered = true
					qi := sc.materialize(int32(head), s)
					sc.arrivals = append(sc.arrivals, a.extend(qi, q.hops, dst, s))
				}
				continue
			}
			if sc.visited[nb] == epoch {
				continue
			}
			if rootRow[nb>>6]&(1<<(uint(nb)&63)) != 0 {
				continue
			}
			sc.visited[nb] = epoch
			childHops := q.hops + 1
			// bound[nb] already accounts for this step's earlier
			// accepts, so the test is exact: a candidate at or above
			// it is precisely one the merge would drop.
			accept := childHops < bound[nb]
			deeper := childHops < thresh[nb]
			if !accept && !deeper {
				continue
			}
			childIdx := int32(-1)
			if accept {
				qi := sc.materialize(int32(head), s)
				childIdx = a.extend(qi, q.hops, nb, s)
				// The candidate owns its row from birth: the root's row
				// (hot in cache) copied, with the child and the step's
				// branch nodes — read off the hot BFS queue chain, never
				// the arena — OR-ed in. The chain ends at the root slot,
				// whose bit the copy already holds; re-setting it is
				// harmless.
				row, rw := sc.rows.allocCopy(rootRow)
				rw[nb>>6] |= 1 << (uint(nb) & 63)
				for slot := int32(head); slot >= 0; slot = sc.bqueue[slot].par {
					nd := sc.bqueue[slot].node
					rw[nd>>6] |= 1 << (uint(nd) & 63)
				}
				cands[nb] = append(cands[nb], entry{idx: childIdx, hops: childHops, row: row})
				sc.noteAccept(nb, childHops, width)
			}
			if deeper {
				// Once this root has delivered, the only reason to go
				// deeper is a future accept; a grandchild at any node v
				// would carry childHops+1 >= dstMax >= bound[v] hops and
				// be rejected, so the subtree is pruned exactly.
				if mustDeliver && delivered && childHops+1 >= dstMax {
					continue
				}
				sc.bqueue = append(sc.bqueue, bfsNode{idx: childIdx, par: int32(head), node: int32(nb), hops: childHops})
			}
		}
	}
	sc.bqueue = sc.bqueue[:0]
}

// mergeShortest merges existing (sorted by hops) with cands (creation
// order) keeping the width shortest by hop count; existing paths win
// ties. Existing entries at or below the first candidate's hop count
// precede every candidate in the merged order, so that prefix keeps
// its slots untouched and only the overlapping tail runs through the
// reused scratch buffer — in the saturated steady state candidates
// land near the table's end and the copy shrinks to a few entries. The
// rows of dropped entries — a suffix of each input, since both are
// consumed in order — are recycled immediately: every entry owns its
// row exclusively.
func (e *Enumerator) mergeShortest(sc *scratch, existing, cands []entry) []entry {
	width := e.opt.K
	sc.sortByHops(cands)
	p := len(existing)
	c0 := cands[0].hops
	for p > 0 && existing[p-1].hops > c0 {
		p--
	}
	buf := sc.mergeBuf[:0]
	i, j := p, 0
	for len(buf) < width-p && (i < len(existing) || j < len(cands)) {
		if j >= len(cands) || (i < len(existing) && existing[i].hops <= cands[j].hops) {
			buf = append(buf, existing[i])
			i++
		} else {
			buf = append(buf, cands[j])
			j++
		}
	}
	sc.mergeBuf = buf
	for k := i; k < len(existing); k++ {
		sc.rows.freeRow(existing[k].row)
	}
	for k := j; k < len(cands); k++ {
		sc.rows.freeRow(cands[k].row)
	}
	existing = append(existing[:p], buf...)
	return existing
}

// sortByHops stable-sorts a candidate list by hop count. Most lists
// are a handful of entries (one per resident path that reached the
// node this step), where insertion sort wins; wide-table steps can
// queue thousands of candidates per node, which fall through to a
// stable counting sort — hop counts are bounded by the path length,
// which the loop-freedom invariant caps at the population size.
func (sc *scratch) sortByHops(paths []entry) {
	if len(paths) <= 24 {
		for i := 1; i < len(paths); i++ {
			p := paths[i]
			j := i - 1
			for j >= 0 && paths[j].hops > p.hops {
				paths[j+1] = paths[j]
				j--
			}
			paths[j+1] = p
		}
		return
	}
	pos := sc.hopCounts // zeroed below after use; hops < len(pos)
	maxHop := int32(0)
	for _, p := range paths {
		pos[p.hops]++
		if p.hops > maxHop {
			maxHop = p.hops
		}
	}
	pos = pos[:maxHop+1] // bound bucket work by the actual hop range
	sum := int32(0)
	for h := range pos {
		pos[h], sum = sum, sum+pos[h]
	}
	if cap(sc.sortBuf) < len(paths) {
		sc.sortBuf = make([]entry, len(paths))
	}
	buf := sc.sortBuf[:len(paths)]
	for _, p := range paths {
		buf[pos[p.hops]] = p
		pos[p.hops]++
	}
	copy(paths, buf)
	clear(pos)
}

// pruneRows removes, in place, the paths intersecting the delivered
// node set: each entry's membership bitset row is AND-tested against
// the delivered bitset's nonzero words only (their indexes in idx), and
// pruned entries recycle their rows.
func pruneRows(rows *rowArena, paths []entry, delivered []uint64, idx []int32) []entry {
	out := paths[:0]
scan:
	for _, p := range paths {
		row := rows.row(p.row)
		for _, w := range idx {
			if row[w]&delivered[w] != 0 {
				rows.freeRow(p.row)
				continue scan
			}
		}
		out = append(out, p)
	}
	return out
}

// ArrivalTime returns the delivery time of a path produced by
// Enumerate: the end of the step in which it reached the destination.
func (r *Result) ArrivalTime(p *Path) float64 {
	return float64(p.Step+1) * r.Delta
}

// NumPaths returns the number of delivered paths observed.
func (r *Result) NumPaths() int { return len(r.Arrivals) }

// Tn returns the duration from message creation to the arrival of the
// n-th path (1-based), and whether at least n paths arrived. T(1) is
// the paper's optimal path duration.
func (r *Result) Tn(n int) (float64, bool) {
	if n < 1 || n > len(r.Arrivals) {
		return 0, false
	}
	return r.ArrivalTime(r.Arrivals[n-1]) - r.Msg.Start, true
}

// T1 returns the optimal path duration, if any path was found.
func (r *Result) T1() (float64, bool) { return r.Tn(1) }

// TimeToExplosion returns TE = Tn − T1 for the given n (the paper uses
// n = 2000), and whether at least n paths arrived.
func (r *Result) TimeToExplosion(n int) (float64, bool) {
	tn, ok := r.Tn(n)
	if !ok {
		return 0, false
	}
	t1, _ := r.T1()
	return tn - t1, true
}

// StepCount is the number of paths arriving during one step.
type StepCount struct {
	Step  int
	Time  float64 // step end (the arrival time of its paths)
	Count int
}

// ArrivalCounts aggregates arrivals per step, in step order.
func (r *Result) ArrivalCounts() []StepCount {
	var out []StepCount
	for _, p := range r.Arrivals {
		if len(out) > 0 && out[len(out)-1].Step == p.Step {
			out[len(out)-1].Count++
			continue
		}
		out = append(out, StepCount{Step: p.Step, Time: r.ArrivalTime(p), Count: 1})
	}
	return out
}
