// Package pathenum implements the paper's core contribution (§4): the
// enumeration of all valid forwarding paths for a message on a
// space-time graph, using dynamic programming that maintains the k
// shortest valid paths reaching each node (paper Figure 3), and the
// path-explosion metrics derived from the enumeration — optimal path
// duration T1, n-th arrival time Tn, and time to explosion
// TE = T2000 − T1.
//
// A path is valid (§4.1) when it is loop-free, respects minimal
// progress (a node holding a message delivers on any encounter with
// the destination) and first preference (no valid path delivers later
// than any of its member nodes could have delivered directly).
package pathenum

import (
	"fmt"

	"repro/internal/trace"
)

// Path is one valid space-time path, stored as an immutable chain of
// hops sharing prefixes with sibling paths. Node is the node reached
// by the final hop, Step the space-time step at which it was reached,
// and Hops the number of transmissions from the source (the paper's
// path length minus one: the source tuple is hop zero).
type Path struct {
	Node trace.NodeID
	Step int
	Hops int

	parent *Path
}

// Parent returns the path prefix before the final hop, or nil for the
// source tuple.
func (p *Path) Parent() *Path { return p.parent }

// Contains reports whether node n appears anywhere on the path.
func (p *Path) Contains(n trace.NodeID) bool {
	for q := p; q != nil; q = q.parent {
		if q.Node == n {
			return true
		}
	}
	return false
}

// Nodes returns the node sequence from source to final node.
func (p *Path) Nodes() []trace.NodeID {
	n := p.Hops + 1
	out := make([]trace.NodeID, n)
	for q := p; q != nil; q = q.parent {
		n--
		out[n] = q.Node
	}
	return out
}

// AppendNodes appends the node sequence from source to final node to
// dst and returns the extended slice. It lets bulk path analyses reuse
// one buffer instead of allocating a fresh slice per path.
func (p *Path) AppendNodes(dst []trace.NodeID) []trace.NodeID {
	n := p.Hops + 1
	for i := 0; i < n; i++ {
		dst = append(dst, 0)
	}
	i := len(dst)
	for q := p; q != nil; q = q.parent {
		i--
		dst[i] = q.Node
	}
	return dst
}

// Steps returns the step at which each node on the path was reached,
// parallel to Nodes.
func (p *Path) Steps() []int {
	n := p.Hops + 1
	out := make([]int, n)
	for q := p; q != nil; q = q.parent {
		n--
		out[n] = q.Step
	}
	return out
}

// String renders the path as "src@step -> ... -> dst@step".
func (p *Path) String() string {
	nodes := p.Nodes()
	steps := p.Steps()
	s := ""
	for i := range nodes {
		if i > 0 {
			s += " -> "
		}
		s += fmt.Sprintf("%d@%d", nodes[i], steps[i])
	}
	return s
}

// extend creates the path p plus one hop to node n at step s.
func (p *Path) extend(n trace.NodeID, s int) *Path {
	return &Path{Node: n, Step: s, Hops: p.Hops + 1, parent: p}
}

// newSource creates the zero-hop path holding only the source tuple.
func newSource(n trace.NodeID, s int) *Path {
	return &Path{Node: n, Step: s}
}

// pnode is the arena-internal representation of one path tuple. It is
// deliberately pointer-free: the parent link is an arena index, so the
// garbage collector neither scans nor write-barriers the enumeration's
// path tree — the hot loop creates one pnode per table candidate and
// BFS extension, millions per message on a conference trace. Node,
// step and hop counts fit int32 comfortably (hops are bounded by the
// population size through the loop-freedom invariant). Path membership
// lives outside the tree, in one bitset row per table entry (see
// rowArena), so a pnode is 16 bytes.
type pnode struct {
	parent int32 // arena index of the prefix, -1 for the source tuple
	node   int32
	step   int32
	hops   int32
}

// pathArena is a chunked slab allocator for pnodes, indexed by a dense
// int32 handle. Arenas live in the enumerator's pooled scratch and are
// rewound between calls; arrival chains are materialized into public
// Path values before the rewind.
type pathArena struct {
	chunks [][]pnode
	n      int32 // pnodes allocated since the last reset

	// Fork state (zero on pooled arenas): chunks[:shared] belong to the
	// base arena and are read-only here; spare holds the chunks this
	// arena owned when it was forked, handed out again before any new
	// chunk is allocated.
	shared int
	spare  [][]pnode
}

// arenaShift sizes chunks at 1024 pnodes (16 KiB): well under typical
// L2, while making the per-pnode allocation cost ~1/1024 of a heap
// allocation.
const (
	arenaShift = 10
	arenaChunk = 1 << arenaShift
	arenaMask  = arenaChunk - 1
)

// at returns the pnode with handle i. The pointer stays valid across
// later allocations (chunks never move).
func (a *pathArena) at(i int32) *pnode {
	return &a.chunks[i>>arenaShift][i&arenaMask]
}

// alloc returns the handle and slot of a fresh pnode. The slot holds
// stale bytes from a previous rewind; callers overwrite it entirely.
func (a *pathArena) alloc() (int32, *pnode) {
	ci := int(a.n) >> arenaShift
	if ci == len(a.chunks) {
		if k := len(a.spare); k > 0 {
			a.chunks = append(a.chunks, a.spare[k-1])
			a.spare = a.spare[:k-1]
		} else {
			a.chunks = append(a.chunks, make([]pnode, arenaChunk))
		}
	}
	i := a.n
	a.n++
	return i, &a.chunks[ci][int(i)&arenaMask]
}

// source allocates the zero-hop path holding only the source tuple.
func (a *pathArena) source(n trace.NodeID, s int) int32 {
	i, p := a.alloc()
	*p = pnode{parent: -1, node: int32(n), step: int32(s)}
	return i
}

// extend allocates the path q plus one hop to node n at step s. The
// caller supplies q's hop count (already held in its BFS queue slot),
// so extending never loads the parent pnode.
func (a *pathArena) extend(q, qHops int32, n trace.NodeID, s int) int32 {
	i, p := a.alloc()
	*p = pnode{parent: q, node: int32(n), step: int32(s), hops: qHops + 1}
	return i
}

// forkFrom turns a, a pooled arena, into a layered fork of base:
// base's chunks become a shared read-only prefix — rounded up to a
// chunk boundary, so the base can later resume filling its partial
// tail chunk without the two ever writing the same slot — and a
// allocates beyond it, from its own former chunks (the spare list)
// first. Handles issued by the base stay valid in the fork. Batch
// enumeration uses this to continue one shared dynamic-program prefix
// independently per destination.
func (a *pathArena) forkFrom(base *pathArena) {
	a.spare = append(a.spare, a.chunks...)
	nChunks := (int(base.n) + arenaMask) >> arenaShift
	a.chunks = append(a.chunks[:0], base.chunks[:nChunks]...)
	a.n = int32(nChunks) << arenaShift
	a.shared = nChunks
}

// arenaRetainChunks caps the chunks an arena keeps across calls
// (~16 MB of pnodes). An explosion-scale enumeration can touch tens of
// millions of paths; retaining its full arena in the scratch pool
// would pin that peak forever, so overflow chunks are released to the
// garbage collector and reallocated (one allocation per 1024 pnodes)
// by the rare calls that need them again.
const arenaRetainChunks = 1024

// unfork turns a fork back into a pooled arena: the base's shared
// prefix is dropped from the chunk table, which then holds exactly the
// chunks the fork owns (its spares and its own allocations), and the
// arena is reset. The two slices swap backing arrays, so the chunk
// table and the spare list never share one.
func (a *pathArena) unfork() {
	a.spare = append(a.spare, a.chunks[a.shared:]...)
	clear(a.chunks)
	a.chunks, a.spare = a.spare, a.chunks[:0]
	a.shared = 0
	a.reset()
}

// reset rewinds the arena, keeping up to arenaRetainChunks chunks for
// reuse. Only valid once no handle issued since the last reset is
// referenced anymore.
func (a *pathArena) reset() {
	if len(a.chunks) > arenaRetainChunks {
		keep := make([][]pnode, arenaRetainChunks)
		copy(keep, a.chunks)
		a.chunks = keep
	}
	a.n = 0
}
