package pathenum

import "repro/internal/trace"

// Every resident table entry keeps its path's membership as one bitset
// row: ceil(n/64) uint64 words in a chunked slab, addressed by a dense
// int32 row handle carried in the entry. Membership — loop avoidance
// at the BFS root and first-preference pruning — is then one
// word-indexed bit test or a word-wise AND sweep, for every population
// size. Each entry owns its row exclusively from the moment the
// acceptance test admits it (the root's row copied, branch nodes OR-ed
// in), so dropped entries recycle their rows immediately.
//
// rowArena is the chunked slab holding the rows. Chunks hold
// rowChunkRows rows each, so handle arithmetic is two shifts; freed
// handles are recycled through a stack. A forked arena (batch
// enumeration) shares its base's chunks as a read-only prefix and
// allocates from the next chunk boundary; floor guards the free list
// so a fork never recycles rows it shares with the base, and unfork
// drops the prefix before the fork's scratch returns to the pool.
type rowArena struct {
	words  int32 // row width in uint64 words, ceil(numNodes/64)
	chunks [][]uint64
	n      int32 // rows ever allocated since reset (free list reuses)
	free   []int32
	floor  int32      // fork guard: handles below floor are shared, never freed
	spare  [][]uint64 // chunks owned before forkFrom, reused before new ones
}

const (
	rowShift     = 10
	rowChunkRows = 1 << rowShift
	rowMask      = rowChunkRows - 1
)

func (r *rowArena) row(h int32) []uint64 {
	off := (h & rowMask) * r.words
	return r.chunks[h>>rowShift][off : off+r.words]
}

// alloc returns a zeroed row handle.
func (r *rowArena) alloc() int32 {
	h := r.take()
	clear(r.row(h))
	return h
}

// allocCopy returns a fresh row handle and its words, initialized to a
// copy of src, skipping the zeroing alloc would do. This is the hot row
// operation: one per accepted candidate.
func (r *rowArena) allocCopy(src []uint64) (int32, []uint64) {
	h := r.take()
	row := r.row(h)
	copy(row, src)
	return h, row
}

// take returns a row handle with stale contents: the most recently
// freed one, else the next unused slot.
func (r *rowArena) take() int32 {
	if k := len(r.free); k > 0 {
		h := r.free[k-1]
		r.free = r.free[:k-1]
		return h
	}
	if int(r.n)>>rowShift == len(r.chunks) {
		r.growChunk()
	}
	h := r.n
	r.n++
	return h
}

// growChunk appends one chunk, recycling a spare when available.
func (r *rowArena) growChunk() {
	if k := len(r.spare); k > 0 {
		r.chunks = append(r.chunks, r.spare[k-1])
		r.spare = r.spare[:k-1]
		return
	}
	r.chunks = append(r.chunks, make([]uint64, rowChunkRows*int(r.words)))
}

// freeRow recycles a row. Handles below the fork floor are shared with
// the base arena and silently kept alive instead (the fork's reset
// reclaims everything anyway).
func (r *rowArena) freeRow(h int32) {
	if h >= r.floor {
		r.free = append(r.free, h)
	}
}

func (r *rowArena) set(h int32, n trace.NodeID) {
	r.row(h)[n>>6] |= 1 << (uint(n) & 63)
}

// forkFrom turns r, a pooled arena, into a layered fork of base:
// base's chunks become a shared read-only prefix and r allocates from
// the next chunk boundary, so the base can keep allocating into its
// own tail without the two ever writing the same slot. r's own former
// chunks move to the spare list and are used before new ones.
func (r *rowArena) forkFrom(base *rowArena) {
	r.spare = append(r.spare, r.chunks...)
	nChunks := (int(base.n) + rowMask) >> rowShift
	r.words = base.words
	r.chunks = append(r.chunks[:0], base.chunks[:nChunks]...)
	r.n = int32(nChunks) << rowShift
	r.free = r.free[:0]
	r.floor = r.n
}

// unfork turns a fork back into a pooled arena: the base's chunks
// below floor are dropped from the chunk table, which then holds
// exactly the chunks the fork owns, and the arena is reset. As in
// pathArena.unfork, the chunk table and the spare list swap backing
// arrays and never share one.
func (r *rowArena) unfork() {
	r.spare = append(r.spare, r.chunks[r.floor>>rowShift:]...)
	clear(r.chunks)
	r.chunks, r.spare = r.spare, r.chunks[:0]
	r.reset()
}

// reset rewinds the arena for the next enumeration, keeping up to
// ~32 MB of row chunks for reuse: chunks beyond the cap are released
// to the garbage collector.
func (r *rowArena) reset() {
	if maxRetain := int(4096 / r.words); len(r.chunks) > maxRetain {
		keep := make([][]uint64, maxRetain)
		copy(keep, r.chunks)
		r.chunks = keep
	}
	r.n = 0
	r.free = r.free[:0]
	r.floor = 0
}
