package service

import (
	"container/list"
	"fmt"
	"sync"

	"repro/internal/engine"
)

// memoMap is a size-bounded singleflight LRU. The server keeps one for
// memoized results (marshaled response bytes keyed by canonical
// request) and one per artifact kind (graphs, enumerators, sweeps).
// Several key dimensions (delta, enumeration budgets) come straight
// from request parameters, so the map must not grow with the set of
// distinct values clients send: beyond max entries the least recently
// used entry is evicted and recomputed on its next request (in-flight
// users keep their reference; the GC reclaims it when the last one
// drops). A map built by newSizedMemoMap also weighs every value it
// keeps and evicts least recently used entries while their total
// exceeds its byte budget; a value heavier than the whole budget is
// returned to its callers but never kept. The mutex guards only the
// lookup, recency bookkeeping and counters; computations for distinct
// keys run in parallel, and an entry evicted mid-computation simply
// finishes for its waiters. Values must be immutable once returned.
//
// Singleflight is a done channel rather than a sync.Once so waiters
// can respect their own cancellation token: the entry's creator (the
// leader) computes synchronously and closes done; every other caller
// for the same key waits via cx.Wait, abandoning the wait — but never
// the leader's computation, which finishes for whoever remains — when
// its request deadline fires or its client disconnects.
type memoMap[K comparable, V any] struct {
	mu    sync.Mutex
	max   int        // entry bound; <= 0 means compute on every call
	order *list.List // front = most recently used; values are *memoEntry[K, V]
	byKey map[K]*list.Element

	size     func(V) int // weighs a value; nil means entries are unweighed
	maxBytes int         // budget for the kept values' total size
	bytes    int         // total size of the kept values

	hits, misses int64
}

type memoEntry[K comparable, V any] struct {
	key  K
	done chan struct{} // closed once val/err are set
	val  V
	err  error
	size int // val's weight, counted in bytes once filled
}

func newMemoMap[K comparable, V any](max int) *memoMap[K, V] {
	return &memoMap[K, V]{max: max, order: list.New(), byKey: make(map[K]*list.Element)}
}

// newSizedMemoMap is newMemoMap with a byte budget: size weighs each
// value, and the map keeps at most maxBytes of them.
func newSizedMemoMap[K comparable, V any](max, maxBytes int, size func(V) int) *memoMap[K, V] {
	c := newMemoMap[K, V](max)
	c.size, c.maxBytes = size, maxBytes
	return c
}

// get returns the value for k, computing it at most once while cached.
// The first caller for an uncached key computes f with its own token
// live inside; later callers block on that computation via cx.Wait and
// return their own *engine.CanceledError if cx fires first. Errors are
// not pinned: the leader drops a failed entry before publishing it, so
// the next request recomputes.
func (c *memoMap[K, V]) get(cx *engine.Ctx, k K, f func() (V, error)) (V, error) {
	if c.max <= 0 {
		return f()
	}
	c.mu.Lock()
	var e *memoEntry[K, V]
	leader := false
	if el, ok := c.byKey[k]; ok {
		c.order.MoveToFront(el)
		c.hits++
		e = el.Value.(*memoEntry[K, V])
	} else {
		c.misses++
		e = &memoEntry[K, V]{key: k, done: make(chan struct{})}
		c.byKey[k] = c.order.PushFront(e)
		leader = true
		for c.order.Len() > c.max {
			c.remove(c.order.Back())
		}
	}
	c.mu.Unlock()

	if leader {
		c.fill(e, f)
	} else if err := cx.Wait(e.done); err != nil {
		var zero V
		return zero, err
	}
	return e.val, e.err
}

// fill runs the leader's computation and publishes it by closing done,
// even if f panics: the panic becomes the entry's error, so waiters
// fail cleanly instead of hanging on a channel nobody will close, and
// is then re-raised for the leader's own recovery middleware. A failed
// entry (a transient build error, a build the leader abandoned at a
// cancellation checkpoint, or a panic) is dropped before done closes,
// so no later caller can join it. A successful fill of a sized map is
// weighed here, evicting from the back while the budget is exceeded.
func (c *memoMap[K, V]) fill(e *memoEntry[K, V], f func() (V, error)) {
	defer func() {
		r := recover()
		if r != nil {
			e.err = fmt.Errorf("service: panic during cache fill: %v", r)
		}
		c.mu.Lock()
		if cur, ok := c.byKey[e.key]; ok && cur.Value.(*memoEntry[K, V]) == e {
			switch {
			case e.err != nil:
				c.remove(cur)
			case c.size != nil:
				if n := c.size(e.val); n > c.maxBytes {
					c.remove(cur) // answered, never kept
				} else {
					e.size = n
					c.bytes += n
					for c.bytes > c.maxBytes {
						c.remove(c.order.Back())
					}
				}
			}
		}
		c.mu.Unlock()
		close(e.done)
		if r != nil {
			panic(r)
		}
	}()
	e.val, e.err = f()
}

// remove drops a listed entry and its weight. c.mu must be held.
func (c *memoMap[K, V]) remove(el *list.Element) {
	e := c.order.Remove(el).(*memoEntry[K, V])
	delete(c.byKey, e.key)
	c.bytes -= e.size
}

// stats returns the hit/miss counters and current entry count.
func (c *memoMap[K, V]) stats() (hits, misses int64, entries int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.order.Len()
}
