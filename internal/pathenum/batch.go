package pathenum

import (
	"fmt"
	"sort"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/trace"
)

// EnumerateAll enumerates a batch of messages over the shared
// space-time graph, using up to Options.Workers goroutines (zero means
// runtime.GOMAXPROCS(0); 1 forces a serial batch).
//
// Messages sharing a source and a start step — Delta, K and the other
// options are fixed per enumerator — run one shared dynamic program:
// until a destination's first contact the program cannot see the
// destination at all, so the group advances a destination-free prefix
// once and forks a private continuation (tables copied, path and row
// arenas layered copy-on-write) per destination at the step it first
// comes up. The paper's Fig 10/13 sweeps enumerate every destination
// for one source and start, which turns their per-message cost into
// per-group cost; batches of unrelated messages degenerate to
// independent enumerations, one group each.
//
// Results are returned in message order and are byte-identical to
// independent Enumerate calls, for every worker count and grouping:
// each forked continuation replays exactly the steps a fresh dynamic
// program would run, and enumeration before a destination's first
// contact is destination-independent. On failure EnumerateAll reports
// the error of the lowest-index invalid message — exactly what a
// serial loop would have hit first; messages are validated up front,
// so no enumeration runs on a batch with any invalid message.
func (e *Enumerator) EnumerateAll(msgs []Message) ([]*Result, error) {
	return e.EnumerateAllCancel(msgs, nil, nil)
}

// EnumerateAllCancel is EnumerateAll with stage spans recorded into ot
// and a cooperative cancellation token threaded into every group's
// dynamic program, which polls it at every step boundary and every few
// hundred extension roots. The shared destination-free prefix advances
// accumulate under obs.StageEnumPrefix and the
// per-destination continuations — forked off a prefix, or whole
// single-message enumerations for ungrouped messages — under
// obs.StageEnumFork. Groups run concurrently, so the trace's atomic
// accumulation sums wall time across workers. A nil ot costs one
// pointer check per phase boundary. Once cc fires the batch abandons:
// in-flight groups stop at their next checkpoint, queued groups return
// immediately, and the call reports a *engine.CanceledError with no
// results. A nil cc — what EnumerateAll passes — is inert.
func (e *Enumerator) EnumerateAllCancel(msgs []Message, ot *obs.Trace, cc *engine.Cancel) ([]*Result, error) {
	for i := range msgs {
		if err := e.validateMessage(msgs[i]); err != nil {
			return nil, fmt.Errorf("message %d: %w", i, err)
		}
	}
	// Group by (source, start step) in first-appearance order. The
	// dynamic program depends on the start time only through its step,
	// so messages differing within one step still share fully.
	type gkey struct {
		src trace.NodeID
		s0  int
	}
	order := make([]gkey, 0, len(msgs))
	groups := make(map[gkey][]int, len(msgs))
	for i, m := range msgs {
		k := gkey{m.Src, e.g.StepOf(m.Start)}
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], i)
	}
	out := make([]*Result, len(msgs))
	err := engine.MapErr(e.opt.Workers, len(order), func(gi int) error {
		if cc.Stopped() {
			// Shed queued groups without spinning up their dynamic
			// programs; groups already running stop at their own
			// checkpoints.
			return cc.FiredErr()
		}
		k := order[gi]
		idxs := groups[k]
		if len(idxs) == 1 {
			// Nothing to share: the plain pooled-scratch path. The whole
			// run is one private continuation with an empty prefix.
			sp := ot.Start(obs.StageEnumFork)
			r, err := e.enumerate(msgs[idxs[0]], cc)
			sp.End()
			if err != nil {
				if engine.IsCanceled(err) {
					return err
				}
				return fmt.Errorf("message %d: %w", idxs[0], err)
			}
			out[idxs[0]] = r
			return nil
		}
		return e.enumerateGroup(k.src, k.s0, idxs, msgs, out, ot, cc)
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// enumerateGroup enumerates the messages at idxs — all sharing source
// src and start step s0 — through one shared dynamic-program prefix.
// Destinations are processed in order of their first contact step: the
// shared scratch advances destination-free to just before that step,
// is forked, and the fork runs the remaining steps with the
// destination live. Forks run strictly one at a time, so the layered
// arenas never race the base; results are materialized out of each
// fork before the next advances the base. A fired cc abandons the
// group at the next checkpoint (prefix or fork alike) and returns a
// *engine.CanceledError; results already materialized into out stay —
// the batch call discards them.
func (e *Enumerator) enumerateGroup(src trace.NodeID, s0 int, idxs []int, msgs []Message, out []*Result, ot *obs.Trace, cc *engine.Cancel) error {
	type job struct {
		mi int // index into msgs/out
		fa int // first step >= s0 at which the destination has contacts
	}
	jobs := make([]job, 0, len(idxs))
	for _, mi := range idxs {
		fa, ok := e.firstActive(msgs[mi].Dst, s0)
		if !ok {
			// The destination never comes up after the start: no path
			// can deliver, and the dynamic program cannot stop early
			// without arrivals — the empty result needs no steps.
			out[mi] = &Result{Msg: msgs[mi], Delta: e.g.Delta}
			continue
		}
		jobs = append(jobs, job{mi: mi, fa: fa})
	}
	if len(jobs) == 0 {
		return nil
	}
	sort.Slice(jobs, func(a, b int) bool { return jobs[a].fa < jobs[b].fa })

	sp := ot.Start(obs.StageEnumPrefix)
	sc0 := e.getScratch()
	sc0.prepare()
	sc0.cancel = cc
	e.seed(sc0, src, s0)
	sp.End()
	// Destination-free steps record no arrivals and never finish —
	// the result sink is never written and step only reports true on
	// cancellation; see step.
	sink := &Result{}
	cur := s0
	var fk *scratch
	for _, j := range jobs {
		sp = ot.Start(obs.StageEnumPrefix)
		for ; cur < j.fa; cur++ {
			if e.step(sc0, cur, -1, sink) {
				break
			}
		}
		sp.End()
		if sc0.canceled {
			break
		}
		sp = ot.Start(obs.StageEnumFork)
		fk = e.forkScratch(sc0, fk)
		res := &Result{Msg: msgs[j.mi], Delta: e.g.Delta}
		for s := cur; s < e.g.Steps; s++ {
			if e.step(fk, s, msgs[j.mi].Dst, res) {
				break
			}
		}
		if fk.canceled {
			sp.End()
			break
		}
		materializeArrivals(fk, res)
		out[j.mi] = res
		sp.End()
	}
	canceled := sc0.canceled || (fk != nil && fk.canceled)
	// The forks' layered arenas aliased sc0's chunks, but every fork is
	// dead (its arrivals materialized or abandoned) by now, so pooling
	// sc0 is safe.
	sc0.cancel = nil
	e.pool.Put(sc0)
	if canceled {
		return cc.FiredErr()
	}
	return nil
}

// firstActive returns the first step at or after s0 in which node d
// has at least one contact, or ok=false if it never does again. Before
// that step the dynamic program cannot mention d: no arrivals, no
// first-preference pruning, no destination component — which is what
// makes the group prefix shareable.
func (e *Enumerator) firstActive(d trace.NodeID, s0 int) (int, bool) {
	for s := s0; s < e.g.Steps; s++ {
		if len(e.g.Neighbors(s, d)) > 0 {
			return s, true
		}
	}
	return 0, false
}

// forkScratch builds a private continuation of base at a step
// boundary: tables deep-copied, acceptance bounds and table stamps
// carried over, path and row arenas layered copy-on-write (see
// pathArena.forkFrom / rowArena.forkFrom), everything per-step reset.
// Forks never enter the scratch pool, since their arenas alias the
// base's chunks, and must not outlive the base's next step; passing
// the previous job's fork as reuse recycles its allocations — tables,
// histograms, and the arena chunks it had appended itself — instead of
// leaving a full enumeration's scratch to the garbage collector per
// destination.
func (e *Enumerator) forkScratch(base, reuse *scratch) *scratch {
	sc := reuse
	if sc == nil {
		sc = newScratch(e.tr.NumNodes)
	} else {
		// A MaxArrivals stop can abandon the previous job mid-step;
		// clean the histogram state and candidates it left behind. The
		// visited epoch marks stay — epochs only ever increase.
		sc.clearHists()
		for i := range sc.cands {
			sc.cands[i] = sc.cands[i][:0]
		}
		sc.arrivals = sc.arrivals[:0]
	}
	// Forks poll the group's token; a reused fork may have been
	// abandoned canceled, but then the group stops before forking again,
	// so resetting the flag here is only for symmetry.
	sc.cancel = base.cancel
	sc.canceled = false
	copy(sc.bound, base.bound)
	copy(sc.stamp, base.stamp)
	for i, t := range base.table {
		sc.table[i] = append(sc.table[i][:0], t...)
	}
	sc.arena.forkFrom(&base.arena)
	sc.rows.forkFrom(&base.rows)
	return sc
}
