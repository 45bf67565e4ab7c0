package pathenum

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/trace"
)

// EnumerateAll enumerates a batch of messages over the shared
// space-time graph, using up to Options.Workers goroutines (zero means
// runtime.GOMAXPROCS(0); 1 forces a serial batch).
//
// Messages sharing a source and a start step — Delta and K are fixed
// per enumerator — run one shared dynamic program: until a
// destination's first contact the program cannot see the destination
// at all, so the group advances a destination-free prefix once and
// forks a private continuation (tables copied, path and row arenas
// layered copy-on-write) per destination at the step it first comes
// up; the last destination continues on the prefix itself. The
// grouping serves /enumerate's batch class, eight destinations from
// one source at time 0 (an eighth of psn-load's mix): with one group
// per message instead, the benchmark's serve workload answered 13%
// fewer requests per second. No figure enumerates a shared group.
// Batches of unrelated messages degenerate to independent
// enumerations, one group each, exactly as Enumerate runs a message.
//
// Results are returned in message order and are byte-identical to
// independent Enumerate calls, for every worker count and grouping:
// each continuation replays exactly the steps a fresh dynamic program
// would run, and enumeration before a destination's first contact is
// destination-independent. On failure EnumerateAll reports
// the error of the lowest-index invalid message — exactly what a
// serial loop would have hit first; messages are validated up front,
// so no enumeration runs on a batch with any invalid message.
//
// cx carries the caller's cancellation token and stage trace; nil is
// inert. The shared destination-free prefix advances accumulate under
// obs.StageEnumPrefix and the per-destination continuations under
// obs.StageEnumFork; a lone message is a group of one, its steps
// before the destination's first contact timed as prefix. Groups run
// concurrently, so the trace sums wall time across workers. Every
// group's dynamic program polls the token at every step boundary and
// every few hundred extension roots; once it fires the batch abandons:
// in-flight groups stop at their next checkpoint, queued groups return
// immediately, and the call reports a *engine.CanceledError with no
// results.
func (e *Enumerator) EnumerateAll(msgs []Message, cx *engine.Ctx) ([]*Result, error) {
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
		if cx.Stopped() {
			// Shed queued groups without spinning up their dynamic
			// programs; groups already running stop at their own
			// checkpoints.
			return cx.FiredErr()
		}
		k := order[gi]
		return e.enumerateGroup(k.src, k.s0, groups[k], msgs, out, cx)
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
// destination live. The last destination continues on the prefix's
// own scratch instead: nothing steps the prefix after it, so a group
// of one never forks. Forks run strictly one at a time, so the layered
// arenas never race the base; results are materialized out of each
// fork before the next advances the base. A fired cx abandons the
// group at the next checkpoint (prefix or fork alike): step reports
// "finished", and a re-poll of cx tells that from a real finish. The
// group then returns a *engine.CanceledError; results already
// materialized into out stay — the batch call discards them.
func (e *Enumerator) enumerateGroup(src trace.NodeID, s0 int, idxs []int, msgs []Message, out []*Result, cx *engine.Ctx) error {
	type job struct {
		mi int // index into msgs/out
		fa int // first step >= s0 at which the destination has contacts
	}
	// A constant capacity keeps small groups' jobs off the heap.
	jobs := make([]job, 0, 8)
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
	slices.SortStableFunc(jobs, func(a, b job) int { return cmp.Compare(a.fa, b.fa) })

	sp := cx.Start(obs.StageEnumPrefix)
	sc0 := e.getScratch()
	sc0.prepare()
	sc0.cx = cx
	e.seed(sc0, src, s0)
	sp.End()
	// Destination-free steps record no arrivals and never finish —
	// the result sink is never written and step only reports true on
	// cancellation; see step.
	sink := &Result{}
	cur := s0
	var fk *scratch
	for ji, j := range jobs {
		sp = cx.Start(obs.StageEnumPrefix)
		for ; cur < j.fa; cur++ {
			if e.step(sc0, cur, -1, sink) {
				break
			}
		}
		sp.End()
		if cx.Stopped() {
			break
		}
		sp = cx.Start(obs.StageEnumFork)
		sc := sc0
		if ji < len(jobs)-1 {
			fk = e.forkScratch(sc0, fk)
			sc = fk
		}
		res := &Result{Msg: msgs[j.mi], Delta: e.g.Delta}
		for s := cur; s < e.g.Steps; s++ {
			if e.step(sc, s, msgs[j.mi].Dst, res) {
				break
			}
		}
		if cx.Stopped() {
			sp.End()
			break
		}
		materializeArrivals(sc, res)
		out[j.mi] = res
		sp.End()
	}
	// The forks' layered arenas aliased sc0's chunks, but every fork is
	// dead (its arrivals materialized or abandoned) by now, so pooling
	// sc0 is safe.
	sc0.cx = nil
	e.pool.Put(sc0)
	if cx.Stopped() {
		return cx.FiredErr()
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
		// An arrival cap stop can abandon the previous job mid-step;
		// clean the histogram state and candidates it left behind. The
		// visited epoch marks stay — epochs only ever increase.
		sc.clearHists()
		for i := range sc.cands {
			sc.cands[i] = sc.cands[i][:0]
		}
		sc.arrivals = sc.arrivals[:0]
	}
	// Forks poll the group's token.
	sc.cx = base.cx
	copy(sc.bound, base.bound)
	copy(sc.stamp, base.stamp)
	for i, t := range base.table {
		sc.table[i] = append(sc.table[i][:0], t...)
	}
	sc.arena.forkFrom(&base.arena)
	sc.rows.forkFrom(&base.rows)
	return sc
}
