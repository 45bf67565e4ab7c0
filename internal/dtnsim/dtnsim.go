// Package dtnsim is the trace-driven DTN simulator of the paper's §6:
// it replays a contact trace, injects a Poisson message workload
// (one message per 4 seconds over the first two hours, endpoints
// uniform at random), runs a forwarding algorithm with infinite
// buffers and zero transmission time, and reports success rate S and
// average delay D — overall and split by in/out pair type.
//
// Semantics follow §4.1: minimal progress (any holder meeting the
// destination delivers immediately), store-and-forward with instant
// in-component propagation (a message received mid-contact can
// immediately traverse the holder's other live contacts), and
// replication by default (a forwarding node keeps its copy; the paper
// models nodes that never discard messages).
//
// The hot path is allocation-free in steady state: per-worker
// simulation state (the contact View, per-message hop/copy slabs, the
// live-message index, spread queues, event buffers) lives in pooled
// scratch that a Sweep resets and reuses across runs, so a multi-run
// parameter sweep pays the oracle tables and the event-sort once and
// each additional run costs only the replay itself plus one Outcome
// slice for its results.
//
// The replay itself is bitset-indexed: each node carries a dense
// bitset of the messages it holds, so the per-contact search for
// messages that can act is one XOR-and-mask sweep over a few machine
// words — a message held by both endpoints, by neither, or already
// delivered costs nothing — instead of a per-message scan.
package dtnsim

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"runtime"
	"slices"
	"sync"

	"repro/internal/engine"
	"repro/internal/forward"
	"repro/internal/obs"
	"repro/internal/trace"
)

// Message is one unicast message to be delivered.
type Message struct {
	Src, Dst trace.NodeID
	Start    float64
}

// CopyMode selects what happens to the holder's copy on a forward.
type CopyMode int

const (
	// Replicate keeps the holder's copy (the paper's model: nodes hold
	// every message until the end of the simulation).
	Replicate CopyMode = iota
	// Relay hands the single copy over (single-copy ablation AB3).
	Relay
)

func (m CopyMode) String() string {
	if m == Relay {
		return "relay"
	}
	return "replicate"
}

// Config parametrizes one simulation run.
type Config struct {
	Trace     *trace.Trace
	Algorithm forward.Algorithm
	Messages  []Message
	CopyMode  CopyMode

	// Workers caps the number of shards replaying the contact stream
	// concurrently, at most one per message. Zero means
	// runtime.GOMAXPROCS(0); 1 runs one shard on the calling
	// goroutine. Messages are independent (infinite buffers, zero
	// transmission time), so the per-message outcomes — and the
	// aggregate Result — are byte-identical for every worker count;
	// each shard replays its own clone of a forward.Stateful algorithm.
	Workers int

	// Ctx optionally carries the caller's cancellation token and
	// stage trace into the run. Sweep.Run records the replay under
	// obs.StageSimRun. Every shard polls the token at entry and a few
	// thousand events apart and, once it fires, the run abandons with
	// a *engine.CanceledError and no Result. Nil is inert, and a token
	// that never fires leaves the Result byte-identical.
	Ctx *engine.Ctx
}

// Oracle bundles the read-only per-trace tables a simulation replays:
// whole-trace contact totals, the O(n³) MEED distance metric, and the
// sorted contact event stream. Run derives them on every call; callers
// simulating one trace many times (parameter sweeps, a serving layer)
// build the Oracle once — or better, a Sweep, which also pools the
// mutable per-run state — and share it: it is immutable once built and
// safe for concurrent use across simulations.
//
// The MEED matrix is computed lazily, once, on the first MEEDDistance
// read of any run (views install the oracle with a resolver): the
// Floyd-Warshall closure is cubic in the population, which city-scale
// traces cannot afford to pay for algorithms — epidemic floods,
// encounter gradients — that never look at it. forward.MEEDDistances
// relaxes only the upper triangle of the symmetric matrix and, from a
// few hundred nodes on, splits each pivot's rows across GOMAXPROCS
// goroutines; its result is bit-identical to a serial full-matrix
// closure. Runs are byte-identical either way; the table is a pure
// function of the trace.
type Oracle struct {
	tr     *trace.Trace
	totals []int
	events []event

	meedOnce sync.Once
	meed     *forward.DistMatrix
}

// newOracle precomputes the simulation tables for tr.
func newOracle(tr *trace.Trace) *Oracle {
	return &Oracle{
		tr:     tr,
		totals: tr.ContactCounts(),
		events: contactEventList(tr),
	}
}

// MEED returns the oracle's expected-delay distance matrix, computing
// it on first use. Safe for concurrent callers.
func (o *Oracle) MEED() *forward.DistMatrix {
	o.meedOnce.Do(func() { o.meed = forward.MEEDDistances(o.tr) })
	return o.meed
}

// Outcome records the fate of one message.
type Outcome struct {
	Msg       Message
	Delivered bool
	Delay     float64 // first-delivery latency (valid when Delivered)
	Hops      int     // transmissions on the delivering copy's path
}

// Result aggregates a run.
type Result struct {
	Algorithm string
	Outcomes  []Outcome

	// Transmissions counts every message copy handed between nodes
	// (including final deliveries). The paper leaves forwarding cost
	// as future work (§7); this is the natural cost metric for
	// comparing algorithms that achieve similar delay and success.
	Transmissions int
}

// Run simulates cfg and returns per-message outcomes: NewSweep over
// cfg.Trace, then one Sweep.Run. Every call derives the read-only
// trace tables; use a Sweep to amortize them — and the pooled
// per-shard state — across many runs of one trace.
func Run(cfg Config) (*Result, error) {
	sw, err := NewSweep(cfg.Trace)
	if err != nil {
		return nil, err
	}
	return sw.Run(cfg)
}

// Sweep amortizes shared work across many simulation runs over one
// trace: the oracle tables (whole-trace contact totals, the O(n³)
// MEED metric, the time-sorted contact event stream) are built once,
// and the mutable per-worker simulation state is pooled and reset
// between runs instead of reallocated. A Sweep is safe for concurrent
// use; runs through a Sweep are byte-identical to plain Run calls.
type Sweep struct {
	tr     *trace.Trace
	oracle *Oracle

	mu      sync.Mutex
	free    *sim // pooled sims, linked through sim.next (no allocation)
	pooled  int
	poolCap int
}

// NewSweep prepares a sweep over tr, precomputing the oracle tables.
func NewSweep(tr *trace.Trace) (*Sweep, error) {
	if tr == nil {
		return nil, fmt.Errorf("dtnsim: nil trace")
	}
	return &Sweep{
		tr:      tr,
		oracle:  newOracle(tr),
		poolCap: max(4, runtime.GOMAXPROCS(0)),
	}, nil
}

// Trace returns the sweep's trace.
func (sw *Sweep) Trace() *trace.Trace { return sw.tr }

// Oracle returns the sweep's precomputed tables.
func (sw *Sweep) Oracle() *Oracle { return sw.oracle }

// Run simulates one configuration of the sweep's trace. cfg.Trace may
// be left nil (it defaults to the sweep's); when set it must match the
// sweep. The messages fan out in strided shards: shard w of W owns
// messages w, w+W, … Each shard replays the full contact stream into
// its own pooled View and its own forward.Instance of the algorithm,
// so every message sees exactly the state an unsharded run would show
// it; outcomes land at their global index and transmission counts add
// up. engine.MapWorkers supplies the fan-out, so a shard panic on a
// worker goroutine is re-raised on this one instead of killing the
// process; a single shard runs inline. The replay, not the oracle
// build in NewSweep, is recorded under obs.StageSimRun on cfg.Ctx.
func (sw *Sweep) Run(cfg Config) (*Result, error) {
	if cfg.Trace != nil && cfg.Trace != sw.tr {
		return nil, fmt.Errorf("dtnsim: sweep run with a different trace")
	}
	if cfg.Algorithm == nil {
		return nil, fmt.Errorf("dtnsim: nil algorithm")
	}
	tr := sw.tr
	// Node ids and copy counts are packed into int16 (events, copy
	// slab); reject what would wrap before replaying anything.
	if tr.NumNodes > maxPopulation {
		return nil, fmt.Errorf("dtnsim: %d nodes exceed the simulator's %d-node limit", tr.NumNodes, maxPopulation)
	}
	if cb, ok := cfg.Algorithm.(forward.CopyBudget); ok && cb.InitialCopies() > math.MaxInt16 {
		return nil, fmt.Errorf("dtnsim: copy budget %d exceeds %d", cb.InitialCopies(), math.MaxInt16)
	}
	for i, m := range cfg.Messages {
		if m.Src < 0 || int(m.Src) >= tr.NumNodes || m.Dst < 0 || int(m.Dst) >= tr.NumNodes {
			return nil, fmt.Errorf("dtnsim: message %d endpoints out of range", i)
		}
		if m.Src == m.Dst {
			return nil, fmt.Errorf("dtnsim: message %d has equal endpoints", i)
		}
		if m.Start < 0 || m.Start >= tr.Horizon {
			return nil, fmt.Errorf("dtnsim: message %d start %g outside trace", i, m.Start)
		}
	}

	sp := cfg.Ctx.Start(obs.StageSimRun)
	workers := max(1, min(engine.Workers(cfg.Workers), len(cfg.Messages)))
	outcomes := make([]Outcome, len(cfg.Messages))
	sims := sw.acquire(workers)
	engine.MapWorkers(workers, workers, func(_, w int) {
		s := sims[w]
		s.reset(forward.Instance(cfg.Algorithm), cfg.CopyMode, sw.oracle, cfg.Messages, w, workers, outcomes)
		s.cx = cfg.Ctx
		s.run(sw.oracle.events)
	})
	total := 0
	for _, s := range sims {
		total += s.sent
	}
	sw.release(sims...)
	sp.End()
	if cfg.Ctx.Stopped() {
		return nil, cfg.Ctx.FiredErr()
	}
	return &Result{Algorithm: cfg.Algorithm.Name(), Outcomes: outcomes, Transmissions: total}, nil
}

// acquire takes n pooled sims, allocating the shortfall.
func (sw *Sweep) acquire(n int) []*sim {
	out := make([]*sim, n)
	sw.mu.Lock()
	for i := 0; i < n && sw.free != nil; i++ {
		out[i], sw.free = sw.free, sw.free.next
		out[i].next = nil
		sw.pooled--
	}
	sw.mu.Unlock()
	for i := range out {
		if out[i] == nil {
			out[i] = &sim{}
		}
	}
	return out
}

// release returns sims to the pool, dropping any beyond the retention
// cap (their scratch is rebuilt on a later acquire if ever needed).
// Caller-owned references — the run's message and outcome slices and
// its algorithm instance — are dropped so a long-lived pooled sim
// (e.g. in a server's cached Sweep) cannot pin them between runs.
func (sw *Sweep) release(sims ...*sim) {
	sw.mu.Lock()
	for _, s := range sims {
		s.alg, s.obs = nil, nil
		s.cx = nil
		s.messages, s.outcomes = nil, nil
		if sw.pooled < sw.poolCap {
			s.next, sw.free = sw.free, s
			sw.pooled++
		}
	}
	sw.mu.Unlock()
}

// contactEventList builds the trace's contact start/end events, sorted
// once and shared read-only by every shard. Contacts are stored sorted
// by start time (a trace.New invariant), so the start events are
// already in order and only the end events need sorting; a linear merge
// then produces exactly the (time, kind, seq) order sortEvents defines,
// at roughly half the comparison cost of sorting the full stream.
func contactEventList(tr *trace.Trace) []event {
	cs := tr.Contacts()
	buf := make([]event, 2*len(cs))
	starts, ends := buf[:len(cs)], buf[len(cs):]
	for i, c := range cs {
		starts[i] = event{time: c.Start, kind: evContactStart, a: int16(c.A), b: int16(c.B), seq: int32(2 * i)}
		ends[i] = event{time: c.End, kind: evContactEnd, a: int16(c.A), b: int16(c.B), seq: int32(2*i + 1)}
	}
	slices.SortFunc(ends, func(a, b event) int {
		switch {
		case a.time != b.time:
			if a.time < b.time {
				return -1
			}
			return 1
		default:
			return int(a.seq) - int(b.seq)
		}
	})
	events := make([]event, 0, 2*len(cs))
	i, j := 0, 0
	for i < len(starts) || j < len(ends) {
		// At equal times starts precede ends (kind order); within one
		// list the seq tiebreak is already established.
		if j >= len(ends) || (i < len(starts) && starts[i].time <= ends[j].time) {
			events = append(events, starts[i])
			i++
		} else {
			events = append(events, ends[j])
			j++
		}
	}
	return events
}

// sortEvents orders events by (time, kind, seq). The seq tiebreak —
// position in the pre-sort build order — makes the comparison a total
// order, so a fast unstable sort reproduces exactly what a stable
// (time, kind) sort produces.
func sortEvents(events []event) {
	slices.SortFunc(events, func(a, b event) int {
		switch {
		case a.time != b.time:
			if a.time < b.time {
				return -1
			}
			return 1
		case a.kind != b.kind:
			return int(a.kind) - int(b.kind)
		default:
			return int(a.seq) - int(b.seq)
		}
	})
}

// event kinds, processed in time order; at equal times contact starts
// precede message creations (a message created at the instant a
// contact begins may use it), and ends come last.
type eventKind int8

const (
	evContactStart eventKind = iota
	evMsgCreate
	evContactEnd
)

// maxPopulation is the largest population the simulator replays: node
// ids must fit the int16 endpoints of an event.
const maxPopulation = math.MaxInt16 + 1

// event is one point of the replay timeline, packed to keep the shared
// stream cache-resident (24 bytes; node ids fit int16 under
// maxPopulation, which Sweep.Run enforces).
type event struct {
	time float64
	kind eventKind
	a, b int16 // contact endpoints
	msg  int32 // shard-local message index
	seq  int32 // position in the pre-sort build order (sort tiebreak)
}

// eventBefore is the sortEvents order. The merge in sim.run compares
// only across event lists whose ties never share a kind, so the seq
// tiebreak is never consulted there and the merge stays stable.
func eventBefore(a, b event) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	if a.kind != b.kind {
		return a.kind < b.kind
	}
	return a.seq < b.seq
}

// Holder sets are rows of a dense strided slab, ceil(n/64) words per
// message, so any population size works with the same word operations.
func rowHas(row []uint64, n trace.NodeID) bool { return row[n>>6]&(1<<(uint(n)&63)) != 0 }
func rowAdd(row []uint64, n trace.NodeID)      { row[n>>6] |= 1 << (uint(n) & 63) }
func rowRemove(row []uint64, n trace.NodeID)   { row[n>>6] &^= 1 << (uint(n) & 63) }

// msgState is one message's mutable state; its holder bitset lives in
// the sim's dense holders slab, and its per-node hop and copy counters
// live in the shared hop/copy slabs (rows of n entries) — no
// per-message heap allocations anywhere.
type msgState struct {
	msg       Message
	global    int32 // index into the run's outcomes slice
	delivered bool
	created   bool
}

// liveSet is a dense bitset over shard-local message ids — the set of
// live (created, undelivered) messages. Iteration (word-and-mask
// sweeps in the simulator, Each here) runs in ascending id order,
// deterministic and allocation-free; add, remove and has are O(1) bit
// operations.
type liveSet struct {
	words []uint64
}

// reset sizes the set for n message ids, none live.
func (l *liveSet) reset(n int) {
	l.words = growWiped(l.words, (n+63)/64)
}

func (l *liveSet) add(id int)      { l.words[id>>6] |= 1 << (uint(id) & 63) }
func (l *liveSet) remove(id int)   { l.words[id>>6] &^= 1 << (uint(id) & 63) }
func (l *liveSet) has(id int) bool { return l.words[id>>6]&(1<<(uint(id)&63)) != 0 }

// count returns the number of live messages.
func (l *liveSet) count() int {
	n := 0
	for _, w := range l.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Each calls fn for every live id in ascending order. fn may remove
// the id it is passed (but no other).
func (l *liveSet) Each(fn func(id int)) {
	for w, word := range l.words {
		for word != 0 {
			fn(w<<6 + bits.TrailingZeros64(word))
			word &= word - 1
		}
	}
}

// sim is one worker's reusable simulation state: everything sized by
// the population or the message shard lives in buffers that reset
// reslices and wipes instead of reallocating.
type sim struct {
	alg      forward.Algorithm
	mode     CopyMode
	view     *forward.View
	idleView *forward.View // parked view while a flooding run needs none
	obs      forward.Stateful
	sprayL   int  // 0 when the algorithm has no copy budget
	floods   bool // algorithm always consents (forward.Flooder)
	fwdAll   bool // floods and no copy budget: every forward check passes
	n        int

	open    [][]trace.NodeID // per-node open contacts (multiset)
	msgs    []msgState       // shard-local message states
	holders []uint64         // per-message holder bitsets (strided, wpn words each)
	wpn     int              // words per holder row: ceil(n/64)
	heldBy  []uint64         // per-node message bitsets: node x holds id ⟺ row(x) bit id
	wpm     int              // words per heldBy row: ceil(len(msgs)/64)
	live    liveSet          // created, undelivered messages
	hops    []int16          // shard×n slab; row i is message i's per-node hop counts
	copies  []int16          // shard×n slab (copy budgets); empty unless sprayL > 0
	seen    []uint64         // spread anti-revisit scratch (wpn words)
	queue   []trace.NodeID   // spread BFS queue (head-indexed, reused)
	creates []event          // this shard's creation events

	messages []Message // the run's full message list (read-only)
	outcomes []Outcome // the run's full outcome slice (strided writes)
	base     int       // first global message index of this shard
	stride   int       // worker count of the run
	sent     int       // total copy transfers, including deliveries

	cx   *engine.Ctx // the run's call context (nil: inert)
	next *sim        // the next pooled sim in a Sweep's free list
}

// reset prepares the sim for one run: shard [base::stride] of messages
// under alg/mode, writing outcomes at their global indices. All
// buffers are resliced from retained capacity and wiped, so a reset
// sim is indistinguishable from a freshly constructed one.
func (s *sim) reset(alg forward.Algorithm, mode CopyMode, oracle *Oracle, messages []Message, base, stride int, outcomes []Outcome) {
	n := oracle.tr.NumNodes
	s.alg, s.mode, s.n = alg, mode, n
	s.messages, s.outcomes = messages, outcomes
	s.base, s.stride = base, stride
	s.sent = 0

	s.obs = nil
	if st, ok := alg.(forward.Stateful); ok {
		st.Reset(n)
		s.obs = st
	}
	s.sprayL = 0
	if cb, ok := alg.(forward.CopyBudget); ok {
		s.sprayL = cb.InitialCopies()
	}
	s.floods = false
	if f, ok := alg.(forward.Flooder); ok {
		s.floods = f.AlwaysForwards()
	}
	s.fwdAll = s.floods && s.sprayL == 0

	// The contact view exists for forwarding decisions, and an
	// unconditional flooder never makes one: shouldForward is only
	// reached when !fwdAll, so such runs skip the view entirely —
	// at city scale its history tables are O(n²) per worker, the
	// dominant memory of an epidemic run that never reads them.
	// (Stateful algorithms keep their own state via OnContact.)
	if s.fwdAll {
		if s.view != nil {
			s.idleView = s.view // keep for a later non-flooding run
			s.view = nil
		}
	} else {
		if s.view == nil {
			s.view, s.idleView = s.idleView, nil
		}
		if s.view == nil || s.view.NumNodes() != n {
			s.view = forward.NewView(n)
		} else {
			s.view.Reset()
		}
		s.view.InstallOracleLazy(oracle.totals, oracle.MEED)
	}

	if len(s.open) != n {
		s.open = make([][]trace.NodeID, n)
	} else {
		for i := range s.open {
			s.open[i] = s.open[i][:0]
		}
	}

	count := 0
	if base < len(messages) {
		count = (len(messages) - base + stride - 1) / stride
	}
	s.msgs = growSlice(s.msgs, count)
	s.wpn = (n + 63) / 64
	s.holders = growWiped(s.holders, count*s.wpn)
	s.seen = growWiped(s.seen, s.wpn)
	s.wpm = (count + 63) / 64
	s.heldBy = growWiped(s.heldBy, n*s.wpm)
	s.live.reset(count)
	s.hops = growWiped(s.hops, count*n)
	if s.sprayL > 0 {
		s.copies = growWiped(s.copies, count*n)
	}
	for j := 0; j < count; j++ {
		gi := base + j*stride
		s.msgs[j] = msgState{msg: messages[gi], global: int32(gi)}
		s.outcomes[gi] = Outcome{Msg: messages[gi]}
	}
}

// growSlice reslices buf to size, reusing capacity; contents are
// overwritten by the caller.
func growSlice[T any](buf []T, size int) []T {
	if cap(buf) < size {
		return make([]T, size)
	}
	return buf[:size]
}

// growWiped reslices buf to size, reusing capacity, and zeroes it.
func growWiped[T int16 | uint64](buf []T, size int) []T {
	if cap(buf) < size {
		return make([]T, size) // fresh memory is already zero
	}
	buf = buf[:size]
	clear(buf)
	return buf
}

// heldRow returns node x's held-message bitset words.
func (s *sim) heldRow(x trace.NodeID) []uint64 {
	return s.heldBy[int(x)*s.wpm : (int(x)+1)*s.wpm]
}

// holderRow returns message id's holder bitset words.
func (s *sim) holderRow(id int) []uint64 {
	return s.holders[id*s.wpn : (id+1)*s.wpn]
}

// hopsRow returns message id's per-node hop counters.
func (s *sim) hopsRow(id int) []int16 { return s.hops[id*s.n : (id+1)*s.n] }

// copiesRow returns message id's per-node copy budgets.
func (s *sim) copiesRow(id int) []int16 { return s.copies[id*s.n : (id+1)*s.n] }

// run replays the shared contact events interleaved with this shard's
// message creations. Only the shard's (few) creation events need
// sorting; they are then merged into the pre-sorted contact stream in
// linear time, in exactly the (time, kind) order sortEvents produces.
func (s *sim) run(contactEvents []event) {
	// Entry checkpoint: a token that fired before the replay started
	// (request already timed out while queued) abandons immediately,
	// even on traces smaller than the amortized poll interval below.
	// Sweep.Run re-polls the token and discards the partial outcomes.
	if s.cx.Stopped() {
		return
	}
	s.creates = s.creates[:0]
	for i := range s.msgs {
		s.creates = append(s.creates, event{time: s.msgs[i].msg.Start, kind: evMsgCreate, msg: int32(i), seq: int32(i)})
	}
	sortEvents(s.creates)
	i, j := 0, 0
	for n := 0; i < len(contactEvents) || j < len(s.creates); n++ {
		// Amortized cancellation checkpoint: a few thousand events cost
		// well under a millisecond, so a fired token stops the replay
		// promptly without a per-event poll.
		if n&4095 == 4095 && s.cx.Stopped() {
			return
		}
		var ev event
		if j >= len(s.creates) || (i < len(contactEvents) && eventBefore(contactEvents[i], s.creates[j])) {
			ev = contactEvents[i]
			i++
		} else {
			ev = s.creates[j]
			j++
		}
		switch ev.kind {
		case evContactStart:
			s.contactStart(trace.NodeID(ev.a), trace.NodeID(ev.b), ev.time)
		case evMsgCreate:
			s.createMessage(int(ev.msg), ev.time)
		case evContactEnd:
			s.contactEnd(trace.NodeID(ev.a), trace.NodeID(ev.b))
		}
	}
}

func (s *sim) contactStart(a, b trace.NodeID, now float64) {
	// Overlapping records of the same pair are kept as a multiset: each
	// record contributes one open entry and one end-time removal, so a
	// longer overlapping record keeps the pair connected. Each record
	// also counts as one observed contact, matching trace.ContactCounts
	// (pure flooding runs carry no view: nothing reads it).
	if s.view != nil {
		s.view.Observe(a, b, now)
	}
	if s.obs != nil {
		s.obs.OnContact(a, b, now)
	}
	s.open[a] = append(s.open[a], b)
	s.open[b] = append(s.open[b], a)
	// The messages that can act at this contact are exactly the live
	// ones held by one endpoint and not the other: a XOR over the two
	// nodes' held-message bitsets, masked by the live set, finds them
	// in a few words per contact regardless of how many messages are
	// in flight. Each word is snapshotted before its ids are processed;
	// an exchange mutates only the bits of the id being processed, so
	// the snapshot stays exact for the ids that follow.
	replicate := s.mode == Replicate
	ra, rb := s.heldRow(a), s.heldRow(b)
	for w, lw := range s.live.words {
		x := (ra[w] ^ rb[w]) & lw
		for x != 0 {
			id := w<<6 + bits.TrailingZeros64(x)
			x &= x - 1
			if replicate {
				// Holder sets only grow, so only the holding side's
				// direction can act.
				if rowHas(s.holderRow(id), a) {
					s.exchange(id, a, b, now)
				} else {
					s.exchange(id, b, a, now)
				}
			} else {
				// Relay mode: the first hand-off can reverse the
				// roles, so both directions run.
				s.exchange(id, a, b, now)
				s.exchange(id, b, a, now)
			}
		}
	}
}

func (s *sim) contactEnd(a, b trace.NodeID) {
	s.open[a] = removeNode(s.open[a], b)
	s.open[b] = removeNode(s.open[b], a)
}

func removeNode(list []trace.NodeID, n trace.NodeID) []trace.NodeID {
	for i, x := range list {
		if x == n {
			list[i] = list[len(list)-1]
			return list[:len(list)-1]
		}
	}
	return list
}

func (s *sim) createMessage(id int, now float64) {
	m := &s.msgs[id]
	m.created = true
	s.setHolder(id, m.msg.Src)
	if s.sprayL > 0 {
		s.copiesRow(id)[m.msg.Src] = int16(s.sprayL)
	}
	s.live.add(id)
	// The source may already be inside a live contact component;
	// spread (or deliver, which removes the message from the live set)
	// immediately.
	clear(s.seen)
	rowAdd(s.seen, m.msg.Src)
	s.spread(id, m.msg.Src, now)
}

// setHolder marks node x a holder of message id in both directions of
// the index (message→nodes bitset and node→messages bitset).
func (s *sim) setHolder(id int, x trace.NodeID) {
	rowAdd(s.holderRow(id), x)
	s.heldRow(x)[id>>6] |= 1 << (uint(id) & 63)
}

// clearHolder removes node x from message id's holders (relay mode).
func (s *sim) clearHolder(id int, x trace.NodeID) {
	rowRemove(s.holderRow(id), x)
	s.heldRow(x)[id>>6] &^= 1 << (uint(id) & 63)
}

// exchange considers handing message id from holder to peer at a
// contact event, then lets the message spread onward from the peer.
func (s *sim) exchange(id int, holder, peer trace.NodeID, now float64) {
	m := &s.msgs[id]
	h := s.holderRow(id)
	if m.delivered || !m.created || !rowHas(h, holder) || rowHas(h, peer) {
		return
	}
	if peer == m.msg.Dst {
		s.deliver(id, holder, now)
		return
	}
	if !(s.fwdAll || s.shouldForward(id, holder, peer, now)) {
		return
	}
	s.transfer(id, holder, peer)
	clear(s.seen)
	rowAdd(s.seen, holder)
	rowAdd(s.seen, peer)
	s.spread(id, peer, now)
}

// spread propagates message id from node through the live contact
// component (zero transmission time), respecting the forwarding rule
// at each hop. The caller seeds s.seen with the nodes that have
// already held the message during this instantaneous propagation
// (including from): re-transferring to them cannot reach anything new
// and, in relay mode with an always-forward algorithm, would
// ping-pong the single copy between two nodes forever. A node may
// still re-receive the message at a later contact event. In replicate
// mode holders only grow, so seen ⊆ holders and the guard changes
// nothing.
func (s *sim) spread(id int, from trace.NodeID, now float64) {
	m := &s.msgs[id]
	h := s.holderRow(id)
	if m.delivered {
		return
	}
	dst := m.msg.Dst
	q := append(s.queue[:0], from)
	for head := 0; head < len(q) && !m.delivered; head++ {
		cur := q[head]
		if !rowHas(h, cur) {
			continue // copy moved on (relay mode)
		}
		for _, peer := range s.open[cur] {
			if m.delivered {
				break
			}
			if rowHas(h, peer) {
				continue
			}
			if peer == dst {
				s.deliver(id, cur, now)
				break
			}
			if rowHas(s.seen, peer) || !(s.fwdAll || s.shouldForward(id, cur, peer, now)) {
				continue
			}
			s.transfer(id, cur, peer)
			rowAdd(s.seen, peer)
			q = append(q, peer)
			if !rowHas(h, cur) {
				// Relay mode: cur handed its single copy to peer and
				// has nothing left to forward or deliver from —
				// continuing the loop would duplicate the copy.
				break
			}
		}
	}
	s.queue = q[:0] // retain any growth for the next propagation
}

func (s *sim) shouldForward(id int, holder, peer trace.NodeID, now float64) bool {
	if s.sprayL > 0 && s.copiesRow(id)[holder] <= 1 {
		return false // wait phase: only direct delivery
	}
	if s.floods {
		return true // flooding algorithm: skip the indirect call
	}
	return s.alg.Forward(s.view, holder, peer, s.msgs[id].msg.Dst, now)
}

func (s *sim) transfer(id int, holder, peer trace.NodeID) {
	s.sent++
	s.setHolder(id, peer)
	hops := s.hopsRow(id)
	hops[peer] = hops[holder] + 1
	if s.sprayL > 0 {
		copies := s.copiesRow(id)
		half := copies[holder] / 2
		copies[peer] = half
		copies[holder] -= half
	}
	if s.mode == Relay {
		s.clearHolder(id, holder)
	}
}

func (s *sim) deliver(id int, holder trace.NodeID, now float64) {
	s.sent++
	m := &s.msgs[id]
	m.delivered = true
	out := &s.outcomes[m.global]
	out.Delivered = true
	out.Delay = now - m.msg.Start
	out.Hops = int(s.hopsRow(id)[holder]) + 1
	s.live.remove(id)
}

// SuccessRate returns the fraction of messages delivered.
func (r *Result) SuccessRate() float64 {
	if len(r.Outcomes) == 0 {
		return math.NaN()
	}
	n := 0
	for _, o := range r.Outcomes {
		if o.Delivered {
			n++
		}
	}
	return float64(n) / float64(len(r.Outcomes))
}

// MeanDelay returns the average delay over delivered messages, or NaN
// if none were delivered (the paper's D = E[T | delivered]).
func (r *Result) MeanDelay() float64 {
	sum, n := 0.0, 0
	for _, o := range r.Outcomes {
		if o.Delivered {
			sum += o.Delay
			n++
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

// Delays returns the delays of all delivered messages.
func (r *Result) Delays() []float64 {
	var out []float64
	for _, o := range r.Outcomes {
		if o.Delivered {
			out = append(out, o.Delay)
		}
	}
	return out
}

// ByPairType partitions outcomes by the in/out class of their
// endpoints (§5.2) under cl. Each partition's outcome slice is
// preallocated at its exact size from a counting pass.
func (r *Result) ByPairType(cl *trace.Classifier) map[trace.PairType]*Result {
	var counts [len(trace.PairTypes)]int
	for _, o := range r.Outcomes {
		counts[cl.Classify(o.Msg.Src, o.Msg.Dst)]++
	}
	out := make(map[trace.PairType]*Result, len(trace.PairTypes))
	for _, pt := range trace.PairTypes {
		out[pt] = &Result{Algorithm: r.Algorithm, Outcomes: make([]Outcome, 0, counts[pt])}
	}
	for _, o := range r.Outcomes {
		pt := cl.Classify(o.Msg.Src, o.Msg.Dst)
		out[pt].Outcomes = append(out[pt].Outcomes, o)
	}
	return out
}

// Merge combines results from multiple runs of the same algorithm into
// one preallocated outcome slice.
func Merge(rs ...*Result) *Result {
	if len(rs) == 0 {
		return &Result{}
	}
	total := 0
	for _, r := range rs {
		total += len(r.Outcomes)
	}
	m := &Result{Algorithm: rs[0].Algorithm}
	if total > 0 {
		m.Outcomes = make([]Outcome, 0, total)
	}
	for _, r := range rs {
		m.Outcomes = append(m.Outcomes, r.Outcomes...)
		m.Transmissions += r.Transmissions
	}
	return m
}

// Workload draws the paper's message workload: a Poisson process with
// the given rate (the paper uses one message per 4 s) over
// [0, genHorizon), with endpoints uniform at random among distinct
// node pairs.
func Workload(tr *trace.Trace, rate, genHorizon float64, seed int64) []Message {
	rng := rand.New(rand.NewSource(seed))
	var out []Message
	if rate <= 0 || genHorizon <= 0 {
		return out
	}
	for t := rng.ExpFloat64() / rate; t < genHorizon && t < tr.Horizon; t += rng.ExpFloat64() / rate {
		src := trace.NodeID(rng.Intn(tr.NumNodes))
		dst := trace.NodeID(rng.Intn(tr.NumNodes - 1))
		if dst >= src {
			dst++
		}
		out = append(out, Message{Src: src, Dst: dst, Start: t})
	}
	return out
}
