package dtnsim

import (
	"math"
	"reflect"
	"sort"
	"testing"

	"repro/internal/forward"
	"repro/internal/trace"
	"repro/internal/tracegen"
)

// This file vendors the pre-sweep simulator — the implementation that
// shipped before the forwarding hot path went allocation-free (nested
// [][]T contact views, a map-based live set, per-message hops/copies
// allocations, a fresh spread queue per propagation, reflective
// sort.SliceStable event ordering) — and proves the rewrite is a pure
// optimization: for every dataset, algorithm, copy mode and seed, the
// new simulator's Result (Outcome structs in order, transmission
// count) is identical to the reference's, for every worker count, and
// whether runs go through Run or through a reused Sweep.
//
// The reference is deliberately kept naive and close to the original
// source; it implements the serial path only (the pre-sweep parallel
// path was pinned serial-equivalent by parallel_test.go, which still
// runs against the new implementation).

// refView is the pre-flattening contact view: one heap row per node.
type refView struct {
	numNodes int
	lastEnc  [][]float64
	encCount [][]int
	soFar    []int
	totals   []int
	meedDist [][]float64
}

func refNewView(n int) *refView {
	v := &refView{
		numNodes: n,
		lastEnc:  make([][]float64, n),
		encCount: make([][]int, n),
		soFar:    make([]int, n),
	}
	for i := 0; i < n; i++ {
		v.lastEnc[i] = make([]float64, n)
		for j := range v.lastEnc[i] {
			v.lastEnc[i][j] = math.Inf(-1)
		}
		v.encCount[i] = make([]int, n)
	}
	return v
}

func (v *refView) observe(a, b trace.NodeID, now float64) {
	v.lastEnc[a][b] = now
	v.lastEnc[b][a] = now
	v.encCount[a][b]++
	v.encCount[b][a]++
	v.soFar[a]++
	v.soFar[b]++
}

// refMEEDDistances is the pre-flattening MEED metric: nested rows and
// the identical Floyd-Warshall update order, so distances (and thus
// Dynamic Programming decisions) must agree bit for bit.
func refMEEDDistances(tr *trace.Trace) [][]float64 {
	n := tr.NumNodes
	dist := make([][]float64, n)
	for i := range dist {
		dist[i] = make([]float64, n)
		for j := range dist[i] {
			if i != j {
				dist[i][j] = math.Inf(1)
			}
		}
	}
	counts := make([][]int, n)
	for i := range counts {
		counts[i] = make([]int, n)
	}
	for _, c := range tr.Contacts() {
		counts[c.A][c.B]++
		counts[c.B][c.A]++
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && counts[i][j] > 0 {
				dist[i][j] = tr.Horizon / float64(counts[i][j]+1)
			}
		}
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			dik := dist[i][k]
			if math.IsInf(dik, 1) {
				continue
			}
			for j := 0; j < n; j++ {
				if d := dik + dist[k][j]; d < dist[i][j] {
					dist[i][j] = d
				}
			}
		}
	}
	return dist
}

// To stay independent of the rewritten View internals, the reference
// re-implements the six paper decision rules directly against refView
// instead of calling the algorithms' Forward methods.
type refEvent struct {
	time float64
	kind eventKind
	a, b trace.NodeID
	msg  int
}

func refSortEvents(events []refEvent) {
	sort.SliceStable(events, func(i, j int) bool { return refEventBefore(events[i], events[j]) })
}

func refEventBefore(a, b refEvent) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	return a.kind < b.kind
}

// refHolderSet is the reference simulator's own two-word holder
// bitset (the pre-refactor representation; reference traces stay
// under 128 nodes).
type refHolderSet [2]uint64

func (h refHolderSet) has(n trace.NodeID) bool { return h[n>>6]&(1<<(uint(n)&63)) != 0 }
func (h *refHolderSet) add(n trace.NodeID)     { h[n>>6] |= 1 << (uint(n) & 63) }
func (h *refHolderSet) remove(n trace.NodeID)  { h[n>>6] &^= 1 << (uint(n) & 63) }

type refMsgState struct {
	msg     Message
	holders refHolderSet
	// hops is int16 (not the pre-refactor int8): relay-mode hop
	// chains exceed 127, and the original counter silently wrapped.
	// The live simulator fixed the overflow, so the reference carries
	// the same fix — everything else is the pre-refactor algorithm.
	hops      []int16
	delivered bool
	created   bool
}

type refSim struct {
	alg      forward.Algorithm
	mode     CopyMode
	view     *refView
	open     [][]trace.NodeID
	msgs     []refMsgState
	live     map[int]bool
	outcomes []Outcome
	sent     int
}

// refForward evaluates the forwarding rule against the reference view.
// The paper's six algorithms are re-implemented here from §6's
// definitions; any other algorithm panics, so a new rule cannot pass
// the golden suite without a reference of its own.
func (s *refSim) refForward(holder, peer, dst trace.NodeID) bool {
	switch s.alg.(type) {
	case forward.Epidemic:
		return true
	case forward.FRESH:
		return s.view.lastEnc[peer][dst] > s.view.lastEnc[holder][dst]
	case forward.Greedy:
		return s.view.encCount[peer][dst] > s.view.encCount[holder][dst]
	case forward.GreedyTotal:
		return s.view.totals[peer] > s.view.totals[holder]
	case forward.GreedyOnline:
		return s.view.soFar[peer] > s.view.soFar[holder]
	case forward.DynamicProgramming:
		return s.view.meedDist[peer][dst] < s.view.meedDist[holder][dst]
	default:
		panic("golden reference: no reference rule for " + s.alg.Name())
	}
}

// refRun is the pre-sweep serial Run: oracle tables derived per call,
// one fresh simulator, map-based live set, per-message allocations.
func refRun(tr *trace.Trace, alg forward.Algorithm, msgs []Message, mode CopyMode) *Result {
	totals := tr.ContactCounts()
	meed := refMEEDDistances(tr)

	events := make([]refEvent, 0, 2*tr.Len())
	for _, c := range tr.Contacts() {
		events = append(events,
			refEvent{time: c.Start, kind: evContactStart, a: c.A, b: c.B},
			refEvent{time: c.End, kind: evContactEnd, a: c.A, b: c.B},
		)
	}
	refSortEvents(events)

	n := tr.NumNodes
	s := &refSim{
		alg:  alg,
		mode: mode,
		view: refNewView(n),
		open: make([][]trace.NodeID, n),
		live: make(map[int]bool),
	}
	s.view.totals = totals
	s.view.meedDist = meed
	s.msgs = make([]refMsgState, len(msgs))
	s.outcomes = make([]Outcome, len(msgs))
	for i, m := range msgs {
		s.msgs[i].msg = m
		s.msgs[i].hops = make([]int16, n)
		s.outcomes[i] = Outcome{Msg: m}
	}

	creates := make([]refEvent, 0, len(s.msgs))
	for i := range s.msgs {
		creates = append(creates, refEvent{time: s.msgs[i].msg.Start, kind: evMsgCreate, msg: i})
	}
	refSortEvents(creates)
	i, j := 0, 0
	for i < len(events) || j < len(creates) {
		var ev refEvent
		if j >= len(creates) || (i < len(events) && refEventBefore(events[i], creates[j])) {
			ev = events[i]
			i++
		} else {
			ev = creates[j]
			j++
		}
		switch ev.kind {
		case evContactStart:
			s.refContactStart(ev.a, ev.b, ev.time)
		case evMsgCreate:
			s.refCreateMessage(ev.msg, ev.time)
		case evContactEnd:
			s.refContactEnd(ev.a, ev.b)
		}
	}
	return &Result{Algorithm: alg.Name(), Outcomes: s.outcomes, Transmissions: s.sent}
}

func (s *refSim) refContactStart(a, b trace.NodeID, now float64) {
	s.view.observe(a, b, now)
	s.open[a] = append(s.open[a], b)
	s.open[b] = append(s.open[b], a)
	for id := range s.live {
		s.refExchange(id, a, b, now)
		s.refExchange(id, b, a, now)
	}
}

func (s *refSim) refContactEnd(a, b trace.NodeID) {
	s.open[a] = refRemoveNode(s.open[a], b)
	s.open[b] = refRemoveNode(s.open[b], a)
}

func refRemoveNode(list []trace.NodeID, n trace.NodeID) []trace.NodeID {
	for i, x := range list {
		if x == n {
			list[i] = list[len(list)-1]
			return list[:len(list)-1]
		}
	}
	return list
}

func (s *refSim) refCreateMessage(id int, now float64) {
	m := &s.msgs[id]
	m.created = true
	m.holders.add(m.msg.Src)
	s.live[id] = true
	var seen refHolderSet
	seen.add(m.msg.Src)
	s.refSpread(id, m.msg.Src, now, seen)
}

func (s *refSim) refExchange(id int, holder, peer trace.NodeID, now float64) {
	m := &s.msgs[id]
	if m.delivered || !m.created || !m.holders.has(holder) || m.holders.has(peer) {
		return
	}
	if peer == m.msg.Dst {
		s.refDeliver(id, holder, now)
		return
	}
	if !s.refForward(holder, peer, m.msg.Dst) {
		return
	}
	s.refTransfer(id, holder, peer)
	var seen refHolderSet
	seen.add(holder)
	seen.add(peer)
	s.refSpread(id, peer, now, seen)
}

func (s *refSim) refSpread(id int, from trace.NodeID, now float64, seen refHolderSet) {
	m := &s.msgs[id]
	if m.delivered {
		return
	}
	queue := []trace.NodeID{from}
	for len(queue) > 0 && !m.delivered {
		cur := queue[0]
		queue = queue[1:]
		if !m.holders.has(cur) {
			continue
		}
		for _, peer := range s.open[cur] {
			if m.delivered {
				return
			}
			if m.holders.has(peer) {
				continue
			}
			if peer == m.msg.Dst {
				s.refDeliver(id, cur, now)
				return
			}
			if seen.has(peer) || !s.refForward(cur, peer, m.msg.Dst) {
				continue
			}
			s.refTransfer(id, cur, peer)
			seen.add(peer)
			queue = append(queue, peer)
			if !m.holders.has(cur) {
				break
			}
		}
	}
}

func (s *refSim) refTransfer(id int, holder, peer trace.NodeID) {
	s.sent++
	m := &s.msgs[id]
	m.holders.add(peer)
	m.hops[peer] = m.hops[holder] + 1
	if s.mode == Relay {
		m.holders.remove(holder)
	}
}

func (s *refSim) refDeliver(id int, holder trace.NodeID, now float64) {
	s.sent++
	m := &s.msgs[id]
	m.delivered = true
	s.outcomes[id].Delivered = true
	s.outcomes[id].Delay = now - m.msg.Start
	s.outcomes[id].Hops = int(m.hops[holder]) + 1
	delete(s.live, id)
}

// --- the golden equivalence suite ---

// goldenCompare pins one configuration: the reference result against
// Run at worker counts 1 and 4 and against a (possibly reused) Sweep.
func goldenCompare(t *testing.T, label string, tr *trace.Trace, sw *Sweep, alg forward.Algorithm, msgs []Message, mode CopyMode) {
	t.Helper()
	want := refRun(tr, alg, msgs, mode)
	for _, workers := range []int{1, 4} {
		got, err := Run(Config{Trace: tr, Algorithm: alg, Messages: msgs, CopyMode: mode, Workers: workers})
		if err != nil {
			t.Fatalf("%s workers=%d: %v", label, workers, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("%s workers=%d: Run diverges from pre-sweep reference (tx %d vs %d)",
				label, workers, got.Transmissions, want.Transmissions)
		}
	}
	got, err := sw.Run(Config{Algorithm: alg, Messages: msgs, CopyMode: mode, Workers: 1})
	if err != nil {
		t.Fatalf("%s sweep: %v", label, err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("%s: reused Sweep diverges from pre-sweep reference (tx %d vs %d)",
			label, got.Transmissions, want.Transmissions)
	}
}

// TestGoldenReferenceDevTrace sweeps the full algorithm × copy-mode ×
// seed matrix on the development trace (fast enough for -short runs).
func TestGoldenReferenceDevTrace(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		tr := tracegen.Dev(seed)
		sw, err := NewSweep(tr)
		if err != nil {
			t.Fatal(err)
		}
		msgs := Workload(tr, 0.2, tr.Horizon, seed+100)
		for _, alg := range forward.PaperSet() {
			for _, mode := range []CopyMode{Replicate, Relay} {
				label := tr.Name + "/" + alg.Name() + "/" + mode.String()
				goldenCompare(t, label, tr, sw, alg, msgs, mode)
			}
		}
	}
}

// TestGoldenReferencePaperDatasets runs the same matrix over all four
// conference datasets at reduced workload rate. One Sweep per dataset
// is reused across the whole matrix, so the suite also proves pooled
// state reset leaves no residue between configurations.
func TestGoldenReferencePaperDatasets(t *testing.T) {
	if testing.Short() {
		t.Skip("full golden dataset sweep is slow")
	}
	for _, d := range tracegen.Datasets {
		tr := tracegen.MustGenerate(d)
		sw, err := NewSweep(tr)
		if err != nil {
			t.Fatal(err)
		}
		for _, seed := range []int64{1, 2, 3} {
			msgs := Workload(tr, 0.01, tr.Horizon*2/3, seed)
			for _, alg := range forward.PaperSet() {
				for _, mode := range []CopyMode{Replicate, Relay} {
					label := tr.Name + "/" + alg.Name() + "/" + mode.String()
					goldenCompare(t, label, tr, sw, alg, msgs, mode)
				}
			}
		}
	}
}
