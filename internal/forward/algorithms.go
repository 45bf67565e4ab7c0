package forward

import (
	"math"

	"repro/internal/trace"
)

// Algorithm is a forwarding decision rule. Forward reports whether a
// node holding a message for dst should hand a copy to peer when they
// meet at time now. Delivery to the destination itself is not the
// algorithm's concern: the simulator enforces minimal progress (§4.1)
// and always delivers on an encounter with the destination.
type Algorithm interface {
	Name() string
	Forward(v *View, holder, peer, dst trace.NodeID, now float64) bool
}

// Stateful is an optional interface for algorithms that keep their
// own per-encounter state (e.g. PRoPHET's delivery predictabilities).
// Every simulation shard replays its own Clone, Reset at run start and
// told of each contact start through OnContact after the View update;
// each clone sees the full contact stream, so shards reach the same
// state.
type Stateful interface {
	Reset(numNodes int)
	OnContact(a, b trace.NodeID, now float64)
	Clone() Algorithm // a fresh instance with the same parameters
}

// Instance returns the value one simulation shard replays: a fresh
// clone of a Stateful algorithm, so concurrent shards and runs never
// share mutable state, and a itself otherwise — a stateless decision
// rule whose Forward only reads the shard's View.
func Instance(a Algorithm) Algorithm {
	if st, ok := a.(Stateful); ok {
		return st.Clone()
	}
	return a
}

// Flooder is an optional marker interface for algorithms whose Forward
// always consents (flooding). The simulator's hot path skips the
// indirect per-candidate decision call for such algorithms; any other
// gating (e.g. a copy budget's wait phase) still applies.
type Flooder interface {
	// AlwaysForwards reports that Forward returns true for every input.
	AlwaysForwards() bool
}

// CopyBudget is an optional interface marking binary-spray semantics:
// each message starts with InitialCopies logical copies at the source;
// a transfer hands the recipient half of the holder's copies; holders
// with one copy wait for the destination.
type CopyBudget interface {
	InitialCopies() int
}

// Epidemic floods: every encounter transfers every missing message
// (Vahdat & Becker). It attains the optimal delay and success rate and
// upper-bounds every other algorithm.
type Epidemic struct{}

func (Epidemic) Name() string { return "Epidemic" }

func (Epidemic) Forward(*View, trace.NodeID, trace.NodeID, trace.NodeID, float64) bool {
	return true
}

// AlwaysForwards implements Flooder.
func (Epidemic) AlwaysForwards() bool { return true }

// FRESH forwards to nodes that met the destination more recently
// (Dubois-Ferriere, Grossglauser & Vetterli's encounter-age routing):
// single-hop, destination-aware, recent history only.
type FRESH struct{}

func (FRESH) Name() string { return "FRESH" }

func (FRESH) Forward(v *View, holder, peer, dst trace.NodeID, _ float64) bool {
	return v.LastEncounter(peer, dst) > v.LastEncounter(holder, dst)
}

// Greedy forwards to nodes that met the destination more often since
// the start of the simulation: destination-aware, complete past
// history.
type Greedy struct{}

func (Greedy) Name() string { return "Greedy" }

func (Greedy) Forward(v *View, holder, peer, dst trace.NodeID, _ float64) bool {
	return v.EncounterCount(peer, dst) > v.EncounterCount(holder, dst)
}

// GreedyTotal forwards to nodes with more total contacts over the
// whole trace: destination-unaware, past and future knowledge
// (an oracle).
type GreedyTotal struct{}

func (GreedyTotal) Name() string { return "Greedy Total" }

func (GreedyTotal) Forward(v *View, holder, peer, _ trace.NodeID, _ float64) bool {
	return v.TotalContacts(peer) > v.TotalContacts(holder)
}

// GreedyOnline forwards to nodes with more contacts so far:
// destination-unaware, past knowledge only.
type GreedyOnline struct{}

func (GreedyOnline) Name() string { return "Greedy Online" }

func (GreedyOnline) Forward(v *View, holder, peer, _ trace.NodeID, _ float64) bool {
	return v.ContactsSoFar(peer) > v.ContactsSoFar(holder)
}

// DynamicProgramming forwards along the MEED expected-delay metric
// (Jain/Fall/Patra's Minimum Expected Delay, computed as in Jones et
// al.): the message moves to nodes strictly closer to the destination
// in expected delay. Past and future knowledge (an oracle).
type DynamicProgramming struct{}

func (DynamicProgramming) Name() string { return "Dynamic Programming" }

func (DynamicProgramming) Forward(v *View, holder, peer, dst trace.NodeID, _ float64) bool {
	return v.MEEDDistance(peer, dst) < v.MEEDDistance(holder, dst)
}

// DirectDelivery never forwards: the source waits to meet the
// destination itself. The classical single-copy lower bound.
type DirectDelivery struct{}

func (DirectDelivery) Name() string { return "Direct Delivery" }

func (DirectDelivery) Forward(*View, trace.NodeID, trace.NodeID, trace.NodeID, float64) bool {
	return false
}

// SprayAndWait implements binary Spray and Wait (Spyropoulos et al.):
// L logical copies spread epidemically by halving; single-copy holders
// wait for the destination.
type SprayAndWait struct {
	// L is the initial number of logical copies (default 8).
	L int
}

func (s SprayAndWait) Name() string { return "Spray and Wait" }

// InitialCopies implements CopyBudget.
func (s SprayAndWait) InitialCopies() int {
	if s.L <= 0 {
		return 8
	}
	return s.L
}

// Forward always consents; the simulator's copy accounting decides
// whether the holder still has copies to spray.
func (SprayAndWait) Forward(*View, trace.NodeID, trace.NodeID, trace.NodeID, float64) bool {
	return true
}

// AlwaysForwards implements Flooder.
func (SprayAndWait) AlwaysForwards() bool { return true }

// PRoPHET forwards on higher delivery predictability (Lindgren, Doria
// & Schelen): P(a,b) grows on encounters, ages over time, and picks up
// transitive contributions.
type PRoPHET struct {
	// PInit, Beta and Gamma are the protocol constants; zero values
	// select the RFC 6693 defaults (0.75, 0.25, 0.98 per second unit).
	PInit, Beta, Gamma float64

	// p is the flat row-major n×n predictability table: p[a*n+b] is
	// P(a,b). One allocation, and aging walks a contiguous row.
	p        []float64
	lastAged []float64
	n        int
}

// row returns node a's predictability row p[a][·].
func (p *PRoPHET) row(a trace.NodeID) []float64 {
	return p.p[int(a)*p.n : (int(a)+1)*p.n]
}

func (p *PRoPHET) Name() string { return "PRoPHET" }

func (p *PRoPHET) params() (pinit, beta, gamma float64) {
	pinit, beta, gamma = p.PInit, p.Beta, p.Gamma
	if pinit == 0 {
		pinit = 0.75
	}
	if beta == 0 {
		beta = 0.25
	}
	if gamma == 0 {
		gamma = 0.98
	}
	return pinit, beta, gamma
}

// PRoPHET must stay Stateful: one missing method would otherwise
// replay it as a stateless rule that never forwards.
var _ Stateful = (*PRoPHET)(nil)

// Clone implements Stateful: a fresh predictability table with the
// same protocol constants.
func (p *PRoPHET) Clone() Algorithm {
	return &PRoPHET{PInit: p.PInit, Beta: p.Beta, Gamma: p.Gamma}
}

// Reset implements Stateful.
func (p *PRoPHET) Reset(numNodes int) {
	p.n = numNodes
	if cap(p.p) >= numNodes*numNodes && cap(p.lastAged) >= numNodes {
		p.p = p.p[:numNodes*numNodes]
		clear(p.p)
		p.lastAged = p.lastAged[:numNodes]
		clear(p.lastAged)
		return
	}
	p.p = make([]float64, numNodes*numNodes)
	p.lastAged = make([]float64, numNodes)
}

// age applies the exponential aging factor to node a's table. Time is
// measured in units of 100 s so gamma^t does not underflow over
// multi-hour traces.
func (p *PRoPHET) age(a trace.NodeID, now float64) {
	_, _, gamma := p.params()
	dt := (now - p.lastAged[a]) / 100
	if dt <= 0 {
		return
	}
	f := math.Pow(gamma, dt)
	row := p.row(a)
	for j := range row {
		row[j] *= f
	}
	p.lastAged[a] = now
}

// OnContact implements Stateful: direct update plus the transitive
// rule.
func (p *PRoPHET) OnContact(a, b trace.NodeID, now float64) {
	if p.p == nil {
		return
	}
	pinit, beta, _ := p.params()
	p.age(a, now)
	p.age(b, now)
	rowA, rowB := p.row(a), p.row(b)
	rowA[b] += (1 - rowA[b]) * pinit
	rowB[a] += (1 - rowB[a]) * pinit
	for c := 0; c < p.n; c++ {
		if trace.NodeID(c) == a || trace.NodeID(c) == b {
			continue
		}
		rowA[c] += (1 - rowA[c]) * rowA[b] * rowB[c] * beta
		rowB[c] += (1 - rowB[c]) * rowB[a] * rowA[c] * beta
	}
}

// Forward hands a copy to peers with strictly higher delivery
// predictability for the destination.
func (p *PRoPHET) Forward(_ *View, holder, peer, dst trace.NodeID, _ float64) bool {
	if p.p == nil {
		return false
	}
	return p.p[int(peer)*p.n+int(dst)] > p.p[int(holder)*p.n+int(dst)]
}

// PaperSet returns the six algorithms the paper compares in §6, in
// presentation order.
func PaperSet() []Algorithm {
	return []Algorithm{
		Epidemic{},
		FRESH{},
		Greedy{},
		GreedyTotal{},
		GreedyOnline{},
		DynamicProgramming{},
	}
}

// ExtendedSet returns PaperSet plus the ablation algorithms.
func ExtendedSet() []Algorithm {
	return append(PaperSet(),
		DirectDelivery{},
		SprayAndWait{},
		&PRoPHET{},
	)
}
