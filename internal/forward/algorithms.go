package forward

import "repro/internal/trace"

// Algorithm is a forwarding decision rule. Forward reports whether a
// node holding a message for dst should hand a copy to peer when they
// meet. Delivery to the destination itself is not the algorithm's
// concern: the simulator enforces minimal progress (§4.1) and always
// delivers on an encounter with the destination. A rule keeps no state
// of its own: it reads only the View, so one value may be shared by
// concurrent simulations.
type Algorithm interface {
	Name() string
	Forward(v *View, holder, peer, dst trace.NodeID) bool
}

// Epidemic floods: every encounter transfers every missing message
// (Vahdat & Becker). It attains the optimal delay and success rate and
// upper-bounds every other algorithm. The simulator recognizes it by
// type: it floods without calling Forward and keeps no View.
type Epidemic struct{}

func (Epidemic) Name() string { return "Epidemic" }

func (Epidemic) Forward(*View, trace.NodeID, trace.NodeID, trace.NodeID) bool {
	return true
}

// FRESH forwards to nodes that met the destination more recently
// (Dubois-Ferriere, Grossglauser & Vetterli's encounter-age routing):
// single-hop, destination-aware, recent history only.
type FRESH struct{}

func (FRESH) Name() string { return "FRESH" }

func (FRESH) Forward(v *View, holder, peer, dst trace.NodeID) bool {
	return v.LastEncounter(peer, dst) > v.LastEncounter(holder, dst)
}

// Greedy forwards to nodes that met the destination more often since
// the start of the simulation: destination-aware, complete past
// history.
type Greedy struct{}

func (Greedy) Name() string { return "Greedy" }

func (Greedy) Forward(v *View, holder, peer, dst trace.NodeID) bool {
	return v.EncounterCount(peer, dst) > v.EncounterCount(holder, dst)
}

// GreedyTotal forwards to nodes with more total contacts over the
// whole trace: destination-unaware, past and future knowledge
// (an oracle).
type GreedyTotal struct{}

func (GreedyTotal) Name() string { return "Greedy Total" }

func (GreedyTotal) Forward(v *View, holder, peer, _ trace.NodeID) bool {
	return v.TotalContacts(peer) > v.TotalContacts(holder)
}

// GreedyOnline forwards to nodes with more contacts so far:
// destination-unaware, past knowledge only.
type GreedyOnline struct{}

func (GreedyOnline) Name() string { return "Greedy Online" }

func (GreedyOnline) Forward(v *View, holder, peer, _ trace.NodeID) bool {
	return v.ContactsSoFar(peer) > v.ContactsSoFar(holder)
}

// DynamicProgramming forwards along the MEED expected-delay metric
// (Jain/Fall/Patra's Minimum Expected Delay, computed as in Jones et
// al.): the message moves to nodes strictly closer to the destination
// in expected delay. Past and future knowledge (an oracle).
type DynamicProgramming struct{}

func (DynamicProgramming) Name() string { return "Dynamic Programming" }

func (DynamicProgramming) Forward(v *View, holder, peer, dst trace.NodeID) bool {
	return v.MEEDDistance(peer, dst) < v.MEEDDistance(holder, dst)
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
