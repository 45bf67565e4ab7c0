package figures

import (
	"math"
	"testing"

	"repro/internal/dtnsim"
	"repro/internal/forward"
	"repro/internal/stgraph"
	"repro/internal/trace"
)

// TestEpidemicBracketsEnumeration states the epidemic–enumeration
// property on both sides, on studies of 64 messages at K 50 over all
// four datasets (seed 1 under -short, seeds 1–3 otherwise).
//
// Lower bound: epidemic delay ≥ T1 − Δ, and epidemic delivers only
// where enumeration found a path. A contact at any instant of a step
// is an edge for the whole step, so the dynamic program's first
// arrival step is never later than epidemic's delivery step; T1 is
// measured to the end of that step.
//
// Upper bound: epidemic delay ≤ the continuous-time replay of every
// enumerated arrival (see replayPath). Epidemic is the earliest
// time-respecting flood, so no replayable path delivers before it.
//
// Epidemic can still deliver after T1: the step graph chains contacts
// of one step in any order, so T1's paths may not replay within their
// step. Every such late delivery must be explained that way, which
// the upper bound implies; the test counts them.
func TestEpidemicBracketsEnumeration(t *testing.T) {
	seeds := []int64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	const delta, eps = stgraph.DefaultDelta, 1e-9
	for _, seed := range seeds {
		h := NewHarness(Params{Messages: 64, K: 50, Seed: seed})
		late, lateStep, minGap, maxGap := 0, 0, math.Inf(1), math.Inf(-1)
		for _, d := range h.P.Datasets {
			st, err := h.Study(d)
			if err != nil {
				t.Fatal(err)
			}
			sw, err := h.sweep(d)
			if err != nil {
				t.Fatal(err)
			}
			msgs := make([]dtnsim.Message, len(st.Results))
			for i, r := range st.Results {
				msgs[i] = dtnsim.Message{Src: r.Msg.Src, Dst: r.Msg.Dst, Start: r.Msg.Start}
			}
			sim, err := sw.Run(dtnsim.Config{Algorithm: forward.Epidemic{}, Messages: msgs})
			if err != nil {
				t.Fatal(err)
			}
			pairs := pairContacts(st.Trace)
			for i, r := range st.Results {
				o := sim.Outcomes[i]
				t1, found := r.T1()
				if o.Delivered && !found {
					t.Errorf("seed %d %v %+v: epidemic delivered after %g s, enumeration found no path", seed, d, r.Msg, o.Delay)
					continue
				}
				if o.Delivered {
					gap := o.Delay - t1
					minGap, maxGap = min(minGap, gap), max(maxGap, gap)
					if gap < -delta-eps {
						t.Errorf("seed %d %v %+v: epidemic delay %g below T1 %g − Δ", seed, d, r.Msg, o.Delay, t1)
					}
				}
				inStep := false
				for _, p := range r.Arrivals {
					at, ok := replayPath(pairs, p.Nodes(), r.Msg.Start)
					if !ok {
						continue
					}
					if !o.Delivered || o.Delay > at-r.Msg.Start+eps {
						t.Errorf("seed %d %v %+v: epidemic (delivered %v, delay %g) later than the replay of %v at %g s",
							seed, d, r.Msg, o.Delivered, o.Delay, p, at-r.Msg.Start)
						break
					}
					inStep = inStep || (p.Step == r.Arrivals[0].Step && at <= r.ArrivalTime(p)+eps)
				}
				if o.Delivered && o.Delay > t1+eps {
					late++
					if o.Delay > t1+delta+eps {
						lateStep++
					}
					if inStep {
						t.Errorf("seed %d %v %+v: epidemic delay %g after T1 %g, yet a T1 path replays within its step", seed, d, r.Msg, o.Delay, t1)
					}
				}
			}
		}
		t.Logf("seed %d: of %d messages, epidemic delivered %d after T1 and %d after T1 + Δ; epidemic − T1 in [%.2f, %.2f] s",
			seed, 64*len(h.P.Datasets), late, lateStep, minGap, maxGap)
	}
}

// pairContacts indexes a trace's contacts by unordered node pair,
// lower id first.
func pairContacts(tr *trace.Trace) map[[2]trace.NodeID][]trace.Contact {
	out := make(map[[2]trace.NodeID][]trace.Contact)
	for _, c := range tr.Contacts() {
		k := [2]trace.NodeID{min(c.A, c.B), max(c.A, c.B)}
		out[k] = append(out[k], c)
	}
	return out
}

// replayPath walks a path's node sequence from time start through the
// trace's contacts, taken as closed intervals [Start, End] (the
// simulator processes a contact's start before any end at the same
// instant). Each hop takes the earliest contact instant not before the
// previous hop. It returns the delivery instant, or ok=false when
// some hop has no such contact.
func replayPath(pairs map[[2]trace.NodeID][]trace.Contact, nodes []trace.NodeID, start float64) (float64, bool) {
	now := start
	for i := 1; i < len(nodes); i++ {
		a, b := nodes[i-1], nodes[i]
		best := math.Inf(1)
		for _, c := range pairs[[2]trace.NodeID{min(a, b), max(a, b)}] {
			if c.End >= now {
				best = min(best, max(c.Start, now))
			}
		}
		if math.IsInf(best, 1) {
			return 0, false
		}
		now = best
	}
	return now, true
}
