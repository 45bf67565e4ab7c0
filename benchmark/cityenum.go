package main

import (
	"fmt"
	"math/rand/v2"
	"time"

	psn "repro"
)

// endpoints draws two distinct nodes of n and a start time in the first
// two thirds of a trace of the given horizon, as the paper's workloads
// do.
func endpoints(rng *rand.Rand, n int, horizon float64) (src, dst int, start float64) {
	src = rng.IntN(n)
	dst = rng.IntN(n - 1)
	if dst >= src {
		dst++
	}
	return src, dst, rng.Float64() * horizon * 2 / 3
}

// cityMessage draws message i of a run from its own stream split from
// the run seed, so the sequence does not depend on how many messages a
// run reaches.
func cityMessage(tr *psn.Trace, seed int64, i int) psn.PathMessage {
	src, dst, start := endpoints(rand.New(rand.NewPCG(uint64(seed), uint64(i))), tr.NumNodes, tr.Horizon)
	return psn.PathMessage{Src: psn.NodeID(src), Dst: psn.NodeID(dst), Start: start}
}

// enumWarmup is how many uncounted messages set-up enumerates. On the
// city trace at k 10 the first 32 messages after the enumerator is
// built took 0.36 s, and 0.29–0.31 s when enumerated again: the
// enumerator's pooled scratch grows and its memory is first touched
// during them.
const enumWarmup = 32

type cityEnum struct {
	tr *psn.Trace
	g  *psn.SpaceTimeGraph
	e  *psn.Enumerator
}

// runCityEnum enumerates single messages, one after another, on the
// city trace: wide-mode path enumeration. Set-up generates the trace,
// builds the space-time graph and the enumerator, and runs enumWarmup
// uncounted messages.
func runCityEnum(c config) (*outcome, error) {
	o := newOutcome()
	var graphAllocs []float64
	st, setups, err := repeatSetup(c, c.sc.setupReps, func() (*cityEnum, error) {
		s := &cityEnum{}
		if err := c.tr.do("tracegen.generate", -1, -1, func() (err error) { s.tr, err = c.sc.city(); return err }); err != nil {
			return nil, err
		}
		a0 := heapAllocs()
		if err := c.tr.do("stgraph.build", -1, -1, func() (err error) {
			s.g, err = psn.NewSpaceTimeGraph(s.tr, psn.DefaultDelta)
			return err
		}); err != nil {
			return nil, err
		}
		graphAllocs = append(graphAllocs, float64(heapAllocs()-a0)/(1<<20))
		if err := c.tr.do("pathenum.new", -1, -1, func() (err error) {
			s.e, err = psn.NewEnumeratorWithGraph(s.tr, s.g, psn.EnumOptions{K: c.sc.enumK})
			return err
		}); err != nil {
			return nil, err
		}
		err := c.tr.do("pathenum.enumerate", -1, -1, func() error {
			for j := 1; j <= enumWarmup; j++ {
				if _, err := s.e.Enumerate(cityMessage(s.tr, c.seed, -j)); err != nil {
					return err
				}
			}
			return nil
		})
		return s, err
	})
	if err != nil {
		return nil, fmt.Errorf("city-enum set-up: %w", err)
	}

	var lat []time.Duration
	var allocs []float64
	var arrivals, hops, exhausted int
	d := newDigester()
	before := readRuntime()
	start := time.Now()
	i := 0
	for ; i < c.sc.enumCount || time.Since(start) < c.window; i++ {
		msg := cityMessage(st.tr, c.seed, i)
		var res *psn.EnumResult
		op := c.tr.begin("op.city-enum", -1, i)
		var a0 uint64
		if c.tr != nil {
			a0 = heapAllocs()
		}
		t := time.Now()
		err := c.tr.do("pathenum.enumerate", op, i, func() (err error) { res, err = st.e.Enumerate(msg); return err })
		dt := time.Since(t)
		if c.tr != nil {
			allocs = append(allocs, float64(heapAllocs()-a0)/(1<<20))
		}
		c.tr.end(op)
		lat = append(lat, dt)
		o.attempted++
		if err != nil {
			o.fail("city-enum message %d %+v: %v", i, msg, err)
			continue
		}
		c.tr.do("bench.check", -1, i, func() error {
			if bad := checkArrivals(st.g, msg, res); bad != "" {
				o.fail("city-enum message %d %+v: %s", i, msg, bad)
			}
			if i < c.sc.enumCount {
				d.add("%d %d %g %t %d\n", msg.Src, msg.Dst, msg.Start, res.Exhausted, len(res.Arrivals))
				for _, p := range res.Arrivals {
					d.add("%v %v\n", p.Nodes(), p.Steps())
					hops += p.Hops
				}
				arrivals += len(res.Arrivals)
				exhausted += btoi(res.Exhausted)
			}
			return nil
		})
	}
	after := readRuntime()
	o.digest = d.sum()

	o.setEndToEnd(setups, lat, lat)
	o.setRuntime(before, after, i)
	o.set("stgraph.frames", "count", float64(st.g.NumFrames()))
	o.set("pathenum.arrivals", "count", float64(arrivals))
	o.set("pathenum.hops", "count", float64(hops))
	o.set("pathenum.exhausted_ratio", "ratio", float64(exhausted)/float64(c.sc.enumCount))
	if c.tr != nil {
		o.set("stgraph.build_alloc_mb", "MB", median(graphAllocs))
		o.set("pathenum.alloc_mb", "MB", mean(allocs))
	}
	return o, nil
}

// checkArrivals returns what is wrong with an enumeration result, or ""
// when every arrival path runs from the source to the destination
// without revisiting a node, joins nodes at non-decreasing steps no
// earlier than the message's start step, and crosses a contact of the
// space-time graph at every hop; and arrivals come in step order.
func checkArrivals(g *psn.SpaceTimeGraph, msg psn.PathMessage, res *psn.EnumResult) string {
	s0 := g.StepOf(msg.Start)
	prev := -1
	for k, p := range res.Arrivals {
		nodes, steps := p.Nodes(), p.Steps()
		switch {
		case len(nodes) < 2 || len(nodes) != len(steps):
			return fmt.Sprintf("arrival %d: %d nodes, %d steps", k, len(nodes), len(steps))
		case nodes[0] != msg.Src || nodes[len(nodes)-1] != msg.Dst:
			return fmt.Sprintf("arrival %d %v does not run from %d to %d", k, nodes, msg.Src, msg.Dst)
		case steps[0] < s0:
			return fmt.Sprintf("arrival %d starts at step %d before the message's step %d", k, steps[0], s0)
		case p.Step < prev:
			return fmt.Sprintf("arrival %d at step %d after one at step %d", k, p.Step, prev)
		}
		prev = p.Step
		for i := 1; i < len(nodes); i++ {
			for _, n := range nodes[:i] {
				if n == nodes[i] {
					return fmt.Sprintf("arrival %d %v revisits node %d", k, nodes, n)
				}
			}
			if steps[i] < steps[i-1] {
				return fmt.Sprintf("arrival %d steps %v decrease", k, steps)
			}
			if !g.InContact(steps[i], nodes[i-1], nodes[i]) {
				return fmt.Sprintf("arrival %d hop %d->%d at step %d has no contact", k, nodes[i-1], nodes[i], steps[i])
			}
		}
	}
	return ""
}
