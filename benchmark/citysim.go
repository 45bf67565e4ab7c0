package main

import (
	"fmt"
	"strings"
	"time"

	psn "repro"
)

// algKey is an algorithm's name as a metric-name suffix
// ("Greedy Total" → "greedy-total").
func algKey(name string) string { return strings.ToLower(strings.ReplaceAll(name, " ", "-")) }

type citySim struct {
	tr *psn.Trace
	sw *psn.SimSweep
}

// runCitySim replays the paper's forwarding comparison on the city
// trace. One operation is a cycle: the six paper algorithms, one after
// another, on one Poisson message workload whose seed is split from the
// run seed per cycle. Set-up generates the trace, builds the sweep,
// resolves its lazy MEED table, which only Dynamic Programming reads
// and which would otherwise land in the first timed cycle, and runs one
// small uncounted cycle.
func runCitySim(c config) (*outcome, error) {
	o := newOutcome()
	st, setups, err := repeatSetup(c, c.sc.setupReps, func() (*citySim, error) {
		s := &citySim{}
		if err := c.tr.do("tracegen.generate", -1, -1, func() (err error) { s.tr, err = c.sc.city(); return err }); err != nil {
			return nil, err
		}
		if err := c.tr.do("dtnsim.sweep_build", -1, -1, func() (err error) { s.sw, err = psn.NewSimSweep(s.tr); return err }); err != nil {
			return nil, err
		}
		c.tr.do("dtnsim.meed", -1, -1, func() error { s.sw.Oracle().MEED(); return nil })
		// One uncounted cycle on a quarter-size workload fills the
		// sweep's pool of per-worker simulation state.
		warm := psn.SimWorkload(s.tr, c.sc.simRate/4, s.tr.Horizon*2/3, psn.DeriveSeed(c.seed, -1))
		for _, alg := range psn.PaperAlgorithms() {
			if err := c.tr.do("dtnsim.run."+algKey(alg.Name()), -1, -1, func() error {
				_, err := s.sw.Run(psn.SimConfig{Algorithm: alg, Messages: warm})
				return err
			}); err != nil {
				return nil, err
			}
		}
		return s, nil
	})
	if err != nil {
		return nil, fmt.Errorf("city-sim set-up: %w", err)
	}

	algs := psn.PaperAlgorithms()
	var lat []time.Duration
	var allocs []float64
	var transmissions, delivered, messages int
	d := newDigester()
	before := readRuntime()
	start := time.Now()
	cycle := 0
	for ; cycle == 0 || time.Since(start) < c.window; cycle++ {
		msgs := psn.SimWorkload(st.tr, c.sc.simRate, st.tr.Horizon*2/3, psn.DeriveSeed(c.seed, cycle))
		results := make([]*psn.SimResult, len(algs))
		op := c.tr.begin("op.city-sim", -1, cycle)
		t := time.Now()
		for k, alg := range algs {
			var a0 uint64
			if c.tr != nil {
				a0 = heapAllocs()
			}
			err := c.tr.do("dtnsim.run."+algKey(alg.Name()), op, cycle, func() (err error) {
				results[k], err = st.sw.Run(psn.SimConfig{Algorithm: alg, Messages: msgs})
				return err
			})
			if c.tr != nil {
				allocs = append(allocs, float64(heapAllocs()-a0)/(1<<20))
			}
			o.attempted++
			if err != nil {
				o.fail("city-sim cycle %d %s: %v", cycle, alg.Name(), err)
			}
		}
		lat = append(lat, time.Since(t))
		c.tr.end(op)
		c.tr.do("bench.check", -1, cycle, func() error {
			checkEpidemicBound(o, cycle, msgs, results)
			if cycle == 0 {
				for _, r := range results {
					if r == nil {
						continue
					}
					d.add("%s %d\n", r.Algorithm, r.Transmissions)
					for _, oc := range r.Outcomes {
						d.add("%t %g %d\n", oc.Delivered, oc.Delay, oc.Hops)
						delivered += btoi(oc.Delivered)
					}
					transmissions += r.Transmissions
					messages += len(r.Outcomes)
				}
			}
			return nil
		})
	}
	after := readRuntime()
	o.digest = d.sum()

	o.setEndToEnd(setups, lat, lat)
	o.setRuntime(before, after, cycle)
	o.set("dtnsim.transmissions", "count", float64(transmissions))
	o.set("dtnsim.delivered_ratio", "ratio", float64(delivered)/float64(max(messages, 1)))
	if c.tr != nil {
		o.set("dtnsim.alloc_mb", "MB", mean(allocs))
	}
	return o, nil
}

// checkEpidemicBound records a failure for every run that beats
// epidemic forwarding on some message. Epidemic floods every contact,
// so it delivers each message another algorithm delivers, no later.
func checkEpidemicBound(o *outcome, cycle int, msgs []psn.SimMessage, results []*psn.SimResult) {
	epi := results[0]
	if epi == nil || epi.Algorithm != "Epidemic" || len(epi.Outcomes) != len(msgs) {
		o.fail("city-sim cycle %d: no epidemic result with one outcome per message", cycle)
		return
	}
	for _, r := range results[1:] {
		if r == nil {
			continue
		}
		if len(r.Outcomes) != len(msgs) {
			o.fail("city-sim cycle %d %s: %d outcomes for %d messages", cycle, r.Algorithm, len(r.Outcomes), len(msgs))
			continue
		}
		for i, oc := range r.Outcomes {
			e := epi.Outcomes[i]
			if oc.Msg != msgs[i] || e.Msg != msgs[i] {
				o.fail("city-sim cycle %d %s: outcome %d is not message %d", cycle, r.Algorithm, i, i)
				break
			}
			if oc.Delivered && (!e.Delivered || e.Delay > oc.Delay) {
				o.fail("city-sim cycle %d %s: message %d delivered in %gs, epidemic %t in %gs",
					cycle, r.Algorithm, i, oc.Delay, e.Delivered, e.Delay)
				break
			}
		}
	}
}
