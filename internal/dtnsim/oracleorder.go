package dtnsim

import (
	"fmt"
	"runtime"

	"repro/internal/trace"
)

// EventOrder returns the oracle's sorted contact event stream as a
// permutation over event codes: code 2i is contact i's start, code
// 2i+1 its end (i indexing the trace's sorted contact slice). Together
// with the trace it fully determines the oracle — times, endpoints and
// kinds are all recoverable from the contact records — so
// NewOracleFromOrder rebuilds identical tables from it without
// re-running the event sort.
func (o *Oracle) EventOrder() []int32 {
	out := make([]int32, len(o.events))
	for i, ev := range o.events {
		out[i] = ev.seq
	}
	return out
}

// NewOracleFromOrder rebuilds an Oracle for tr from an EventOrder
// permutation. The order is validated completely: it must be a
// permutation of the 2·Len() event codes whose decoded events are
// strictly increasing under the package's (time, kind, seq) total
// order. Since that order has exactly one sorted arrangement, a
// validated order proves the rebuilt event stream is byte-identical to
// what NewOracle computes — a corrupted or mismatched order cannot
// produce a subtly different replay, only an error here.
func NewOracleFromOrder(tr *trace.Trace, order []int32) (*Oracle, error) {
	if tr == nil {
		return nil, fmt.Errorf("dtnsim: nil trace")
	}
	cs := tr.Contacts()
	if len(order) != 2*len(cs) {
		return nil, fmt.Errorf("dtnsim: event order has %d entries for %d contacts", len(order), len(cs))
	}
	seen := make([]uint64, (len(order)+63)/64)
	events := make([]event, len(order))
	for k, code := range order {
		if code < 0 || int(code) >= len(order) {
			return nil, fmt.Errorf("dtnsim: event order entry %d: code %d out of range", k, code)
		}
		if seen[code>>6]&(1<<(uint(code)&63)) != 0 {
			return nil, fmt.Errorf("dtnsim: event order entry %d: duplicate code %d", k, code)
		}
		seen[code>>6] |= 1 << (uint(code) & 63)
		c := cs[code/2]
		if code%2 == 0 {
			events[k] = event{time: c.Start, kind: evContactStart, a: int16(c.A), b: int16(c.B), seq: code}
		} else {
			events[k] = event{time: c.End, kind: evContactEnd, a: int16(c.A), b: int16(c.B), seq: code}
		}
		if k > 0 && !eventBefore(events[k-1], events[k]) {
			return nil, fmt.Errorf("dtnsim: event order entry %d: code %d out of sort order", k, code)
		}
	}
	return &Oracle{
		tr:     tr,
		totals: tr.ContactCounts(),
		events: events,
	}, nil
}

// NewSweepFromOracle prepares a sweep around a prebuilt oracle (for
// example one restored by NewOracleFromOrder), skipping the event-list
// construction NewSweep performs. Runs through the returned sweep are
// byte-identical to runs through NewSweep(o.Trace()).
func NewSweepFromOracle(o *Oracle) (*Sweep, error) {
	if o == nil {
		return nil, fmt.Errorf("dtnsim: nil oracle")
	}
	return &Sweep{
		tr:      o.tr,
		oracle:  o,
		poolCap: max(4, runtime.GOMAXPROCS(0)),
	}, nil
}
