// Package trace models contact traces collected from short-range radio
// devices (the paper's Bluetooth iMotes). A trace is a set of contact
// records between pairs of nodes over a bounded time window, with all
// times expressed in seconds from the trace origin.
//
// The package provides the measurement primitives every analysis in the
// paper rests on: per-node contact counts and rates, the in/out
// (above/below-median rate) node classification of §5.2, the 1-minute
// contact binning of Fig 1, and time-window restriction used to carve
// the four 3-hour datasets out of longer collections.
package trace

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
)

// NodeID identifies a device in a trace. IDs are dense small integers
// in [0, NumNodes).
type NodeID int

// Contact is a single contact record: nodes A and B were within radio
// range from Start to End (seconds from trace origin). Contacts are
// symmetric: data can flow both ways while the contact lasts
// (the paper ignores asymmetry; see §3).
type Contact struct {
	A, B       NodeID
	Start, End float64
}

// Duration returns the length of the contact in seconds.
func (c Contact) Duration() float64 { return c.End - c.Start }

// Involves reports whether node n is one of the contact's endpoints.
func (c Contact) Involves(n NodeID) bool { return c.A == n || c.B == n }

// Peer returns the other endpoint of the contact, given one endpoint.
// It panics if n is not an endpoint.
func (c Contact) Peer(n NodeID) NodeID {
	switch n {
	case c.A:
		return c.B
	case c.B:
		return c.A
	}
	panic(fmt.Sprintf("trace: node %d not part of contact %v", n, c))
}

// Overlaps reports whether the contact is active at any point during
// [from, to).
func (c Contact) Overlaps(from, to float64) bool {
	return c.Start < to && c.End > from
}

// Trace is an immutable set of contacts between NumNodes nodes over
// [0, Horizon) seconds. Contacts are stored sorted by start time.
type Trace struct {
	Name     string
	NumNodes int
	Horizon  float64 // exclusive upper bound on contact times
	contacts []Contact
}

// ErrInvalid is wrapped by all validation errors returned from New.
var ErrInvalid = errors.New("invalid trace")

// New builds a Trace from a contact set, validating and sorting it.
// The contact slice is copied; the caller keeps ownership of its slice.
//
// Validation rules:
//   - numNodes > 0 and horizon > 0 and finite
//   - endpoints in range and distinct (no self-contacts)
//   - 0 <= Start <= End <= horizon for every contact, all finite
//     (a NaN time would make even the sort order undefined)
func New(name string, numNodes int, horizon float64, contacts []Contact) (*Trace, error) {
	if numNodes <= 0 {
		return nil, fmt.Errorf("%w: numNodes %d", ErrInvalid, numNodes)
	}
	if !(horizon > 0) || math.IsInf(horizon, 1) {
		return nil, fmt.Errorf("%w: horizon %g", ErrInvalid, horizon)
	}
	for i, c := range contacts {
		if c.A < 0 || int(c.A) >= numNodes || c.B < 0 || int(c.B) >= numNodes {
			return nil, fmt.Errorf("%w: contact %d endpoints (%d,%d) out of range [0,%d)",
				ErrInvalid, i, c.A, c.B, numNodes)
		}
		if c.A == c.B {
			return nil, fmt.Errorf("%w: contact %d is a self-contact on node %d", ErrInvalid, i, c.A)
		}
		if !(c.Start >= 0) || !(c.End >= c.Start) || !(c.End <= horizon) {
			return nil, fmt.Errorf("%w: contact %d times [%g,%g] outside [0,%g]",
				ErrInvalid, i, c.Start, c.End, horizon)
		}
	}
	// Contacts are stored in stable (Start, End) order. An unstable
	// sort under the total order (Start, End, input position) yields
	// exactly that order, without the merge passes that made
	// slices.SortStableFunc most of the cost of city-scale generation
	// (≥1M contacts). Only the keys are sorted; the contacts are then
	// gathered from the caller's slice into the trace's own copy.
	keys := make([]contactKey, len(contacts))
	for i, c := range contacts {
		keys[i] = contactKey{start: c.Start, end: c.End, pos: i}
	}
	slices.SortFunc(keys, func(a, b contactKey) int {
		if a.start != b.start {
			if a.start < b.start {
				return -1
			}
			return 1
		}
		if a.end != b.end {
			if a.end < b.end {
				return -1
			}
			return 1
		}
		return a.pos - b.pos
	})
	cs := make([]Contact, len(contacts))
	for r, k := range keys {
		cs[r] = contacts[k.pos]
	}
	return &Trace{Name: name, NumNodes: numNodes, Horizon: horizon, contacts: cs}, nil
}

// contactKey is a contact's sort key in New: its times and its
// position in the caller's slice.
type contactKey struct {
	start, end float64
	pos        int
}

// MustNew is like New but panics on error. Intended for tests and
// generators whose inputs are valid by construction.
func MustNew(name string, numNodes int, horizon float64, contacts []Contact) *Trace {
	t, err := New(name, numNodes, horizon, contacts)
	if err != nil {
		panic(err)
	}
	return t
}

// Contacts returns the trace's contacts sorted by start time. The
// returned slice is shared and must not be modified.
func (t *Trace) Contacts() []Contact { return t.contacts }

// Len returns the number of contact records.
func (t *Trace) Len() int { return len(t.contacts) }

// Window returns a new trace restricted to contacts overlapping
// [from, to), with times shifted so the window starts at 0 and
// clipped to the window. This is how the paper carves stable 3-hour
// periods out of multi-day collections (§3).
func (t *Trace) Window(name string, from, to float64) (*Trace, error) {
	if from < 0 || to <= from {
		return nil, fmt.Errorf("%w: window [%g,%g)", ErrInvalid, from, to)
	}
	var out []Contact
	for _, c := range t.contacts {
		if !c.Overlaps(from, to) {
			continue
		}
		s, e := c.Start, c.End
		if s < from {
			s = from
		}
		if e > to {
			e = to
		}
		out = append(out, Contact{A: c.A, B: c.B, Start: s - from, End: e - from})
	}
	return New(name, t.NumNodes, to-from, out)
}

// ContactCounts returns, for each node, the number of contact records
// it participates in. This is the quantity plotted in the paper's
// Fig 7 CDFs.
func (t *Trace) ContactCounts() []int {
	counts := make([]int, t.NumNodes)
	for _, c := range t.contacts {
		counts[c.A]++
		counts[c.B]++
	}
	return counts
}

// Rates returns each node's contact rate λᵢ in contacts per second:
// the node's contact count divided by the trace horizon.
func (t *Trace) Rates() []float64 {
	counts := t.ContactCounts()
	rates := make([]float64, len(counts))
	for i, n := range counts {
		rates[i] = float64(n) / t.Horizon
	}
	return rates
}

// TotalContactsPerBin returns the total number of contacts across all
// nodes in consecutive bins of binSize seconds — the paper's Fig 1
// time series (1-minute bins). A contact is counted in every bin it
// overlaps, reflecting the iMote logs where an ongoing contact keeps
// answering inquiry scans.
func (t *Trace) TotalContactsPerBin(binSize float64) []int {
	if binSize <= 0 {
		return nil
	}
	nbins := int(t.Horizon / binSize)
	if float64(nbins)*binSize < t.Horizon {
		nbins++
	}
	bins := make([]int, nbins)
	for _, c := range t.contacts {
		first := int(c.Start / binSize)
		last := int(c.End / binSize)
		if c.End == c.Start {
			last = first
		} else if float64(last)*binSize == c.End {
			last-- // end falls exactly on a bin boundary: exclusive
		}
		if last >= nbins {
			last = nbins - 1
		}
		for b := first; b <= last; b++ {
			bins[b]++
		}
	}
	return bins
}

// PairType classifies a (source, destination) pair by the contact-rate
// class of its endpoints (§5.2): in = rate above the median, out =
// rate at or below the median.
type PairType int

// Pair types, in the order the paper presents them (Fig 8, Fig 13).
const (
	InIn PairType = iota
	InOut
	OutIn
	OutOut
)

// PairTypes lists all four pair types in presentation order.
var PairTypes = [...]PairType{InIn, InOut, OutIn, OutOut}

func (p PairType) String() string {
	switch p {
	case InIn:
		return "in-in"
	case InOut:
		return "in-out"
	case OutIn:
		return "out-in"
	case OutOut:
		return "out-out"
	}
	return fmt.Sprintf("PairType(%d)", int(p))
}

// Classifier assigns nodes to the in (high contact rate) or out (low
// contact rate) set by comparing each node's rate to the population
// median, as in §5.2.
type Classifier struct {
	rates  []float64
	median float64
}

// NewClassifier builds a Classifier from the trace's contact rates.
func NewClassifier(t *Trace) *Classifier {
	rates := t.Rates()
	sorted := append([]float64(nil), rates...)
	sort.Float64s(sorted)
	var median float64
	n := len(sorted)
	if n > 0 {
		if n%2 == 1 {
			median = sorted[n/2]
		} else {
			median = (sorted[n/2-1] + sorted[n/2]) / 2
		}
	}
	return &Classifier{rates: rates, median: median}
}

// Median returns the median contact rate.
func (cl *Classifier) Median() float64 { return cl.median }

// Rate returns node n's contact rate.
func (cl *Classifier) Rate(n NodeID) float64 { return cl.rates[n] }

// IsIn reports whether node n belongs to the high-rate ("in") set.
func (cl *Classifier) IsIn(n NodeID) bool { return cl.rates[n] > cl.median }

// Classify returns the pair type for a (source, destination) pair.
func (cl *Classifier) Classify(src, dst NodeID) PairType {
	switch {
	case cl.IsIn(src) && cl.IsIn(dst):
		return InIn
	case cl.IsIn(src):
		return InOut
	case cl.IsIn(dst):
		return OutIn
	default:
		return OutOut
	}
}

// InNodes returns the IDs of all high-rate nodes.
func (cl *Classifier) InNodes() []NodeID {
	var out []NodeID
	for i := range cl.rates {
		if cl.IsIn(NodeID(i)) {
			out = append(out, NodeID(i))
		}
	}
	return out
}

// OutNodes returns the IDs of all low-rate nodes.
func (cl *Classifier) OutNodes() []NodeID {
	var out []NodeID
	for i := range cl.rates {
		if !cl.IsIn(NodeID(i)) {
			out = append(out, NodeID(i))
		}
	}
	return out
}
