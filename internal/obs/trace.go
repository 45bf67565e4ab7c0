package obs

import (
	"sync/atomic"
	"time"
)

// Stage labels one instrumented phase of request processing. The set
// covers the expensive internals: the space-time graph build split
// into its event sweep and frame-fill halves, the enumeration dynamic
// program's shared prefix vs per-destination forked continuations, and
// the simulator's oracle derivation vs the warm replay.
type Stage uint8

const (
	// StageGraphSweep is the space-time graph builder's event sweep:
	// contact boundary bucketing and active-pair frame-spec emission.
	StageGraphSweep Stage = iota
	// StageGraphFrames is the graph builder's frame construction: CSR
	// rows, components, member lists and distance tables, plus the
	// stable-component marking pass.
	StageGraphFrames
	// StageEnumPrefix is the enumerator's destination-free
	// dynamic-program prefix, shared by a (source, start step) group.
	StageEnumPrefix
	// StageEnumFork is the enumerator's per-destination continuation:
	// forked off the prefix, or the prefix itself continued for a
	// group's last destination.
	StageEnumFork
	// StageOracleBuild is the simulator's oracle-table derivation
	// (contact totals and the sorted event stream).
	StageOracleBuild
	// StageSimRun is one warm simulation replay over prepared oracle
	// tables.
	StageSimRun

	// NumStages is the number of defined stages.
	NumStages = int(StageSimRun) + 1
)

// stageNames holds the snake_case metric/label names, index-aligned
// with the Stage constants.
var stageNames = [NumStages]string{
	"graph_sweep",
	"graph_frames",
	"enum_prefix",
	"enum_fork",
	"oracle_build",
	"sim_run",
}

// String returns the stage's metric label ("graph_sweep").
func (s Stage) String() string {
	if int(s) < NumStages {
		return stageNames[s]
	}
	return "unknown"
}

// StageNames returns the label of every stage in index order.
func StageNames() [NumStages]string { return stageNames }

// Trace accumulates per-stage wall time for one request. Spans started
// from it may run on any goroutine — the batch enumerator fans
// destinations out across workers — so accumulation is atomic. A nil
// *Trace is fully functional and free: Start returns an inert Span
// without reading the clock, so library callers and benchmarks that
// pass nil pay one pointer check per span site and nothing else.
// Traces are reusable via Reset (the serving layer pools them).
type Trace struct {
	// ID tags the request in logs and the X-Psn-Request header.
	ID uint64

	ns        [NumStages]atomic.Int64
	truncated atomic.Bool
}

// Reset clears the accumulated stage times for reuse.
func (t *Trace) Reset() {
	for i := range t.ns {
		t.ns[i].Store(0)
	}
	t.truncated.Store(false)
}

// MarkTruncated flags the trace as covering only part of its request:
// the serving layer sets it when a computation is abandoned at a
// cancellation checkpoint, so log lines carrying the stage breakdown
// can say the numbers undercount the work a full run would have done.
// No-op on a nil Trace.
func (t *Trace) MarkTruncated() {
	if t != nil {
		t.truncated.Store(true)
	}
}

// Truncated reports whether MarkTruncated was called since Reset.
func (t *Trace) Truncated() bool {
	return t != nil && t.truncated.Load()
}

// Start opens a span for stage s. On a nil Trace it returns an inert
// span and does not read the clock.
func (t *Trace) Start(s Stage) Span {
	if t == nil {
		return Span{}
	}
	return Span{t: t, s: s, t0: time.Now()}
}

// AddNs folds ns nanoseconds into stage s directly (used when the
// caller already measured the interval). No-op on a nil Trace.
func (t *Trace) AddNs(s Stage, ns int64) {
	if t == nil {
		return
	}
	t.ns[s].Add(ns)
}

// StageNs returns the nanoseconds accumulated for stage s.
func (t *Trace) StageNs(s Stage) int64 {
	if t == nil {
		return 0
	}
	return t.ns[s].Load()
}

// Span is one open stage interval. End is idempotent only in the sense
// that an inert (zero or nil-trace) span no-ops; a live span must End
// exactly once. Spans are plain values — passing them allocates
// nothing.
type Span struct {
	t  *Trace
	s  Stage
	t0 time.Time
}

// End closes the span, folding its elapsed time into the trace.
func (sp Span) End() {
	if sp.t == nil {
		return
	}
	sp.t.ns[sp.s].Add(int64(time.Since(sp.t0)))
}
