package benchsuite

import (
	"testing"
)

// Allocation budgets for the enumeration hot paths, in bytes per
// operation. These are regression tripwires, not targets: each budget
// sits a comfortable margin above the measured value at the time it
// was set, and far below the regression it guards against.
const (
	// EnumerateConferenceMessage measured ~14 MB/op after the arena
	// retention and scratch-reuse work (down from a 370 MB/op
	// transient); 64 MB catches any reintroduction of per-call path
	// or row slab churn while staying ~4.5x above normal.
	conferenceMessageBytesBudget = 64 << 20

	// EnumerateBatchSharedPrefix runs 16 continuations off one shared
	// prefix: 15 forks, recycling one fork scratch across them, and
	// the base itself, which the last destination continues on;
	// measured ~22 MB/op. The 64 MB budget bounds the per-batch transient — a
	// breach means the fork recycling broke and every destination is
	// paying a full enumeration's scratch again.
	batchSharedPrefixBytesBudget = 64 << 20

	// ServeEnumerateWarm measured 109 allocs/op before the
	// observability layer and 114 after (request ID string, header
	// value; the slow-request check is branch-only): the histogram
	// records and stage spans themselves are allocation-free, and this
	// budget holds the whole envelope to at most 8 allocations over the
	// pre-observability baseline.
	serveWarmAllocsBudget = 117
)

// TestEnumerateConferenceMessageBytesBudget pins the explosion-scale
// single-message enumeration's transient allocations. The pooled
// scratch (tables, path arena within its ~16 MB retention cap) is
// warmed by the benchmark's own iterations, so steady-state B/op
// reflects only per-call transients: result materialization plus
// whatever slab chunks spill past the retention cap.
func TestEnumerateConferenceMessageBytesBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("explosion-scale benchmark in -short mode")
	}
	r := testing.Benchmark(EnumerateConferenceMessage)
	if r.N == 0 {
		t.Fatal("benchmark failed")
	}
	if got := r.AllocedBytesPerOp(); got > conferenceMessageBytesBudget {
		t.Errorf("EnumerateConferenceMessage allocates %d B/op, budget %d",
			got, int64(conferenceMessageBytesBudget))
	}
}

// TestEnumerateBatchSharedPrefixBytesBudget pins the grouped batch
// path's transient allocations, fork scratches included.
func TestEnumerateBatchSharedPrefixBytesBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("explosion-scale benchmark in -short mode")
	}
	r := testing.Benchmark(EnumerateBatchSharedPrefix)
	if r.N == 0 {
		t.Fatal("benchmark failed")
	}
	if got := r.AllocedBytesPerOp(); got > batchSharedPrefixBytesBudget {
		t.Errorf("EnumerateBatchSharedPrefix allocates %d B/op, budget %d",
			got, int64(batchSharedPrefixBytesBudget))
	}
}

// TestServeEnumerateWarmAllocsBudget pins the warm serving path's
// allocations per request, observability envelope included: latency
// histogram record, stage-trace pooling, request-ID header. A breach
// means per-request instrumentation started allocating.
func TestServeEnumerateWarmAllocsBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("serving benchmark in -short mode")
	}
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items at random")
	}
	r := testing.Benchmark(ServeEnumerateWarm)
	if r.N == 0 {
		t.Fatal("benchmark failed")
	}
	if got := r.AllocsPerOp(); got > serveWarmAllocsBudget {
		t.Errorf("ServeEnumerateWarm allocates %d allocs/op, budget %d",
			got, int64(serveWarmAllocsBudget))
	}
}
