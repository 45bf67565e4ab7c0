package service

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// metrics holds the server's operational state exposed in Prometheus
// text format on /metrics: monotonic counters (requests, status codes,
// shed, cache), an in-flight gauge, per-endpoint request latency
// histograms, per-stage span histograms, and runtime gauges.
// Histograms are lock-free (see internal/obs); recording a request
// costs a handful of atomic adds and no allocation.
type metrics struct {
	inflight atomic.Int64
	rejected atomic.Int64 // requests shed by the in-flight limit
	panics   atomic.Int64 // handler panics contained by the recovery middleware

	// Requests abandoned at a cooperative cancellation checkpoint, by
	// reason (indexed by the reason* constants). Sheds of waiters whose
	// singleflight leader was canceled count as neither — their own
	// token never fired.
	cancelledBy [numCancelReasons]atomic.Int64

	mu       sync.Mutex
	requests map[string]*int64 // per-endpoint request counter
	statuses map[int]*int64    // per-status-code response counter

	// latency[endpoint] is the endpoint's request-duration histogram.
	// The map is fully populated while the mux is wired (before any
	// request) and read-only afterwards, so lookups are lock-free.
	latency map[string]*obs.Histogram

	// stages[s] aggregates obs.Stage s across all requests: each
	// request's accumulated stage time is folded in once at completion,
	// so the histogram's count is "requests that exercised this stage"
	// and its distribution is per-request stage cost.
	stages [obs.NumStages]*obs.Histogram
}

// Cancellation reasons for psn_cancelled_total.
const (
	reasonDeadline = iota // the request's deadline passed
	reasonClient          // the client disconnected first
	numCancelReasons
)

var cancelReasonNames = [numCancelReasons]string{"deadline", "client"}

// cancelled counts one abandoned request under its reason label.
func (m *metrics) cancelled(reason int) {
	m.cancelledBy[reason].Add(1)
}

func newMetrics() *metrics {
	m := &metrics{
		requests: make(map[string]*int64),
		statuses: make(map[int]*int64),
		latency:  make(map[string]*obs.Histogram),
	}
	for i := range m.stages {
		m.stages[i] = &obs.Histogram{}
	}
	return m
}

// histFor returns (creating on first use) the latency histogram of an
// endpoint. Only called during mux wiring — single-goroutine — so the
// map needs no lock; requests hit the prebuilt histograms directly.
func (m *metrics) histFor(endpoint string) *obs.Histogram {
	h, ok := m.latency[endpoint]
	if !ok {
		h = &obs.Histogram{}
		m.latency[endpoint] = h
	}
	return h
}

// recordStages folds one finished request's per-stage span times into
// the global stage histograms.
func (m *metrics) recordStages(t *obs.Trace) {
	for i := range m.stages {
		if ns := t.StageNs(obs.Stage(i)); ns > 0 {
			m.stages[i].RecordNs(ns)
		}
	}
}

func (m *metrics) countRequest(endpoint string) {
	m.mu.Lock()
	c, ok := m.requests[endpoint]
	if !ok {
		c = new(int64)
		m.requests[endpoint] = c
	}
	m.mu.Unlock()
	atomic.AddInt64(c, 1)
}

func (m *metrics) countStatus(code int) {
	m.mu.Lock()
	c, ok := m.statuses[code]
	if !ok {
		c = new(int64)
		m.statuses[code] = c
	}
	m.mu.Unlock()
	atomic.AddInt64(c, 1)
}

// write emits the Prometheus text exposition. cache supplies the
// result-cache counters, reg the degraded-dataset gauge.
func (m *metrics) write(w io.Writer, cache *memoMap[string, []byte], reg *Registry) {
	fmt.Fprintf(w, "# HELP psn_requests_total Requests received, by endpoint.\n")
	fmt.Fprintf(w, "# TYPE psn_requests_total counter\n")
	m.mu.Lock()
	endpoints := make([]string, 0, len(m.requests))
	for e := range m.requests {
		endpoints = append(endpoints, e)
	}
	sort.Strings(endpoints)
	for _, e := range endpoints {
		fmt.Fprintf(w, "psn_requests_total{endpoint=%q} %d\n", e, atomic.LoadInt64(m.requests[e]))
	}
	codes := make([]int, 0, len(m.statuses))
	for c := range m.statuses {
		codes = append(codes, c)
	}
	sort.Ints(codes)
	m.mu.Unlock()

	fmt.Fprintf(w, "# HELP psn_responses_total Responses sent, by HTTP status code.\n")
	fmt.Fprintf(w, "# TYPE psn_responses_total counter\n")
	for _, c := range codes {
		m.mu.Lock()
		v := atomic.LoadInt64(m.statuses[c])
		m.mu.Unlock()
		fmt.Fprintf(w, "psn_responses_total{code=\"%d\"} %d\n", c, v)
	}

	fmt.Fprintf(w, "# HELP psn_inflight_requests Experiment requests currently executing.\n")
	fmt.Fprintf(w, "# TYPE psn_inflight_requests gauge\n")
	fmt.Fprintf(w, "psn_inflight_requests %d\n", m.inflight.Load())

	fmt.Fprintf(w, "# HELP psn_rejected_total Requests shed by the in-flight limit.\n")
	fmt.Fprintf(w, "# TYPE psn_rejected_total counter\n")
	fmt.Fprintf(w, "psn_rejected_total %d\n", m.rejected.Load())

	fmt.Fprintf(w, "# HELP psn_panics_total Handler panics contained by the recovery middleware.\n")
	fmt.Fprintf(w, "# TYPE psn_panics_total counter\n")
	fmt.Fprintf(w, "psn_panics_total %d\n", m.panics.Load())

	fmt.Fprintf(w, "# HELP psn_cancelled_total Requests abandoned at a cancellation checkpoint, by reason.\n")
	fmt.Fprintf(w, "# TYPE psn_cancelled_total counter\n")
	for i, name := range cancelReasonNames {
		fmt.Fprintf(w, "psn_cancelled_total{reason=%q} %d\n", name, m.cancelledBy[i].Load())
	}

	hits, misses, entries := cache.stats()
	fmt.Fprintf(w, "# HELP psn_result_cache_hits_total Result-cache hits.\n")
	fmt.Fprintf(w, "# TYPE psn_result_cache_hits_total counter\n")
	fmt.Fprintf(w, "psn_result_cache_hits_total %d\n", hits)
	fmt.Fprintf(w, "# HELP psn_result_cache_misses_total Result-cache misses.\n")
	fmt.Fprintf(w, "# TYPE psn_result_cache_misses_total counter\n")
	fmt.Fprintf(w, "psn_result_cache_misses_total %d\n", misses)
	fmt.Fprintf(w, "# HELP psn_result_cache_entries Result-cache resident entries.\n")
	fmt.Fprintf(w, "# TYPE psn_result_cache_entries gauge\n")
	fmt.Fprintf(w, "psn_result_cache_entries %d\n", entries)

	fmt.Fprintf(w, "# HELP psn_degraded_datasets Datasets currently in a build-failure backoff window.\n")
	fmt.Fprintf(w, "# TYPE psn_degraded_datasets gauge\n")
	fmt.Fprintf(w, "psn_degraded_datasets %d\n", len(reg.degraded()))

	// Request latency histograms, one labeled series set per endpoint
	// that has served at least one request (the exposition stays
	// proportional to actual traffic; all-zero histograms add nothing).
	fmt.Fprintf(w, "# HELP psn_request_duration_seconds Request latency by endpoint (wall time inside the handler wrapper).\n")
	fmt.Fprintf(w, "# TYPE psn_request_duration_seconds histogram\n")
	for _, e := range endpoints {
		h, ok := m.latency[e]
		if !ok {
			continue
		}
		s := h.Snapshot()
		if s.Count == 0 {
			continue
		}
		s.WritePrometheus(w, "psn_request_duration_seconds", fmt.Sprintf("endpoint=%q", e))
	}

	// Stage span histograms: per-request accumulated time in each
	// instrumented internal phase (see internal/obs stage docs).
	fmt.Fprintf(w, "# HELP psn_stage_duration_seconds Per-request time in instrumented internal stages.\n")
	fmt.Fprintf(w, "# TYPE psn_stage_duration_seconds histogram\n")
	names := obs.StageNames()
	for i := range m.stages {
		s := m.stages[i].Snapshot()
		if s.Count == 0 {
			continue
		}
		s.WritePrometheus(w, "psn_stage_duration_seconds", fmt.Sprintf("stage=%q", names[i]))
	}

	writeRuntimeGauges(w)
}

// writeRuntimeGauges emits process runtime gauges: goroutines, heap,
// cumulative GC pause time, GC cycles and GOMAXPROCS. ReadMemStats
// briefly stops the world, which is acceptable at metrics-scrape
// frequency and keeps the probe dependency-free.
func writeRuntimeGauges(w io.Writer) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)

	fmt.Fprintf(w, "# HELP psn_goroutines Current goroutine count.\n")
	fmt.Fprintf(w, "# TYPE psn_goroutines gauge\n")
	fmt.Fprintf(w, "psn_goroutines %d\n", runtime.NumGoroutine())

	fmt.Fprintf(w, "# HELP psn_gomaxprocs GOMAXPROCS setting.\n")
	fmt.Fprintf(w, "# TYPE psn_gomaxprocs gauge\n")
	fmt.Fprintf(w, "psn_gomaxprocs %d\n", runtime.GOMAXPROCS(0))

	fmt.Fprintf(w, "# HELP psn_heap_alloc_bytes Bytes of allocated heap objects.\n")
	fmt.Fprintf(w, "# TYPE psn_heap_alloc_bytes gauge\n")
	fmt.Fprintf(w, "psn_heap_alloc_bytes %d\n", ms.HeapAlloc)

	fmt.Fprintf(w, "# HELP psn_heap_sys_bytes Bytes of heap obtained from the OS.\n")
	fmt.Fprintf(w, "# TYPE psn_heap_sys_bytes gauge\n")
	fmt.Fprintf(w, "psn_heap_sys_bytes %d\n", ms.HeapSys)

	fmt.Fprintf(w, "# HELP psn_gc_pause_seconds_total Cumulative stop-the-world GC pause time.\n")
	fmt.Fprintf(w, "# TYPE psn_gc_pause_seconds_total counter\n")
	fmt.Fprintf(w, "psn_gc_pause_seconds_total %g\n", float64(ms.PauseTotalNs)/1e9)

	fmt.Fprintf(w, "# HELP psn_gc_cycles_total Completed GC cycles.\n")
	fmt.Fprintf(w, "# TYPE psn_gc_cycles_total counter\n")
	fmt.Fprintf(w, "psn_gc_cycles_total %d\n", ms.NumGC)
}
