package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"os"
	"runtime/debug"
	"runtime/metrics"
	"syscall"
	"time"
)

// config is one run of one workload.
type config struct {
	seed   int64
	window time.Duration // how long the timed operations run
	tr     *tracer       // nil for an untraced run
	sc     scale
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what a workload run measured and checked.
type outcome struct {
	attempted int
	failed    int
	problems  []string // first few failed checks, for the log
	metrics   map[string]metric
	digest    string // of the results every run computes, however long it runs
	notes     []string
}

func newOutcome() *outcome { return &outcome{metrics: make(map[string]metric)} }

func (o *outcome) set(name, unit string, v float64) { o.metrics[name] = metric{v, unit} }

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// fail records a failed operation or output check.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.problems) < 10 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// setEndToEnd sets the end-to-end metrics every workload reports from
// its set-up times, per-operation latencies, and the intervals between
// completions that ops_per_s is taken over (see medianRate). For a
// workload that runs one operation at a time those intervals are the
// latencies, so the benchmark's own output checks between operations do
// not dilute the rate.
func (o *outcome) setEndToEnd(setups, lat, completions []time.Duration) {
	o.set("setup_s", "s", median(secsAll(setups)))
	l := msAll(lat)
	o.set("op_p50_ms", "ms", median(l))
	p := tailPercentile(len(l))
	o.set("op.tail_ms", "ms", percentile(l, p))
	o.note("op.tail_ms is p%g of %d operations", p, len(l))
	o.set("ops_per_s", "1/s", medianRate(completions))
	o.set("max_rss_mb", "MB", maxRSSMB())
}

// repeatSetup runs build reps times, timing each, and keeps the last
// result: set-up time is reported as the median so that one slow
// set-up does not decide it. Garbage from earlier repetitions is
// returned to the OS before the next one starts, so peak memory is
// that of one set-up.
func repeatSetup[T any](c config, reps int, build func() (T, error)) (T, []time.Duration, error) {
	var v T
	var times []time.Duration
	for rep := 0; rep < reps; rep++ {
		var zero T
		v = zero // so that the collection below frees the previous set-up
		c.tr.do("bench.gc", -1, -1, func() error { debug.FreeOSMemory(); return nil })
		t := time.Now()
		var err error
		if v, err = build(); err != nil {
			return v, nil, err
		}
		times = append(times, time.Since(t))
	}
	return v, times, nil
}

// runtimeStats is a reading of the Go runtime's cumulative counters.
type runtimeStats struct {
	gcCycles        uint64
	alloc           uint64
	gcCPU, totalCPU float64 // seconds
	idleCPU         float64
}

func readRuntime() runtimeStats {
	s := []metrics.Sample{
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeStats{s[0].Value.Uint64(), s[1].Value.Uint64(), s[2].Value.Float64(), s[3].Value.Float64(), s[4].Value.Float64()}
}

// setRuntime sets the runtime per-layer metrics from two readings
// taken around the timed operations. The garbage collector's cost is
// its share of the CPU time the process used, not its pause time: a
// timed phase that allocates little may pause for no collection at all,
// and a time in milliseconds would then read exactly 0.
func (o *outcome) setRuntime(before, after runtimeStats, ops int) {
	o.set("runtime.gc_cycles", "count", float64(after.gcCycles-before.gcCycles))
	busy := (after.totalCPU - after.idleCPU) - (before.totalCPU - before.idleCPU)
	o.set("runtime.gc_cpu_ratio", "ratio", (after.gcCPU-before.gcCPU)/max(busy, 1e-9))
	o.set("runtime.alloc_mb", "MB", float64(after.alloc-before.alloc)/(1<<20)/float64(max(ops, 1)))
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

// heapAllocs is the cumulative bytes allocated on the heap. Unlike
// ReadMemStats it does not stop the world, so it can bracket single
// calls.
func heapAllocs() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// maxRSSMB is the peak resident set of this process in MiB, or NaN,
// which the report refuses, when it cannot be read.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuSeconds is the user plus system CPU time this process has used,
// or NaN when it cannot be read.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return secs(time.Duration(ru.Utime.Nano() + ru.Stime.Nano()))
}

// digester hashes a workload's result prefix.
type digester struct{ h hash.Hash }

func newDigester() *digester { return &digester{sha256.New()} }

func (d *digester) add(format string, args ...any) { fmt.Fprintf(d.h, format, args...) }

func (d *digester) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

func logf(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }
