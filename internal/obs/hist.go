// Package obs holds the repository's allocation-free observability
// primitives: a lock-free log-bucketed latency histogram and a
// per-request stage span API. Both are built for hot paths — recording
// a sample or a span is a handful of atomic operations, never an
// allocation, and a nil *Trace compiles every span site down to a
// pointer check — so the serving layer can observe itself without
// perturbing the benchmarks it reports on.
package obs

import (
	"fmt"
	"io"
	"math"
	"sync/atomic"
	"time"
)

// NumBuckets is the histogram resolution. Buckets are log-spaced at
// ratio 2^(1/3) ≈ 1.26 (three buckets per doubling) starting at 1µs:
// 63 finite buckets cover 1µs to ~1.66s with ≤26% relative error per
// bucket, and the last bucket catches everything beyond.
const NumBuckets = 64

// minBucketNs is the upper bound of the first bucket.
const minBucketNs = 1000 // 1µs

// bucketBounds[i] is the inclusive upper bound, in nanoseconds, of
// bucket i; bucket NumBuckets-1 is unbounded (+Inf).
var bucketBounds = func() [NumBuckets - 1]int64 {
	var b [NumBuckets - 1]int64
	for i := range b {
		b[i] = int64(math.Round(minBucketNs * math.Pow(2, float64(i)/3)))
	}
	return b
}()

// bucketOf returns the index of the bucket covering ns.
func bucketOf(ns int64) int {
	// Binary search over the 63 sorted finite bounds: the smallest
	// bucket whose upper bound covers ns (6 iterations, no allocation).
	lo, hi := 0, NumBuckets-1
	for lo < hi {
		mid := (lo + hi) / 2
		if ns <= bucketBounds[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// Histogram is a fixed-size log-bucketed latency histogram safe for
// concurrent recording without locks: every bucket is an independent
// atomic counter, so Record is wait-free and scales across cores.
// Reads (Snapshot) are not atomic with respect to concurrent writers —
// a snapshot taken under load may be mid-update by a few samples —
// which is the standard and acceptable trade for a metrics endpoint.
// The zero value is ready to use.
type Histogram struct {
	buckets [NumBuckets]atomic.Uint64
	sumNs   atomic.Int64
	maxNs   atomic.Int64
}

// Record adds one duration sample. Negative durations clamp to zero.
func (h *Histogram) Record(d time.Duration) { h.RecordNs(int64(d)) }

// RecordNs adds one sample measured in nanoseconds.
func (h *Histogram) RecordNs(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.buckets[bucketOf(ns)].Add(1)
	h.sumNs.Add(ns)
	for {
		cur := h.maxNs.Load()
		if ns <= cur || h.maxNs.CompareAndSwap(cur, ns) {
			return
		}
	}
}

// Merge folds o's samples into h. Counts add exactly
// (count(merge(a,b)) = count(a)+count(b) per bucket); the maximum is
// the pairwise max.
func (h *Histogram) Merge(o *Histogram) {
	for i := range o.buckets {
		if n := o.buckets[i].Load(); n > 0 {
			h.buckets[i].Add(n)
		}
	}
	h.sumNs.Add(o.sumNs.Load())
	m := o.maxNs.Load()
	for {
		cur := h.maxNs.Load()
		if m <= cur || h.maxNs.CompareAndSwap(cur, m) {
			return
		}
	}
}

// Count returns the total number of recorded samples.
func (h *Histogram) Count() uint64 {
	var total uint64
	for i := range h.buckets {
		total += h.buckets[i].Load()
	}
	return total
}

// Snapshot returns a point-in-time copy of the histogram for quantile
// extraction and rendering.
func (h *Histogram) Snapshot() Snapshot {
	var s Snapshot
	for i := range h.buckets {
		s.Counts[i] = h.buckets[i].Load()
		s.Count += s.Counts[i]
	}
	s.SumNs = h.sumNs.Load()
	s.MaxNs = h.maxNs.Load()
	return s
}

// Quantile is shorthand for h.Snapshot().Quantile(q).
func (h *Histogram) Quantile(q float64) time.Duration {
	s := h.Snapshot()
	return s.Quantile(q)
}

// Snapshot is an immutable copy of a Histogram's state.
type Snapshot struct {
	Counts [NumBuckets]uint64
	Count  uint64 // sum of Counts
	SumNs  int64
	MaxNs  int64
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of the recorded samples,
// linearly interpolated within the covering bucket and capped at the
// observed maximum — no estimate ever exceeds a sample that actually
// happened. The answer carries the bucket's ≤26% relative error; q
// outside [0,1] is clamped, and an empty snapshot returns 0. Quantiles
// are monotone in q by construction: the target rank is non-decreasing
// in q, the cumulative walk maps ranks to bucket positions
// monotonically, and the cap is a fixed ceiling.
func (s *Snapshot) Quantile(q float64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count) // in (0, Count]
	var cum uint64
	for i, n := range s.Counts {
		if n == 0 {
			continue
		}
		prev := cum
		cum += n
		if float64(cum) < rank {
			continue
		}
		lo := int64(0)
		if i > 0 {
			lo = bucketBounds[i-1]
		}
		hi := s.MaxNs // overflow bucket: interpolate up to the observed max
		if i < NumBuckets-1 {
			hi = bucketBounds[i]
		}
		if hi < lo {
			hi = lo
		}
		// Position of the target rank within this bucket's n samples.
		frac := (rank - float64(prev)) / float64(n)
		if frac < 0 {
			frac = 0
		}
		if frac > 1 {
			frac = 1
		}
		est := int64(float64(lo) + frac*float64(hi-lo))
		if est > s.MaxNs {
			est = s.MaxNs
		}
		return time.Duration(est)
	}
	return time.Duration(s.MaxNs)
}

// Mean returns the arithmetic mean of the recorded samples.
func (s *Snapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return time.Duration(s.SumNs / int64(s.Count))
}

// WritePrometheus renders the snapshot in Prometheus histogram text
// format: cumulative <name>_bucket series with le labels in seconds,
// then <name>_sum and <name>_count. labels is either empty or a
// comma-joined list of label pairs (`endpoint="enumerate"`) inserted
// into every series; empty buckets are skipped (le="+Inf" always
// appears), keeping the exposition proportional to the populated
// range. The caller writes the # HELP/# TYPE preamble, since several
// label values of one metric family share it.
func (s *Snapshot) WritePrometheus(w io.Writer, name, labels string) {
	sep := ""
	if labels != "" {
		sep = ","
	}
	var cum uint64
	for i, n := range s.Counts {
		cum += n
		if i == NumBuckets-1 {
			break // rendered as +Inf below
		}
		if n == 0 {
			continue
		}
		fmt.Fprintf(w, "%s_bucket{%s%sle=\"%g\"} %d\n", name, labels, sep, float64(bucketBounds[i])/1e9, cum)
	}
	fmt.Fprintf(w, "%s_bucket{%s%sle=\"+Inf\"} %d\n", name, labels, sep, cum)
	suffix := ""
	if labels != "" {
		suffix = "{" + labels + "}"
	}
	fmt.Fprintf(w, "%s_sum%s %g\n", name, suffix, float64(s.SumNs)/1e9)
	fmt.Fprintf(w, "%s_count%s %d\n", name, suffix, s.Count)
}
