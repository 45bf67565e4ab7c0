package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one call the benchmark made into a layer, timed from outside
// the call. Name is "<layer>.<call>", with a third part where calls
// differ by what they run ("dtnsim.run.fresh", "service.request.figures");
// the layer is the part before the first dot. Spans named "op.*" wrap
// one timed operation and "bench.*" the benchmark's own work (output
// checks, collecting garbage between set-ups), so that time no program
// layer spent is still accounted.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a top-level span
	Op     int    `json:"op"`     // operation index; -1 outside the timed operations
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so untraced runs pay one pointer check per call.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id, or -1 on a nil tracer.
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: now, End: -1})
	return id
}

// end closes span id; it is a no-op for id -1.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// do runs f inside a span.
func (t *tracer) do(name string, parent, op int, f func() error) error {
	id := t.begin(name, parent, op)
	err := f()
	t.end(id)
	return err
}

// snapshot returns the closed spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// unionLen is the total length of the union of [start, end) intervals
// clipped to [lo, hi).
func unionLen(iv [][2]int64, lo, hi int64) int64 {
	clipped := make([][2]int64, 0, len(iv))
	for _, v := range iv {
		a, b := max(v[0], lo), min(v[1], hi)
		if a < b {
			clipped = append(clipped, [2]int64{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total int64
	cur := [2]int64{-1, -1}
	for _, v := range clipped {
		if v[0] > cur[1] {
			total += cur[1] - cur[0]
			cur = v
			continue
		}
		cur[1] = max(cur[1], v[1])
	}
	return total + cur[1] - cur[0]
}

// selfTimes returns the self time of each span name: the summed
// duration of the spans so named, each minus the part of its interval
// that its child spans cover.
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		covered := unionLen(children[s.ID], s.Start, s.End)
		out[s.Name] += s.dur() - time.Duration(covered)
	}
	return out
}

// selfTimeUnder sums the self times of the span name prefix and of
// every name below it: "dtnsim" covers "dtnsim.meed" and
// "dtnsim.run.fresh", "dtnsim.run" covers the latter only.
func selfTimeUnder(self map[string]time.Duration, prefix string) time.Duration {
	var total time.Duration
	for name, d := range self {
		if name == prefix || strings.HasPrefix(name, prefix+".") {
			total += d
		}
	}
	return total
}

// coverage is the share of [0, wall) that top-level spans cover.
func coverage(spans []span, wall time.Duration) float64 {
	if wall <= 0 {
		return 0
	}
	var top [][2]int64
	for _, s := range spans {
		if s.Parent < 0 {
			top = append(top, [2]int64{s.Start, s.End})
		}
	}
	return float64(unionLen(top, 0, int64(wall))) / float64(wall)
}

// durations returns the durations of the spans called name, in order.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, secs(s.dur()))
		}
	}
	return out
}

func sum(a, b float64) float64   { return a + b }
func maxOf(a, b float64) float64 { return max(a, b) }

// perOp folds with agg the durations, in seconds, of the spans called
// name within each operation, and returns one value per operation in
// operation order.
func perOp(spans []span, name string, agg func(a, b float64) float64) []float64 {
	folded := make(map[int]float64)
	for _, s := range spans {
		if s.Name != name || s.Op < 0 {
			continue
		}
		if v, ok := folded[s.Op]; ok {
			folded[s.Op] = agg(v, secs(s.dur()))
		} else {
			folded[s.Op] = secs(s.dur())
		}
	}
	ops := make([]int, 0, len(folded))
	for op := range folded {
		ops = append(ops, op)
	}
	sort.Ints(ops)
	out := make([]float64, len(ops))
	for i, op := range ops {
		out[i] = folded[op]
	}
	return out
}

// writeSpans writes the spans, the per-layer self times and the
// coverage of a traced run as JSON.
func writeSpans(path, workload string, spans []span, wall time.Duration) error {
	self := make(map[string]float64)
	for name, d := range selfTimes(spans) {
		layer, _, _ := strings.Cut(name, ".")
		self[layer] += secs(d)
	}
	data, err := json.MarshalIndent(struct {
		Workload string             `json:"workload"`
		WallNs   int64              `json:"wall_ns"`
		Coverage float64            `json:"coverage"`
		SelfS    map[string]float64 `json:"self_s"`
		Spans    []span             `json:"spans"`
	}{workload, int64(wall), coverage(spans, wall), self, spans}, "", " ")
	if err != nil {
		return fmt.Errorf("encode spans: %w", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
