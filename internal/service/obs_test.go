package service

import (
	"bytes"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

// do runs one request through the server and returns the recorder.
func do(t *testing.T, s *Server, method, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	var rd *strings.Reader
	if body != "" {
		rd = strings.NewReader(body)
	} else {
		rd = strings.NewReader("")
	}
	req := httptest.NewRequest(method, path, rd)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	return w
}

func enumerateOnce(t *testing.T, s *Server) {
	t.Helper()
	w := do(t, s, "POST", "/enumerate", `{"dataset":"dev","src":0,"dst":17,"start":0,"k":25}`)
	if w.Code != http.StatusOK {
		t.Fatalf("/enumerate: status %d: %s", w.Code, w.Body.String())
	}
}

// --- strict Prometheus text-exposition checking (satellite: /metrics
// format tests) ---

var (
	sampleRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (-?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?|[+]Inf|NaN)$`)
	labelRe  = regexp.MustCompile(`^([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"$`)
)

type promSample struct {
	name   string
	labels string // raw {...} including braces, "" when unlabeled
	value  float64
	line   int
}

// parsePromText strictly checks the exposition line format: every line
// is a HELP comment, a TYPE comment, or a well-formed sample; TYPE
// precedes every family's samples; label strings parse as
// comma-separated name="value" pairs.
func parsePromText(t *testing.T, text string) (samples []promSample, types map[string]string) {
	t.Helper()
	types = make(map[string]string)
	for i, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			parts := strings.SplitN(line, " ", 4)
			if len(parts) < 4 || parts[2] == "" {
				t.Fatalf("line %d: malformed HELP: %q", i+1, line)
			}
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.SplitN(line, " ", 4)
			if len(parts) != 4 {
				t.Fatalf("line %d: malformed TYPE: %q", i+1, line)
			}
			switch parts[3] {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				t.Fatalf("line %d: unknown TYPE %q", i+1, parts[3])
			}
			if _, dup := types[parts[2]]; dup {
				t.Fatalf("line %d: duplicate TYPE for %q", i+1, parts[2])
			}
			types[parts[2]] = parts[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("line %d: unknown comment form: %q", i+1, line)
		}
		m := sampleRe.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("line %d: malformed sample: %q", i+1, line)
		}
		name, labels, valueStr := m[1], m[2], m[3]
		if labels != "" {
			inner := labels[1 : len(labels)-1]
			for _, pair := range splitLabelPairs(inner) {
				if !labelRe.MatchString(pair) {
					t.Fatalf("line %d: malformed label pair %q in %q", i+1, pair, line)
				}
			}
		}
		var value float64
		switch valueStr {
		case "+Inf":
			value = math.Inf(1)
		case "NaN":
			value = math.NaN()
		default:
			var err error
			if value, err = strconv.ParseFloat(valueStr, 64); err != nil {
				t.Fatalf("line %d: bad value %q", i+1, valueStr)
			}
		}
		family := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			base := strings.TrimSuffix(name, suffix)
			if base != name && types[base] == "histogram" {
				family = base
				break
			}
		}
		if _, ok := types[family]; !ok {
			t.Fatalf("line %d: sample %q has no preceding TYPE", i+1, name)
		}
		samples = append(samples, promSample{name: name, labels: labels, value: value, line: i + 1})
	}
	return samples, types
}

// splitLabelPairs splits the inside of a label block on commas not
// inside quoted values.
func splitLabelPairs(s string) []string {
	var out []string
	depth := false // inside quotes
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			i++
		case '"':
			depth = !depth
		case ',':
			if !depth {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out
}

// checkHistograms verifies every histogram family in the exposition:
// for each label set, bucket counts are cumulative (non-decreasing in
// exposition order), the last bucket is le="+Inf", and its count
// equals the family's _count sample for the same label set.
func checkHistograms(t *testing.T, samples []promSample, types map[string]string) {
	t.Helper()
	leRe := regexp.MustCompile(`le="([^"]*)"`)
	type key struct{ family, rest string }
	lastBucket := make(map[key]promSample)
	prevCount := make(map[key]float64)
	sawInf := make(map[key]bool)
	counts := make(map[key]float64)
	for _, s := range samples {
		if base := strings.TrimSuffix(s.name, "_bucket"); base != s.name && types[base] == "histogram" {
			le := leRe.FindStringSubmatch(s.labels)
			if le == nil {
				t.Fatalf("line %d: histogram bucket without le label: %q", s.line, s.labels)
			}
			rest := strings.Replace(s.labels, le[0], "", 1)
			k := key{base, rest}
			if s.value < prevCount[k] {
				t.Errorf("line %d: %s%s bucket counts not cumulative (%g < %g)", s.line, s.name, s.labels, s.value, prevCount[k])
			}
			prevCount[k] = s.value
			lastBucket[k] = s
			sawInf[k] = le[1] == "+Inf"
		}
		if base := strings.TrimSuffix(s.name, "_count"); base != s.name && types[base] == "histogram" {
			counts[key{base, s.labels}] = s.value
		}
	}
	for k, last := range lastBucket {
		if !sawInf[k] {
			t.Errorf("histogram %s%s: last bucket is not le=\"+Inf\"", k.family, k.rest)
		}
		// The +Inf bucket must equal _count. Label sets differ only by
		// the removed le pair; normalize empty-vs-comma leftovers.
		want, ok := counts[key{k.family, normalizeLabels(k.rest)}]
		if !ok {
			t.Errorf("histogram %s%s: no _count sample", k.family, k.rest)
			continue
		}
		if last.value != want {
			t.Errorf("histogram %s%s: +Inf bucket %g != _count %g", k.family, k.rest, last.value, want)
		}
	}
}

// normalizeLabels cleans the leftover label block after removing the
// le pair: "{,endpoint=...}" → "{endpoint=...}", "{}" → "".
func normalizeLabels(l string) string {
	if l == "" || l == "{}" || l == "{,}" {
		return ""
	}
	inner := strings.Trim(l[1:len(l)-1], ",")
	inner = strings.ReplaceAll(inner, ",,", ",")
	if inner == "" {
		return ""
	}
	return "{" + inner + "}"
}

func fetchMetrics(t *testing.T, s *Server) string {
	t.Helper()
	w := do(t, s, "GET", "/metrics", "")
	if w.Code != http.StatusOK {
		t.Fatalf("/metrics: status %d", w.Code)
	}
	return w.Body.String()
}

// TestMetricsExpositionStrict runs a representative request mix and
// then strictly validates the whole /metrics output: line format, TYPE
// coverage, label well-formedness, and histogram bucket invariants.
func TestMetricsExpositionStrict(t *testing.T) {
	s := New(Config{})
	enumerateOnce(t, s)
	if w := do(t, s, "POST", "/simulate", `{"dataset":"dev","algorithm":"epidemic"}`); w.Code != http.StatusOK {
		t.Fatalf("/simulate: status %d: %s", w.Code, w.Body.String())
	}
	do(t, s, "GET", "/healthz", "")
	do(t, s, "POST", "/enumerate", `{"dataset":"nope"}`) // a 404, so a non-200 code series exists

	text := fetchMetrics(t, s)
	samples, types := parsePromText(t, text)
	if len(samples) == 0 {
		t.Fatal("no samples in /metrics")
	}
	checkHistograms(t, samples, types)

	for _, want := range []string{
		`psn_request_duration_seconds_count{endpoint="enumerate"}`,
		`psn_request_duration_seconds_count{endpoint="simulate"}`,
		`psn_stage_duration_seconds_count{stage="enum_fork"}`,
		`psn_stage_duration_seconds_count{stage="graph_sweep"}`,
		`psn_stage_duration_seconds_count{stage="oracle_build"}`,
		`psn_stage_duration_seconds_count{stage="sim_run"}`,
		"psn_goroutines ",
		"psn_gomaxprocs ",
		"psn_heap_alloc_bytes ",
		"psn_gc_pause_seconds_total ",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestMetricsHistogramCountsMatchRequests pins the acceptance
// criterion that the endpoint histogram's count equals the number of
// requests actually sent.
func TestMetricsHistogramCountsMatchRequests(t *testing.T) {
	s := New(Config{})
	const n = 7
	for i := 0; i < n; i++ {
		enumerateOnce(t, s)
	}
	text := fetchMetrics(t, s)
	for _, line := range []string{
		fmt.Sprintf(`psn_requests_total{endpoint="enumerate"} %d`, n),
		fmt.Sprintf(`psn_request_duration_seconds_count{endpoint="enumerate"} %d`, n),
	} {
		if !strings.Contains(text, line) {
			t.Errorf("metrics missing %q in:\n%s", line, text)
		}
	}
}

// TestRequestIDHeader checks every response carries a fixed-width hex
// request ID, unique across requests, and that the server mints it
// itself: a well-formed inbound X-Psn-Request (here, an ID the server
// already issued) is not echoed back.
func TestRequestIDHeader(t *testing.T) {
	s := New(Config{})
	idRe := regexp.MustCompile(`^[0-9a-f]{16}$`)
	seen := make(map[string]bool)
	mint := func(inbound string) string {
		t.Helper()
		req := httptest.NewRequest("GET", "/healthz", nil)
		if inbound != "" {
			req.Header.Set("X-Psn-Request", inbound)
		}
		w := httptest.NewRecorder()
		s.ServeHTTP(w, req)
		id := w.Header().Get("X-Psn-Request")
		if !idRe.MatchString(id) {
			t.Fatalf("X-Psn-Request %q is not 16 hex digits", id)
		}
		if seen[id] {
			t.Fatalf("request ID %q repeated (inbound %q)", id, inbound)
		}
		seen[id] = true
		return id
	}
	first := mint("")
	mint("")
	mint("")
	for _, inbound := range []string{first, "00000000deadbeef"} {
		if id := mint(inbound); id == inbound {
			t.Errorf("server echoed inbound request ID %q instead of minting one", inbound)
		}
	}
}

// TestAccessLog checks the one per-request log line: TraceSlow 0
// logs nothing, and 1ns logs every request, probes included, with the
// request ID, endpoint, status and latency.
func TestAccessLog(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&buf, nil))

	s := New(Config{Logger: logger}) // default: off
	do(t, s, "GET", "/healthz", "")
	if buf.Len() != 0 {
		t.Fatalf("request log written while disabled: %s", buf.String())
	}

	s = New(Config{TraceSlow: time.Nanosecond, Logger: logger})
	w := do(t, s, "GET", "/healthz", "")
	line := buf.String()
	for _, want := range []string{
		"id=" + w.Header().Get("X-Psn-Request"),
		"endpoint=healthz",
		"status=200",
		"latency=",
	} {
		if !strings.Contains(line, want) {
			t.Errorf("request log line missing %q: %s", want, line)
		}
	}
}

// TestTraceSlow checks the slow-request line: with a 1ns threshold
// every request is slow, and an enumerate on a cold server carries
// stage breakdown attributes.
func TestTraceSlow(t *testing.T) {
	var buf bytes.Buffer
	s := New(Config{
		TraceSlow: time.Nanosecond,
		Logger:    slog.New(slog.NewTextHandler(&buf, nil)),
	})
	enumerateOnce(t, s)
	line := buf.String()
	for _, want := range []string{
		`msg="slow request"`,
		"endpoint=enumerate",
		"dataset=dev",
		"status=200",
		"stage.enum_fork=",
		"stage.graph_sweep=", // cold server: the request paid the live graph build
	} {
		if !strings.Contains(line, want) {
			t.Errorf("slow-trace line missing %q: %s", want, line)
		}
	}
}

// TestPprofGating checks /debug/pprof/ is absent by default and served
// when enabled.
func TestPprofGating(t *testing.T) {
	s := New(Config{})
	if w := do(t, s, "GET", "/debug/pprof/", ""); w.Code != http.StatusNotFound {
		t.Fatalf("pprof disabled: status %d, want 404", w.Code)
	}
	s = New(Config{EnablePprof: true})
	w := do(t, s, "GET", "/debug/pprof/", "")
	if w.Code != http.StatusOK {
		t.Fatalf("pprof enabled: status %d, want 200", w.Code)
	}
	if !strings.Contains(w.Body.String(), "goroutine") {
		t.Error("pprof index does not list profiles")
	}
	if w := do(t, s, "GET", "/debug/pprof/cmdline", ""); w.Code != http.StatusOK {
		t.Errorf("pprof cmdline: status %d", w.Code)
	}
}
