package service

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/pathenum"
	"repro/internal/trace"
	"repro/internal/tracegen"
)

const enumBody = `{"dataset":"dev","src":0,"dst":17,"start":0,"k":50}`

// gate holds the build of the "gated" dataset in flight, so a test can
// keep requests waiting on a cold dataset without sleeping.
type gate struct {
	entered chan struct{} // closed when the build starts
	open    func()        // lets the build return the dev trace; idempotent
}

// gatedRegistry returns the built-in registry plus a "gated" dataset
// whose single build waits on the returned gate. The gate is opened at
// cleanup, so a failing test never leaves the builder blocked.
func gatedRegistry(t *testing.T) (*Registry, *gate) {
	t.Helper()
	release := make(chan struct{})
	g := &gate{entered: make(chan struct{}), open: sync.OnceFunc(func() { close(release) })}
	t.Cleanup(g.open)
	reg := NewRegistry()
	if err := reg.Register("gated", KindSynthetic, func() (*trace.Trace, error) {
		close(g.entered)
		<-release
		return tracegen.Dev(1), nil
	}); err != nil {
		t.Fatal(err)
	}
	return reg, g
}

// registerGarbageFile registers name as a file-backed dataset whose
// file holds no trace, and returns the file's path.
func registerGarbageFile(t *testing.T, reg *Registry, name string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name+".txt")
	if err := os.WriteFile(path, []byte("not a trace\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := reg.RegisterFile(name, path); err != nil {
		t.Fatal(err)
	}
	return path
}

// metricValue scrapes one counter/gauge value (with its label set
// spelled exactly as exposed) from the server's /metrics.
func metricValue(t *testing.T, ts *httptest.Server, metric string) int64 {
	t.Helper()
	code, body := get(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: status %d", code)
	}
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(metric) + ` (\d+)$`)
	m := re.FindSubmatch(body)
	if m == nil {
		t.Fatalf("metric %s not found in /metrics", metric)
	}
	n, err := strconv.ParseInt(string(m[1]), 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestRequestDeadlineSheds: a request whose compute outlives
// RequestTimeout is abandoned at a cancellation checkpoint and
// answered 503 with a Retry-After hint, counted under
// psn_cancelled_total{reason="deadline"}. Here the request waits on a
// dataset build another caller holds in flight.
func TestRequestDeadlineSheds(t *testing.T) {
	reg, g := gatedRegistry(t)
	s, ts := newTestServer(t, Config{Registry: reg, RequestTimeout: 50 * time.Millisecond})
	const gatedBody = `{"dataset":"gated","src":0,"dst":17,"start":0,"k":50}`

	held := make(chan error, 1)
	go func() {
		_, err := reg.Trace("gated")
		held <- err
	}()
	<-g.entered

	start := time.Now()
	resp, err := http.Post(ts.URL+"/enumerate", "application/json", strings.NewReader(gatedBody))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 deadline response missing Retry-After")
	}
	// The build is held until released; the deadline must cut the wait
	// off orders of magnitude sooner.
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("deadlined request took %v", d)
	}
	if got := metricValue(t, ts, `psn_cancelled_total{reason="deadline"}`); got != 1 {
		t.Errorf(`psn_cancelled_total{reason="deadline"} = %d, want 1`, got)
	}
	if got := metricValue(t, ts, `psn_cancelled_total{reason="client"}`); got != 0 {
		t.Errorf(`psn_cancelled_total{reason="client"} = %d, want 0`, got)
	}

	// Release the build and warm the graph and enumerator without a
	// deadline: the same request now completes.
	g.open()
	if err := <-held; err != nil {
		t.Fatal(err)
	}
	if _, err := s.Enumerate("gated", []pathenum.Message{{Src: 0, Dst: 17}}, pathenum.Options{K: 50}); err != nil {
		t.Fatal(err)
	}
	code, _ := post(t, ts.URL+"/enumerate", gatedBody)
	if code != http.StatusOK {
		t.Fatalf("request after deadline shed: status %d, want 200", code)
	}
}

// TestClientDisconnectCancels: a request whose client has gone away is
// abandoned — here at the cold graph build's first checkpoint — and
// accounted 499 under reason="client". Driven through ServeHTTP
// directly — a real disconnected socket can't carry the response back
// for inspection.
func TestClientDisconnectCancels(t *testing.T) {
	s, ts := newTestServer(t, Config{})

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // the client is already gone
	req := httptest.NewRequest("POST", "/enumerate", strings.NewReader(enumBody)).WithContext(ctx)
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)

	if rec.Code != statusClientClosedRequest {
		t.Fatalf("status %d, want %d", rec.Code, statusClientClosedRequest)
	}
	if got := metricValue(t, ts, `psn_cancelled_total{reason="client"}`); got != 1 {
		t.Errorf(`psn_cancelled_total{reason="client"} = %d, want 1`, got)
	}
}

// TestPanicRecoveryMiddleware: a panicking handler is contained to its
// request — 500 carrying the request ID, psn_panics_total incremented,
// and the server keeps serving. The panic comes from a dataset builder
// and travels up through the result cache's fill.
func TestPanicRecoveryMiddleware(t *testing.T) {
	reg := NewRegistry()
	if err := reg.Register("panicky", KindSynthetic, panickyBuilder(1)); err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Registry: reg})
	const panickyBody = `{"dataset":"panicky","src":0,"dst":17,"start":0,"k":50}`

	resp, err := http.Post(ts.URL+"/enumerate", "application/json", strings.NewReader(panickyBody))
	if err != nil {
		t.Fatal(err)
	}
	var body errorBody
	code := resp.StatusCode
	id := resp.Header.Get("X-Psn-Request")
	if err := readJSON(resp, &body); err != nil {
		t.Fatal(err)
	}
	if code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", code)
	}
	if id == "" || !strings.Contains(body.Error, id) {
		t.Errorf("500 body %q does not echo the request ID %q", body.Error, id)
	}
	if got := metricValue(t, ts, "psn_panics_total"); got != 1 {
		t.Errorf("psn_panics_total = %d, want 1", got)
	}

	// The panicked fill left nothing pinned: the same request now
	// recomputes and succeeds, and so does another one.
	if code, body := post(t, ts.URL+"/enumerate", panickyBody); code != http.StatusOK {
		t.Fatalf("request repeated after panic: status %d (%s), want 200", code, body)
	}
	if code, _ := post(t, ts.URL+"/enumerate", enumBody); code != http.StatusOK {
		t.Fatalf("request after panic: status %d, want 200", code)
	}
}

// panickyBuilder returns a dataset builder that panics on its first n
// calls and builds the dev trace after that.
func panickyBuilder(n int64) func() (*trace.Trace, error) {
	var calls atomic.Int64
	return func() (*trace.Trace, error) {
		if calls.Add(1) <= n {
			panic("chaos")
		}
		return tracegen.Dev(1), nil
	}
}

func readJSON(resp *http.Response, v any) error {
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(v)
}

// discardLogger silences the chaos suite's expected panic log spam
// without losing real test failures.
func discardLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// TestDegradedMode: repeated load failures of a file-backed dataset
// trip it into a backoff window answering 503 + Retry-After, visible
// on /healthz and /metrics; a healthy probe build after the window
// restores service. Both experiment endpoints resolve the dataset
// first, so each must see the window.
func TestDegradedMode(t *testing.T) {
	for _, tc := range []struct{ path, body string }{
		{"/enumerate", `{"dataset":"flaky","src":0,"dst":17,"start":0,"k":50}`},
		{"/simulate", `{"dataset":"flaky","algorithm":"epidemic","runs":1}`},
	} {
		t.Run(strings.TrimPrefix(tc.path, "/"), func(t *testing.T) {
			reg := NewRegistry()
			path := registerGarbageFile(t, reg, "flaky")
			_, ts := newTestServer(t, Config{Registry: reg})

			for i := 0; i < degradeThreshold; i++ {
				if code, body := post(t, ts.URL+tc.path, tc.body); code != http.StatusInternalServerError {
					t.Fatalf("failing build %d: status %d (%s), want 500", i, code, body)
				}
			}

			resp, err := http.Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusServiceUnavailable {
				t.Fatalf("degraded dataset: status %d, want 503", resp.StatusCode)
			}
			if ra := resp.Header.Get("Retry-After"); ra == "" {
				t.Error("degraded 503 missing Retry-After")
			} else if n, err := strconv.Atoi(ra); err != nil || n < 1 {
				t.Errorf("Retry-After = %q, want a positive integer", ra)
			}
			if got := metricValue(t, ts, "psn_degraded_datasets"); got != 1 {
				t.Errorf("psn_degraded_datasets = %d, want 1", got)
			}
			code, body := get(t, ts.URL+"/healthz")
			if code != http.StatusOK {
				t.Fatalf("/healthz while degraded: status %d, want 200 (the other datasets still serve)", code)
			}
			if !strings.Contains(string(body), `"status":"degraded"`) || !strings.Contains(string(body), `"flaky"`) {
				t.Errorf("/healthz does not report the degraded dataset: %s", body)
			}

			// Recovery: repair the file and expire the backoff window so
			// the next request probes a build through — it succeeds and
			// clears the degraded state.
			writeTraceFile(t, path, tracegen.Dev(1))
			e := reg.entries["flaky"]
			e.mu.Lock()
			e.until = time.Now().Add(-time.Second)
			e.mu.Unlock()
			if code, body := post(t, ts.URL+tc.path, tc.body); code != http.StatusOK {
				t.Fatalf("probe build after recovery: status %d (%s), want 200", code, body)
			}
			if code, body := get(t, ts.URL+"/healthz"); code != http.StatusOK || !strings.Contains(string(body), `"status":"ok"`) {
				t.Errorf("/healthz after recovery: status %d body %s, want ok", code, body)
			}
			if got := metricValue(t, ts, "psn_degraded_datasets"); got != 0 {
				t.Errorf("psn_degraded_datasets after recovery = %d, want 0", got)
			}
		})
	}
}

// TestEnumerateRefusesHugeGraph: a delta whose graph would exceed
// maxGraphSteps is refused 400 before any build, so it neither panics
// nor allocates per step, and degradeThreshold such requests leave the
// dataset healthy: a refusal is not a build failure.
func TestEnumerateRefusesHugeGraph(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	deltas := []string{"1e-300", "0.001", "1e-300"}
	if len(deltas) < degradeThreshold {
		t.Fatalf("%d refused requests cannot reach the degrade threshold %d", len(deltas), degradeThreshold)
	}
	for _, delta := range deltas {
		body := `{"dataset":"dev","src":0,"dst":17,"start":0,"k":50,"delta":` + delta + `}`
		code, out := post(t, ts.URL+"/enumerate", body)
		if code != http.StatusBadRequest || !strings.Contains(string(out), "step limit") {
			t.Fatalf("delta %s: status %d (%s), want 400 naming the step limit", delta, code, out)
		}
	}
	if got := metricValue(t, ts, "psn_panics_total"); got != 0 {
		t.Errorf("psn_panics_total = %d, want 0", got)
	}
	if code, body := get(t, ts.URL+"/healthz"); code != http.StatusOK || !strings.Contains(string(body), `"status":"ok"`) {
		t.Errorf("/healthz after refused deltas: status %d body %s, want ok", code, body)
	}
	if code, body := post(t, ts.URL+"/enumerate", enumBody); code != http.StatusOK {
		t.Errorf("valid request after refused deltas: status %d (%s), want 200", code, body)
	}
}

// TestDrainFlipsHealthz: drain mode turns /healthz into 503/"draining"
// while an in-flight slow request still completes — the regression
// shape of graceful shutdown (probes fail first, work finishes).
func TestDrainFlipsHealthz(t *testing.T) {
	reg, g := gatedRegistry(t)
	s, ts := newTestServer(t, Config{Registry: reg})

	type result struct {
		code int
		body string
	}
	inflight := make(chan result, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/enumerate", "application/json",
			strings.NewReader(`{"dataset":"gated","src":0,"dst":17,"start":0,"k":50}`))
		if err != nil {
			inflight <- result{0, err.Error()}
			return
		}
		defer resp.Body.Close()
		inflight <- result{resp.StatusCode, ""}
	}()
	<-g.entered // the slow request is inside the handler now
	s.SetDraining(true)

	code, body := get(t, ts.URL+"/healthz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("/healthz while draining: status %d, want 503", code)
	}
	if !strings.Contains(string(body), `"status":"draining"`) {
		t.Errorf("/healthz body %s, want status draining", body)
	}

	g.open()
	r := <-inflight
	if r.code != http.StatusOK {
		t.Fatalf("in-flight request during drain: status %d %s, want 200", r.code, r.body)
	}

	s.SetDraining(false)
	if code, _ := get(t, ts.URL+"/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz after drain cleared: status %d, want 200", code)
	}
}

// TestDeadlineEquivalence pins cancellation's non-interference: the
// response of a server with an armed (but never firing) deadline is
// byte-identical to one with deadlines disabled.
func TestDeadlineEquivalence(t *testing.T) {
	_, withDeadline := newTestServer(t, Config{RequestTimeout: time.Hour})
	_, noDeadline := newTestServer(t, Config{RequestTimeout: -1})

	for _, body := range []string{
		enumBody,
		`{"dataset":"dev","messages":[{"src":0,"dst":17,"start":0},{"src":3,"dst":9,"start":100}],"k":80}`,
		`{"dataset":"dev","algorithm":"epidemic","runs":2}`,
	} {
		endpoint := "/enumerate"
		if strings.Contains(body, "algorithm") {
			endpoint = "/simulate"
		}
		codeA, respA := post(t, withDeadline.URL+endpoint, body)
		codeB, respB := post(t, noDeadline.URL+endpoint, body)
		if codeA != http.StatusOK || codeB != http.StatusOK {
			t.Fatalf("%s: statuses %d/%d (%s)", endpoint, codeA, codeB, respA)
		}
		if string(respA) != string(respB) {
			t.Errorf("%s %s: deadline-armed response differs from deadline-free", endpoint, body)
		}
	}
}

// TestChaosSuite floods a server whose datasets fail, panic and stall
// in their builds with concurrent mixed traffic and asserts the
// availability contract: every response is a well-formed HTTP answer
// from the expected set, /healthz keeps answering, nothing crashes,
// and no goroutines leak.
func TestChaosSuite(t *testing.T) {
	goroutinesBefore := runtime.NumGoroutine()

	reg := NewRegistry()
	registerGarbageFile(t, reg, "broken")
	if err := reg.Register("panicky", KindSynthetic, panickyBuilder(3)); err != nil {
		t.Fatal(err)
	}
	// The slow build outlasts the request deadline below.
	if err := reg.Register("slow", KindSynthetic, func() (*trace.Trace, error) {
		time.Sleep(300 * time.Millisecond)
		return tracegen.Dev(1), nil
	}); err != nil {
		t.Fatal(err)
	}
	logger := discardLogger()
	s, ts := newTestServer(t, Config{
		Registry:       reg,
		RequestTimeout: 250 * time.Millisecond,
		Logger:         logger,
	})
	client := &http.Client{Timeout: 10 * time.Second}

	const (
		workers  = 8
		requests = 12
	)
	allowed := map[int]bool{
		http.StatusOK:                  true,
		http.StatusInternalServerError: true, // failed loads, contained panics
		http.StatusServiceUnavailable:  true, // deadline sheds, inflight sheds, degraded
	}
	var wg sync.WaitGroup
	errc := make(chan error, workers*requests)
	bodies := []struct{ path, body string }{
		{"/enumerate", enumBody},
		{"/simulate", `{"dataset":"dev","algorithm":"epidemic","runs":1}`},
		{"/enumerate", `{"dataset":"dev","messages":[{"src":1,"dst":5,"start":10}],"k":40}`},
		{"/enumerate", `{"dataset":"broken","src":0,"dst":17,"start":0,"k":50}`},
		{"/simulate", `{"dataset":"panicky","algorithm":"epidemic","runs":1}`},
		{"/enumerate", `{"dataset":"slow","src":0,"dst":17,"start":0,"k":50}`},
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < requests; i++ {
				req := bodies[(w+i)%len(bodies)]
				resp, err := client.Post(ts.URL+req.path, "application/json", strings.NewReader(req.body))
				if err != nil {
					errc <- fmt.Errorf("worker %d request %d: %v", w, i, err)
					return
				}
				resp.Body.Close()
				if !allowed[resp.StatusCode] {
					errc <- fmt.Errorf("worker %d request %d: unexpected status %d", w, i, resp.StatusCode)
				}
				if i%4 == 0 {
					hr, err := client.Get(ts.URL + "/healthz")
					if err != nil {
						errc <- fmt.Errorf("worker %d healthz: %v", w, err)
						return
					}
					hr.Body.Close()
					if hr.StatusCode != http.StatusOK {
						errc <- fmt.Errorf("worker %d: /healthz status %d under chaos", w, hr.StatusCode)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	// The healthy dataset answers normally after the chaos.
	if code, body := post(t, ts.URL+"/enumerate", enumBody); code != http.StatusOK {
		t.Fatalf("post-chaos enumerate: status %d (%s)", code, body)
	}
	if s.metrics.panics.Load() == 0 {
		t.Error("chaos run never exercised the panic recovery path")
	}

	// No goroutine leaks: after closing idle connections the count
	// returns to (near) the pre-test level. Poll briefly — conn
	// teardown and pool reaping are asynchronous.
	client.CloseIdleConnections()
	http.DefaultClient.CloseIdleConnections()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		now := runtime.NumGoroutine()
		if now <= goroutinesBefore+4 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d before chaos, %d after", goroutinesBefore, now)
		}
		time.Sleep(50 * time.Millisecond)
	}
}
