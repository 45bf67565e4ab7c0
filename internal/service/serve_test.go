package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/dtnsim"
	"repro/internal/engine"
	"repro/internal/figures"
	"repro/internal/forward"
	"repro/internal/pathenum"
	"repro/internal/tracegen"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

func post(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

// respBytes is the canonical wire encoding of a response value — what
// a handler sends for it.
func respBytes(t *testing.T, v any) []byte {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return append(data, '\n')
}

// TestServedEnumerateEquivalence pins the determinism contract
// end-to-end: the HTTP /enumerate response is byte-identical to the
// answer computed directly with the library (its own enumerator, no
// service caches), across two datasets and both request forms.
func TestServedEnumerateEquivalence(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	reg := NewRegistry()

	for _, tc := range []struct {
		dataset string
		msgs    []pathenum.Message
		opt     pathenum.Options
		body    string
	}{
		{
			dataset: "dev",
			msgs:    []pathenum.Message{{Src: 0, Dst: 17, Start: 0}},
			opt:     pathenum.Options{K: 50},
			body:    `{"dataset":"dev","src":0,"dst":17,"start":0,"k":50}`,
		},
		{
			dataset: "dev",
			msgs: []pathenum.Message{
				{Src: 1, Dst: 9, Start: 120},
				{Src: 5, Dst: 2, Start: 300.5},
				{Src: 20, Dst: 3, Start: 0},
			},
			opt: pathenum.Options{K: 8},
			body: `{"dataset":"dev","messages":[{"src":1,"dst":9,"start":120},{"src":5,"dst":2,"start":300.5},{"src":20,"dst":3,"start":0}],` +
				`"k":8}`,
		},
		{
			dataset: "infocom-3-6",
			msgs: []pathenum.Message{
				{Src: 25, Dst: 60, Start: 600},
				{Src: 3, Dst: 90, Start: 1200},
			},
			opt:  pathenum.Options{K: 30, Delta: 20},
			body: `{"dataset":"infocom-3-6","messages":[{"src":25,"dst":60,"start":600},{"src":3,"dst":90,"start":1200}],"k":30,"delta":20}`,
		},
	} {
		t.Run(tc.dataset, func(t *testing.T) {
			status, served := post(t, ts.URL+"/enumerate", tc.body)
			if status != http.StatusOK {
				t.Fatalf("status %d: %s", status, served)
			}

			// Direct library call: fresh trace, fresh serial enumerator,
			// no service code beyond the response shaping.
			tr, err := reg.Trace(tc.dataset)
			if err != nil {
				t.Fatal(err)
			}
			opt := tc.opt
			opt.Workers = 1
			enum, err := pathenum.NewEnumerator(tr, opt)
			if err != nil {
				t.Fatal(err)
			}
			results, err := enum.EnumerateAll(tc.msgs, nil)
			if err != nil {
				t.Fatal(err)
			}
			k := opt.K
			want := &EnumerateResponse{
				Dataset: tc.dataset,
				Delta:   enum.Graph().Delta,
				K:       k,
				Results: make([]EnumerateResult, len(results)),
			}
			for i, r := range results {
				want.Results[i] = enumerateResult(r, k)
			}
			if !bytes.Equal(served, respBytes(t, want)) {
				t.Errorf("served response differs from direct library call\nserved: %.200s\ndirect: %.200s",
					served, respBytes(t, want))
			}

			// Repeat request: the cached response must be byte-identical.
			_, again := post(t, ts.URL+"/enumerate", tc.body)
			if !bytes.Equal(served, again) {
				t.Error("repeat request returned different bytes")
			}
		})
	}
}

// TestServedSimulateEquivalence compares /simulate responses with a
// direct library run (serial, no shared caches) across two datasets,
// two seeds, both copy modes and a stateful algorithm.
func TestServedSimulateEquivalence(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	reg := NewRegistry()

	cases := []SimulateRequest{
		{Dataset: "dev", Algorithm: "Epidemic", Rate: 0.1, Runs: 2, Seed: 1},
		{Dataset: "dev", Algorithm: "greedy-total", Rate: 0.1, Runs: 2, Seed: 7},
		{Dataset: "dev", Algorithm: "FRESH", CopyMode: "relay", Rate: 0.1, Runs: 1, Seed: 7},
		{Dataset: "dev", Algorithm: "prophet", Rate: 0.1, Runs: 2, Seed: 3},
		{Dataset: "infocom-3-6", Algorithm: "Epidemic", Rate: 0.05, Runs: 2, Seed: 2},
	}
	for _, req := range cases {
		name := fmt.Sprintf("%s_%s_s%d", req.Dataset, req.Algorithm, req.Seed)
		t.Run(name, func(t *testing.T) {
			body, err := json.Marshal(req)
			if err != nil {
				t.Fatal(err)
			}
			status, served := post(t, ts.URL+"/simulate", string(body))
			if status != http.StatusOK {
				t.Fatalf("status %d: %s", status, served)
			}

			// Direct library run: serial workers, fresh algorithm, no
			// precomputed oracle.
			want := directSimulate(t, reg, req)
			if !bytes.Equal(served, respBytes(t, want)) {
				t.Errorf("served response differs from direct library call\nserved: %s\ndirect: %s",
					served, respBytes(t, want))
			}

			_, again := post(t, ts.URL+"/simulate", string(body))
			if !bytes.Equal(served, again) {
				t.Error("repeat request returned different bytes")
			}
		})
	}
}

// directSimulate reproduces the /simulate computation with plain
// library calls (Workers: 1, no shared artifacts) and shapes the
// response exactly as the handler documents it.
func directSimulate(t *testing.T, reg *Registry, req SimulateRequest) *SimulateResponse {
	t.Helper()
	req.withDefaults()
	srv := New(Config{Registry: reg, Workers: 1, CacheSize: -1})
	resp, err := srv.Simulate(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestServedSimulateMatchesRawRuns recomputes a served /simulate
// response from first principles — plain dtnsim.Run calls (fresh
// oracle, serial, no sweep engine, no service artifacts) merged in run
// order — and compares the delivery statistics field by field. dtnsim's
// own golden-reference suite pins Run against the vendored pre-sweep
// simulator, so this closes the chain: served /simulate ≡ sweep engine
// ≡ raw Run ≡ the pre-refactor implementation.
func TestServedSimulateMatchesRawRuns(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	const runs = 3
	req := SimulateRequest{Dataset: "dev", Algorithm: "Greedy", CopyMode: "relay", Rate: 0.1, Runs: runs, Seed: 5}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	status, served := post(t, ts.URL+"/simulate", string(body))
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, served)
	}
	var got SimulateResponse
	if err := json.Unmarshal(served, &got); err != nil {
		t.Fatal(err)
	}

	tr := tracegen.Dev(1)
	all := make([]*dtnsim.Result, runs)
	for i := range all {
		msgs := dtnsim.Workload(tr, req.Rate, tr.Horizon*2/3, engine.DeriveSeed(req.Seed, i))
		all[i], err = dtnsim.Run(dtnsim.Config{
			Trace: tr, Algorithm: forward.Greedy{}, Messages: msgs, CopyMode: dtnsim.Relay, Workers: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	merged := dtnsim.Merge(all...)
	if got.Messages != len(merged.Outcomes) || got.Transmissions != merged.Transmissions {
		t.Errorf("served messages/transmissions = %d/%d, raw %d/%d",
			got.Messages, got.Transmissions, len(merged.Outcomes), merged.Transmissions)
	}
	if got.SuccessRate == nil || *got.SuccessRate != merged.SuccessRate() {
		t.Errorf("served success rate %v, raw %v", got.SuccessRate, merged.SuccessRate())
	}
	delivered := 0
	for _, o := range merged.Outcomes {
		if o.Delivered {
			delivered++
		}
	}
	if got.Delivered != delivered {
		t.Errorf("served delivered = %d, raw %d", got.Delivered, delivered)
	}
	if delivered > 0 && (got.MeanDelay == nil || *got.MeanDelay != merged.MeanDelay()) {
		t.Errorf("served mean delay %v, raw %v", got.MeanDelay, merged.MeanDelay())
	}
}

// TestServedSimulateWorkerEquivalence: the same request served by a
// parallel server and a serial server yields identical bytes.
func TestServedSimulateWorkerEquivalence(t *testing.T) {
	_, parallel := newTestServer(t, Config{Workers: 4})
	_, serial := newTestServer(t, Config{Workers: 1})
	body := `{"dataset":"dev","algorithm":"Epidemic","rate":0.2,"runs":2,"seed":5}`
	_, a := post(t, parallel.URL+"/simulate", body)
	_, b := post(t, serial.URL+"/simulate", body)
	if !bytes.Equal(a, b) {
		t.Errorf("workers=4 and workers=1 servers differ:\n%s\n%s", a, b)
	}
}

// TestSimulateLimits: a /simulate body just over the run limit or the
// message limit, or whose message count overflows to +Inf, gets 400
// before any workload is generated.
func TestSimulateLimits(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	window := tracegen.Dev(1).Horizon * 2 / 3
	for _, body := range []string{
		fmt.Sprintf(`{"dataset":"dev","algorithm":"epidemic","runs":%d}`, maxSimulateRuns+1),
		fmt.Sprintf(`{"dataset":"dev","algorithm":"epidemic","rate":%v}`, (maxSimulateMessages+1)/window),
		`{"dataset":"dev","algorithm":"epidemic","rate":1e308,"runs":2}`,
	} {
		if status, out := post(t, ts.URL+"/simulate", body); status != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400: %s", body, status, out)
		}
	}
}

func TestServedDatasetsAndFiguresLists(t *testing.T) {
	s, ts := newTestServer(t, Config{})

	status, body := get(t, ts.URL+"/datasets")
	if status != http.StatusOK {
		t.Fatalf("/datasets: status %d", status)
	}
	if want := respBytes(t, DatasetsResponse{Datasets: s.Registry().List()}); !bytes.Equal(body, want) {
		t.Errorf("/datasets = %s, want %s", body, want)
	}

	status, body = get(t, ts.URL+"/figures")
	if status != http.StatusOK {
		t.Fatalf("/figures: status %d", status)
	}
	all := figures.All()
	want := FiguresResponse{Figures: make([]FigureInfo, len(all))}
	for i, f := range all {
		want.Figures[i] = FigureInfo{ID: f.ID, Title: f.Title}
	}
	if wantB := respBytes(t, want); !bytes.Equal(body, wantB) {
		t.Errorf("/figures = %s, want %s", body, wantB)
	}
}

func TestServedHealthz(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	status, body := get(t, ts.URL+"/healthz")
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	want := respBytes(t, HealthResponse{Status: "ok", Datasets: len(s.Registry().Names())})
	if !bytes.Equal(body, want) {
		t.Errorf("/healthz = %s, want %s", body, want)
	}
}

// servedErrorCases are requests the server must refuse, with the status
// and a word the error must name. FuzzServeBodies seeds its corpus with
// their bodies.
var servedErrorCases = []struct {
	name, method, path, body string
	wantStatus               int
	wantMention              string
}{
	{"unknown dataset", "POST", "/enumerate", `{"dataset":"nope","src":0,"dst":1}`, http.StatusNotFound, "available"},
	{"bad body", "POST", "/enumerate", `{"dataset":`, http.StatusBadRequest, "bad request body"},
	{"trailing value", "POST", "/enumerate", `{"dataset":"dev","src":0,"dst":1}{"junk":1}`, http.StatusBadRequest, "after JSON value"},
	{"trailing garbage", "POST", "/enumerate", `{"dataset":"dev","src":0,"dst":1} trailing`, http.StatusBadRequest, "after JSON value"},
	{"trailing on simulate", "POST", "/simulate", `{"dataset":"dev","algorithm":"Epidemic"}[]`, http.StatusBadRequest, "after JSON value"},
	{"unknown field", "POST", "/enumerate", `{"dataset":"dev","src":0,"dst":1,"bogus":1}`, http.StatusBadRequest, "bogus"},
	{"no table width", "POST", "/enumerate", `{"dataset":"dev","src":0,"dst":17,"k":10,"tableWidth":5}`, http.StatusBadRequest, "tableWidth"},
	{"no arrival cap", "POST", "/enumerate", `{"dataset":"dev","src":0,"dst":17,"k":10,"maxArrivals":40}`, http.StatusBadRequest, "maxArrivals"},
	{"missing endpoints", "POST", "/enumerate", `{"dataset":"dev"}`, http.StatusBadRequest, "missing src/dst"},
	{"src only", "POST", "/enumerate", `{"dataset":"dev","src":3}`, http.StatusBadRequest, "both"},
	{"equal endpoints", "POST", "/enumerate", `{"dataset":"dev","src":3,"dst":3}`, http.StatusBadRequest, "source equals destination"},
	{"both forms", "POST", "/enumerate", `{"dataset":"dev","src":0,"dst":1,"messages":[{"src":0,"dst":1}]}`, http.StatusBadRequest, "mutually exclusive"},
	{"negative k", "POST", "/enumerate", `{"dataset":"dev","src":0,"dst":1,"k":-5}`, http.StatusBadRequest, "negative"},
	{"negative delta", "POST", "/enumerate", `{"dataset":"dev","src":0,"dst":1,"delta":-1}`, http.StatusBadRequest, "delta"},
	{"negative rate", "POST", "/simulate", `{"dataset":"dev","algorithm":"Epidemic","rate":-1}`, http.StatusBadRequest, "negative"},
	{"unknown algorithm", "POST", "/simulate", `{"dataset":"dev","algorithm":"teleport"}`, http.StatusBadRequest, "Epidemic"},
	{"unknown copy mode", "POST", "/simulate", `{"dataset":"dev","algorithm":"Epidemic","copyMode":"beam"}`, http.StatusBadRequest, "replicate or relay"},
	{"no figure data", "GET", "/figures/F01/data", "", http.StatusNotFound, ""},
	{"wrong method", "GET", "/enumerate", "", http.StatusMethodNotAllowed, ""},
}

func TestServedErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, tc := range servedErrorCases {
		t.Run(tc.name, func(t *testing.T) {
			var status int
			var body []byte
			if tc.method == "POST" {
				status, body = post(t, ts.URL+tc.path, tc.body)
			} else {
				status, body = get(t, ts.URL+tc.path)
			}
			if status != tc.wantStatus {
				t.Fatalf("status %d, want %d (%s)", status, tc.wantStatus, body)
			}
			if tc.wantMention == "" {
				return
			}
			var eb errorBody
			if err := json.Unmarshal(body, &eb); err != nil {
				t.Fatalf("error body not JSON: %s", body)
			}
			if !strings.Contains(eb.Error, tc.wantMention) {
				t.Errorf("error %q does not mention %q", eb.Error, tc.wantMention)
			}
		})
	}
}

// countingWriter must stay transparent to http.ResponseController:
// Unwrap routes the controller to the underlying writer's optional
// interfaces, which embedding alone hides behind the wrapper's static
// type. httptest.ResponseRecorder implements http.Flusher, so a Flush
// through the wrapper must reach it rather than fail ErrNotSupported.
func TestCountingWriterUnwrapFlush(t *testing.T) {
	rec := httptest.NewRecorder()
	cw := &countingWriter{ResponseWriter: rec}
	if err := http.NewResponseController(cw).Flush(); err != nil {
		t.Fatalf("Flush through countingWriter: %v", err)
	}
	if !rec.Flushed {
		t.Error("flush did not reach the underlying ResponseRecorder")
	}
}

// TestServedRequestLimits pins the request-size guards: bodies beyond
// maxBodyBytes are rejected with 413 before being decoded, batches
// beyond maxBatchMessages with 400 before being enumerated, and budgets
// beyond maxEnumBudget, maxEnumArrivals or maxBatchArrivals with 400
// naming the limit, before anything is built.
func TestServedRequestLimits(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	var big bytes.Buffer
	big.WriteString(`{"dataset":"dev","messages":[`)
	for big.Len() < maxBodyBytes+1024 {
		big.WriteString(`{"src":0,"dst":1},`)
	}
	big.WriteString(`{"src":0,"dst":1}]}`)
	status, body := post(t, ts.URL+"/enumerate", big.String())
	if status != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: status %d, want 413 (%s)", status, body)
	}

	var batch bytes.Buffer
	batch.WriteString(`{"dataset":"dev","messages":[`)
	for i := 0; i <= maxBatchMessages; i++ {
		if i > 0 {
			batch.WriteByte(',')
		}
		batch.WriteString(`{"src":0,"dst":1}`)
	}
	batch.WriteString(`]}`)
	status, body = post(t, ts.URL+"/enumerate", batch.String())
	if status != http.StatusBadRequest {
		t.Fatalf("oversized batch: status %d, want 400 (%s)", status, body)
	}
	if !bytes.Contains(body, []byte("message limit")) {
		t.Errorf("oversized batch error does not mention the limit: %s", body)
	}

	for name, body := range budgetRefusals() {
		status, out := post(t, ts.URL+"/enumerate", body)
		if status != http.StatusBadRequest || !bytes.Contains(out, []byte("limit")) {
			t.Errorf("%s over its limit: status %d (%s), want 400 naming the limit", name, status, out)
		}
	}
}

// budgetRefusals maps each /enumerate budget limit to a body just over
// it and within every other limit. FuzzServeBodies seeds its corpus
// with them.
func budgetRefusals() map[string]string {
	var batch strings.Builder
	batch.WriteString(`{"dataset":"dev","messages":[`)
	for i := 0; i <= maxBatchBudget/maxEnumBudget; i++ {
		if i > 0 {
			batch.WriteByte(',')
		}
		batch.WriteString(`{"src":0,"dst":1}`)
	}
	fmt.Fprintf(&batch, `],"k":%d}`, maxEnumBudget)
	return map[string]string{
		"k":     fmt.Sprintf(`{"dataset":"dev","src":0,"dst":17,"k":%d}`, maxEnumBudget+1),
		"batch": batch.String(),
	}
}

// TestServedBackpressure503 exercises the shed path end-to-end on a
// saturated server: with one in-flight slot held by a request stuck in
// a dataset build, the next experiment request is rejected immediately
// with 503 and a Retry-After hint, the rejection is counted, the probe
// endpoints still answer, and the stuck request completes normally once
// the build unblocks.
func TestServedBackpressure503(t *testing.T) {
	reg, g := gatedRegistry(t)
	_, ts := newTestServer(t, Config{Registry: reg, MaxInflight: 1})

	const body = `{"dataset":"gated","src":0,"dst":17,"start":0,"k":5}`
	type result struct {
		status int
		body   []byte
		err    error
	}
	first := make(chan result, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/enumerate", "application/json", strings.NewReader(body))
		if err != nil {
			first <- result{err: err}
			return
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		first <- result{resp.StatusCode, b, err}
	}()
	// Only proceed once the single slot is provably held: the first
	// request is inside the blocked dataset build.
	<-g.entered

	resp, err := http.Post(ts.URL+"/enumerate", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	shedBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("shed request: status %d, want 503 (%s)", resp.StatusCode, shedBody)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("shed 503 is missing the Retry-After header")
	}
	if !bytes.Contains(shedBody, []byte("capacity")) {
		t.Errorf("shed 503 body does not mention capacity: %s", shedBody)
	}

	// Probes bypass the semaphore and must answer while saturated.
	if status, b := get(t, ts.URL+"/healthz"); status != http.StatusOK {
		t.Errorf("/healthz while saturated: status %d (%s)", status, b)
	}
	status, metricsBody := get(t, ts.URL+"/metrics")
	if status != http.StatusOK {
		t.Fatalf("/metrics while saturated: status %d", status)
	}
	for _, want := range []string{
		"psn_rejected_total 1",
		"psn_inflight_requests 1",
		`psn_responses_total{code="503"} 1`,
	} {
		if !strings.Contains(string(metricsBody), want) {
			t.Errorf("/metrics missing %q:\n%s", want, metricsBody)
		}
	}

	g.open()
	r := <-first
	if r.err != nil {
		t.Fatalf("blocked request failed: %v", r.err)
	}
	if r.status != http.StatusOK {
		t.Fatalf("blocked request: status %d after release, want 200 (%s)", r.status, r.body)
	}
	var out EnumerateResponse
	if err := json.Unmarshal(r.body, &out); err != nil {
		t.Fatalf("released response is not valid JSON: %v\n%s", err, r.body)
	}
}

// TestServedConcurrentStress hammers one server from many goroutines
// with a mix of cache-hitting and distinct requests; every response
// must equal the precomputed expected bytes. Run under -race this also
// exercises the artifact singleflight, the LRU, and the shared
// enumerators.
func TestServedConcurrentStress(t *testing.T) {
	// MaxInflight is raised above the goroutine count: the default cap
	// (4×GOMAXPROCS) can legitimately shed on small CI machines, and
	// this test measures response equality under concurrency, not
	// backpressure (TestBackpressure covers that).
	_, ts := newTestServer(t, Config{Workers: 2, CacheSize: 4, MaxInflight: 16})

	type reqCase struct {
		path, body string
		want       []byte
	}
	var cases []reqCase
	for seed := 1; seed <= 2; seed++ {
		body := fmt.Sprintf(`{"dataset":"dev","algorithm":"Epidemic","rate":0.1,"runs":1,"seed":%d}`, seed)
		status, want := post(t, ts.URL+"/simulate", body)
		if status != http.StatusOK {
			t.Fatalf("simulate seed %d: %d %s", seed, status, want)
		}
		cases = append(cases, reqCase{"/simulate", body, want})
	}
	for _, msg := range []string{
		`{"dataset":"dev","src":0,"dst":17,"start":0,"k":30}`,
		`{"dataset":"dev","src":4,"dst":11,"start":200,"k":30}`,
		`{"dataset":"dev","src":9,"dst":1,"start":500,"k":25}`,
	} {
		status, want := post(t, ts.URL+"/enumerate", msg)
		if status != http.StatusOK {
			t.Fatalf("enumerate: %d %s", status, want)
		}
		cases = append(cases, reqCase{"/enumerate", msg, want})
	}

	const goroutines = 8
	const rounds = 6
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				c := cases[(g+r)%len(cases)]
				resp, err := http.Post(ts.URL+c.path, "application/json", strings.NewReader(c.body))
				if err != nil {
					t.Error(err)
					return
				}
				got, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					t.Error(err)
					return
				}
				if resp.StatusCode != http.StatusOK {
					t.Errorf("goroutine %d round %d: status %d", g, r, resp.StatusCode)
					return
				}
				if !bytes.Equal(got, c.want) {
					t.Errorf("goroutine %d round %d: response differs under concurrency", g, r)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestBackpressure verifies the bounded in-flight semaphore: with
// MaxInflight 1 and one request parked inside a handler, the next is
// shed with 503 and a Retry-After hint, and the probe endpoints stay
// available.
func TestBackpressure(t *testing.T) {
	s := New(Config{MaxInflight: 1})
	entered := make(chan struct{})
	release := make(chan struct{})
	var enterOnce sync.Once
	blocked := s.limited("test", func(w http.ResponseWriter, r *http.Request, ri *reqInfo) {
		enterOnce.Do(func() { close(entered) })
		<-release
		w.WriteHeader(http.StatusOK)
	})

	first := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		defer close(done)
		blocked(first, httptest.NewRequest("POST", "/test", nil))
	}()
	<-entered

	second := httptest.NewRecorder()
	blocked(second, httptest.NewRequest("POST", "/test", nil))
	if second.Code != http.StatusServiceUnavailable {
		t.Fatalf("second request: status %d, want 503", second.Code)
	}
	if second.Result().Header.Get("Retry-After") == "" {
		t.Error("503 response missing Retry-After")
	}
	if n := s.metrics.rejected.Load(); n != 1 {
		t.Errorf("rejected counter = %d, want 1", n)
	}

	// Probes bypass the semaphore.
	probe := httptest.NewRecorder()
	s.ServeHTTP(probe, httptest.NewRequest("GET", "/healthz", nil))
	if probe.Code != http.StatusOK {
		t.Errorf("/healthz under saturation: status %d", probe.Code)
	}

	close(release)
	<-done
	if first.Code != http.StatusOK {
		t.Errorf("first request: status %d", first.Code)
	}

	// The slot is free again (release stays closed, so the handler
	// passes straight through).
	third := httptest.NewRecorder()
	blocked(third, httptest.NewRequest("POST", "/test", nil))
	if third.Code != http.StatusOK {
		t.Errorf("third request after release: status %d", third.Code)
	}
}

func TestMetricsExposition(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	get(t, ts.URL+"/healthz")
	post(t, ts.URL+"/enumerate", `{"dataset":"dev","src":0,"dst":17,"k":20}`)
	post(t, ts.URL+"/enumerate", `{"dataset":"dev","src":0,"dst":17,"k":20}`) // cache hit

	status, body := get(t, ts.URL+"/metrics")
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	text := string(body)
	for _, want := range []string{
		`psn_requests_total{endpoint="healthz"} 1`,
		`psn_requests_total{endpoint="enumerate"} 2`,
		`psn_responses_total{code="200"}`,
		"psn_inflight_requests 0",
		"psn_result_cache_hits_total 1",
		"psn_result_cache_misses_total 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q in:\n%s", want, text)
		}
	}
}

// TestEnumeratorGraphSharing pins the artifact-cache contract: two
// enumerators differing only in budget share one graph index.
func TestEnumeratorGraphSharing(t *testing.T) {
	s := New(Config{})
	a, err := s.art.enumerator("dev", pathenum.Options{K: 10}, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.art.enumerator("dev", pathenum.Options{K: 99}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("different budgets returned the same enumerator")
	}
	if a.Graph() != b.Graph() {
		t.Error("enumerators with different budgets do not share the graph index")
	}
	c, err := s.art.enumerator("dev", pathenum.Options{K: 10}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a != c {
		t.Error("same budget did not return the cached enumerator")
	}
}

// TestDirectAndServedShareEnumerator: a direct Enumerate call and a
// served request with the same budget both run on the server's Workers,
// so they share one cached enumerator, and warming a server through
// Enumerate warms what its traffic uses.
func TestDirectAndServedShareEnumerator(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	if _, err := s.Enumerate("dev", []pathenum.Message{{Src: 0, Dst: 1}}, pathenum.Options{K: 50}); err != nil {
		t.Fatal(err)
	}
	if code, body := post(t, ts.URL+"/enumerate", enumBody); code != http.StatusOK {
		t.Fatalf("served request: status %d (%s)", code, body)
	}
	if n := s.art.enums.order.Len(); n != 1 {
		t.Errorf("%d enumerators cached, want 1 shared by the direct call and the served request", n)
	}
}
