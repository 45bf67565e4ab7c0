package service

import (
	"fmt"
	"net/http"
	"strings"

	"repro/internal/dtnsim"
	"repro/internal/engine"
	"repro/internal/figures"
	"repro/internal/forward"
	"repro/internal/pathenum"
	"repro/internal/trace"
)

// --- GET /healthz ---

// HealthResponse is the /healthz body. Status is "ok" normally,
// "degraded" while any file-backed dataset is in a load-failure
// backoff window (still HTTP 200 — every other dataset keeps serving),
// and "draining" during shutdown (HTTP 503, so load balancers stop
// routing here while in-flight requests finish).
type HealthResponse struct {
	Status   string   `json:"status"`
	Datasets int      `json:"datasets"`
	Degraded []string `json:"degraded,omitempty"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request, ri *reqInfo) {
	resp := HealthResponse{Status: "ok", Datasets: len(s.cfg.Registry.Names())}
	if deg := s.cfg.Registry.degraded(); len(deg) > 0 {
		resp.Status = "degraded"
		resp.Degraded = deg
	}
	if s.draining.Load() {
		resp.Status = "draining"
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	writeJSON(w, resp)
}

// --- GET /metrics ---

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request, ri *reqInfo) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.metrics.write(w, s.results, s.cfg.Registry)
}

// --- GET /datasets ---

// DatasetsResponse is the /datasets body.
type DatasetsResponse struct {
	Datasets []DatasetInfo `json:"datasets"`
}

func (s *Server) handleDatasets(w http.ResponseWriter, r *http.Request, ri *reqInfo) {
	writeJSON(w, DatasetsResponse{Datasets: s.cfg.Registry.List()})
}

// --- POST /enumerate ---

// MessageJSON is one (src, dst, start) forwarding problem.
type MessageJSON struct {
	Src   int     `json:"src"`
	Dst   int     `json:"dst"`
	Start float64 `json:"start"`
}

// EnumerateRequest asks for the valid-path enumeration of one message
// (Src/Dst/Start) or a batch (Messages). Zero-valued options take the
// paper defaults (Δ = 10 s, K = 2000).
type EnumerateRequest struct {
	Dataset string `json:"dataset"`

	// Single-message form.
	Src   *int     `json:"src,omitempty"`
	Dst   *int     `json:"dst,omitempty"`
	Start *float64 `json:"start,omitempty"`

	// Batch form (mutually exclusive with Src/Dst/Start).
	Messages []MessageJSON `json:"messages,omitempty"`

	Delta float64 `json:"delta,omitempty"`
	K     int     `json:"k,omitempty"`
}

// PathJSON is one valid space-time path: the node sequence from source
// to destination and the step at which each node was reached.
type PathJSON struct {
	Nodes []int `json:"nodes"`
	Steps []int `json:"steps"`
}

// EnumerateResult is the explosion summary and arrival set of one
// message.
type EnumerateResult struct {
	Src   int     `json:"src"`
	Dst   int     `json:"dst"`
	Start float64 `json:"start"`

	Found    bool     `json:"found"`
	T1       *float64 `json:"t1,omitempty"` // optimal path duration (when Found)
	Exploded bool     `json:"exploded"`
	TE       *float64 `json:"te,omitempty"` // time to explosion (when Exploded)

	Paths     int        `json:"paths"` // total delivered paths observed
	Exhausted bool       `json:"exhausted"`
	Arrivals  []PathJSON `json:"arrivals"`
}

// EnumerateResponse is the /enumerate body: one result per requested
// message, in request order.
type EnumerateResponse struct {
	Dataset string            `json:"dataset"`
	Delta   float64           `json:"delta"`
	K       int               `json:"k"`
	Results []EnumerateResult `json:"results"`
}

func (s *Server) handleEnumerate(w http.ResponseWriter, r *http.Request, ri *reqInfo) {
	var req EnumerateRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeError(w, statusOf(err), err)
		return
	}
	ri.dataset = req.Dataset
	msgs, err := enumerateMessages(req)
	if err != nil {
		writeError(w, statusOf(err), err)
		return
	}
	opt, err := pathenum.Options{Delta: req.Delta, K: req.K}.Normalized()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	key := enumerateKey(req.Dataset, msgs, opt)
	data, err := s.results.get(&ri.cx, key, func() ([]byte, error) {
		resp, err := s.enumerate(req.Dataset, msgs, opt, &ri.cx)
		if err != nil {
			return nil, err
		}
		return marshalResponse(resp)
	})
	if err != nil {
		s.writeHandlerError(w, ri, err)
		return
	}
	writeRaw(w, data)
}

// maxBatchMessages caps one /enumerate batch: enough for any figure-
// scale workload, small enough that a single request cannot occupy
// the engine pool indefinitely (larger studies split into batches).
const maxBatchMessages = 4096

// maxGraphSteps caps the space-time graph one /enumerate request may
// build: the dataset horizon over delta. The build allocates per step,
// so without it a tiny client-chosen delta could exhaust memory in a
// single request. It sits far above any graph the paper or the city
// datasets need (city-4k at Δ 5 s has 8,640 steps).
const maxGraphSteps = 1 << 20

// maxEnumBudget caps k, and maxBatchBudget caps messages × k for one
// /enumerate request. k sets both the table width and the 4·k arrival
// cap, so together they drive the request's allocation and body size;
// without them one request could hold gigabytes until its deadline.
// They sit at the paper's K and 32 paper-scale messages; larger
// studies split into several requests.
const (
	maxEnumBudget  = 2000
	maxBatchBudget = 32 * maxEnumBudget
)

// enumerateMessages resolves the single/batch request forms.
func enumerateMessages(req EnumerateRequest) ([]pathenum.Message, error) {
	single := req.Src != nil || req.Dst != nil || req.Start != nil
	switch {
	case single && len(req.Messages) > 0:
		return nil, badRequest("src/dst/start and messages are mutually exclusive")
	case len(req.Messages) > maxBatchMessages:
		return nil, badRequest("batch of %d messages exceeds the %d-message limit", len(req.Messages), maxBatchMessages)
	case single:
		if req.Src == nil || req.Dst == nil {
			return nil, badRequest("src and dst must both be set")
		}
		start := 0.0
		if req.Start != nil {
			start = *req.Start
		}
		return []pathenum.Message{{Src: trace.NodeID(*req.Src), Dst: trace.NodeID(*req.Dst), Start: start}}, nil
	case len(req.Messages) > 0:
		msgs := make([]pathenum.Message, len(req.Messages))
		for i, m := range req.Messages {
			msgs[i] = pathenum.Message{Src: trace.NodeID(m.Src), Dst: trace.NodeID(m.Dst), Start: m.Start}
		}
		return msgs, nil
	default:
		return nil, badRequest("missing src/dst (or messages)")
	}
}

// enumerateKey canonicalizes an enumeration request for the result
// cache. opt must already be normalized (Options.Normalized), so
// requests spelling the same work differently share one entry without
// this function re-deriving the library defaults.
func enumerateKey(dataset string, msgs []pathenum.Message, opt pathenum.Options) string {
	var b strings.Builder
	fmt.Fprintf(&b, "enumerate|%s|d=%g|k=%d", dataset, opt.Delta, opt.K)
	for _, m := range msgs {
		fmt.Fprintf(&b, "|%d,%d,%g", m.Src, m.Dst, m.Start)
	}
	return b.String()
}

// Enumerate runs the library path enumeration for msgs on a registered
// dataset and shapes the response. It is the exact computation behind
// POST /enumerate, exported so clients and the served-equivalence
// suite can compare byte-for-byte. It runs on the server's Workers:
// opt.Workers is ignored.
func (s *Server) Enumerate(dataset string, msgs []pathenum.Message, opt pathenum.Options) (*EnumerateResponse, error) {
	return s.enumerate(dataset, msgs, opt, nil)
}

// enumerate is Enumerate under the request's call context cx, threaded
// through the artifact pipeline and the enumeration dynamic program
// (nil is inert).
func (s *Server) enumerate(dataset string, msgs []pathenum.Message, opt pathenum.Options, cx *engine.Ctx) (*EnumerateResponse, error) {
	opt.Workers = s.cfg.Workers
	opt, err := opt.Normalized()
	if err != nil {
		return nil, &badRequestError{err: err}
	}
	switch {
	case opt.K > maxEnumBudget:
		return nil, badRequest("k %d exceeds the %d limit", opt.K, maxEnumBudget)
	case len(msgs)*opt.K > maxBatchBudget:
		return nil, badRequest("%d messages × k %d exceeds the %d batch limit", len(msgs), opt.K, maxBatchBudget)
	}
	tr, err := s.art.reg.trace(dataset, cx)
	if err != nil {
		return nil, err
	}
	// Refused before the graph build, which allocates per step.
	// Negated so that a step count that overflowed to +Inf is refused
	// too.
	if steps := tr.Horizon / opt.Delta; !(steps <= maxGraphSteps) {
		return nil, badRequest("delta %g over the %g s horizon is %.3g steps, over the %d-step limit",
			opt.Delta, tr.Horizon, steps, maxGraphSteps)
	}
	enum, err := s.art.enumerator(dataset, opt, cx)
	if err != nil {
		return nil, err
	}
	results, err := enum.EnumerateAll(msgs, cx)
	if err != nil {
		if engine.IsCanceled(err) {
			return nil, err
		}
		return nil, &badRequestError{err: err}
	}
	resp := &EnumerateResponse{
		Dataset: dataset,
		Delta:   enum.Graph().Delta,
		K:       opt.K,
		Results: make([]EnumerateResult, len(results)),
	}
	for i, res := range results {
		resp.Results[i] = enumerateResult(res, opt.K)
	}
	return resp, nil
}

func enumerateResult(res *pathenum.Result, k int) EnumerateResult {
	sum := res.ExplosionSummary(k)
	out := EnumerateResult{
		Src:       int(res.Msg.Src),
		Dst:       int(res.Msg.Dst),
		Start:     res.Msg.Start,
		Found:     sum.Found,
		Exploded:  sum.Exploded,
		Paths:     sum.Paths,
		Exhausted: res.Exhausted,
		Arrivals:  make([]PathJSON, len(res.Arrivals)),
	}
	if sum.Found {
		t1 := sum.T1
		out.T1 = &t1
	}
	if sum.Exploded {
		te := sum.TE
		out.TE = &te
	}
	for i, p := range res.Arrivals {
		nodes := p.Nodes()
		steps := p.Steps()
		pj := PathJSON{Nodes: make([]int, len(nodes)), Steps: steps}
		for j, n := range nodes {
			pj.Nodes[j] = int(n)
		}
		out.Arrivals[i] = pj
	}
	return out
}

// --- POST /simulate ---

// SimulateRequest asks for a multi-run forwarding simulation: Runs
// independent Poisson workloads (seeds split from Seed per run index)
// under one algorithm and copy mode, merged as the paper does.
type SimulateRequest struct {
	Dataset   string `json:"dataset"`
	Algorithm string `json:"algorithm"`          // e.g. "Epidemic", "greedy-total"
	CopyMode  string `json:"copyMode,omitempty"` // "replicate" (default) or "relay"

	Rate        float64 `json:"rate,omitempty"`        // messages/s; default 0.25
	GenFraction float64 `json:"genFraction,omitempty"` // workload window fraction; default 2/3
	Runs        int     `json:"runs,omitempty"`        // default 1
	Seed        int64   `json:"seed,omitempty"`        // default 1
}

// SimulateResponse is the /simulate body: the paper's delivery
// statistics merged over all runs. SuccessRate is omitted when no
// messages were generated and MeanDelay when nothing was delivered
// (both would be NaN).
type SimulateResponse struct {
	Dataset   string `json:"dataset"`
	Algorithm string `json:"algorithm"`
	CopyMode  string `json:"copyMode"`

	Rate        float64 `json:"rate"`
	GenFraction float64 `json:"genFraction"`
	Runs        int     `json:"runs"`
	Seed        int64   `json:"seed"`

	Messages      int      `json:"messages"`
	Delivered     int      `json:"delivered"`
	SuccessRate   *float64 `json:"successRate,omitempty"`
	MeanDelay     *float64 `json:"meanDelay,omitempty"`
	Transmissions int      `json:"transmissions"`
	TxPerMessage  *float64 `json:"txPerMessage,omitempty"`
}

func (req *SimulateRequest) withDefaults() {
	if req.CopyMode == "" {
		req.CopyMode = "replicate"
	}
	if req.Rate == 0 {
		req.Rate = 0.25
	}
	if req.GenFraction == 0 {
		req.GenFraction = 2.0 / 3.0
	}
	if req.Runs == 0 {
		req.Runs = 1
	}
	if req.Seed == 0 {
		req.Seed = 1
	}
}

func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request, ri *reqInfo) {
	var req SimulateRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeError(w, statusOf(err), err)
		return
	}
	ri.dataset = req.Dataset
	req.withDefaults()
	key := simulateKey(req)
	data, err := s.results.get(&ri.cx, key, func() ([]byte, error) {
		resp, err := s.simulate(req, &ri.cx)
		if err != nil {
			return nil, err
		}
		return marshalResponse(resp)
	})
	if err != nil {
		s.writeHandlerError(w, ri, err)
		return
	}
	writeRaw(w, data)
}

// maxSimulateRuns and maxSimulateMessages cap one /simulate request:
// its runs, and the messages its workloads generate over all runs
// (rate × horizon × genFraction × runs). Workload generation cannot be
// cancelled and every message costs memory in each run, so without
// them a small body could hold the server for minutes and exhaust its
// memory. Both sit far above any paper-scale simulation; larger
// studies split into several requests.
const (
	maxSimulateRuns     = 1000
	maxSimulateMessages = 1_000_000
)

// simulateKey canonicalizes a simulation request (defaults already
// applied).
func simulateKey(req SimulateRequest) string {
	alg, ok := AlgorithmByName(req.Algorithm)
	name := req.Algorithm
	if ok {
		name = alg.Name()
	}
	return fmt.Sprintf("simulate|%s|%s|%s|r=%g|g=%g|n=%d|s=%d",
		req.Dataset, name, req.CopyMode, req.Rate, req.GenFraction, req.Runs, req.Seed)
}

// Simulate runs the library forwarding simulation behind POST
// /simulate: Runs workloads with per-run seeds split from Seed, merged
// in run order, on the server's Workers. Exported for clients and the
// served-equivalence suite.
func (s *Server) Simulate(req SimulateRequest) (*SimulateResponse, error) {
	return s.simulate(req, nil)
}

// simulate is Simulate under the request's call context cx, threaded
// through the oracle pipeline and each run's event replay (nil is
// inert).
func (s *Server) simulate(req SimulateRequest, cx *engine.Ctx) (*SimulateResponse, error) {
	req.withDefaults()
	alg, ok := AlgorithmByName(req.Algorithm)
	if !ok {
		return nil, badRequest("unknown algorithm %q (available: %s)",
			req.Algorithm, strings.Join(AlgorithmNames(), ", "))
	}
	var mode dtnsim.CopyMode
	switch req.CopyMode {
	case "replicate":
		mode = dtnsim.Replicate
	case "relay":
		mode = dtnsim.Relay
	default:
		return nil, badRequest("unknown copy mode %q (replicate or relay)", req.CopyMode)
	}
	if req.Rate < 0 || req.GenFraction < 0 || req.GenFraction > 1 || req.Runs < 0 {
		return nil, badRequest("negative rate/runs or genFraction outside [0,1]")
	}
	if req.Runs > maxSimulateRuns {
		return nil, badRequest("%d runs exceed the %d-run limit", req.Runs, maxSimulateRuns)
	}
	sweep, tr, err := s.art.sweep(req.Dataset, cx)
	if err != nil {
		return nil, err
	}
	// Negated so that a product that overflowed to +Inf is refused too.
	if msgs := req.Rate * tr.Horizon * req.GenFraction * float64(req.Runs); !(msgs <= maxSimulateMessages) {
		return nil, badRequest("rate %g × %g s × genFraction %g × %d runs is about %.3g messages, over the %d-message limit",
			req.Rate, tr.Horizon, req.GenFraction, req.Runs, msgs, maxSimulateMessages)
	}
	runs := make([]*dtnsim.Result, req.Runs)
	for i := range runs {
		msgs := dtnsim.Workload(tr, req.Rate, tr.Horizon*req.GenFraction, engine.DeriveSeed(req.Seed, i))
		res, err := sweep.Run(dtnsim.Config{
			Algorithm: alg,
			Messages:  msgs,
			CopyMode:  mode,
			Workers:   s.cfg.Workers,
			Ctx:       cx,
		})
		if err != nil {
			if engine.IsCanceled(err) {
				return nil, err
			}
			return nil, fmt.Errorf("simulate %s/%s: %w", req.Dataset, alg.Name(), err)
		}
		runs[i] = res
	}
	merged := dtnsim.Merge(runs...)
	resp := &SimulateResponse{
		Dataset:     req.Dataset,
		Algorithm:   alg.Name(),
		CopyMode:    mode.String(),
		Rate:        req.Rate,
		GenFraction: req.GenFraction,
		Runs:        req.Runs,
		Seed:        req.Seed,
		Messages:    len(merged.Outcomes),
		Delivered:   countDelivered(merged),
	}
	resp.Transmissions = merged.Transmissions
	if resp.Messages > 0 {
		sr := merged.SuccessRate()
		resp.SuccessRate = &sr
		tx := float64(merged.Transmissions) / float64(resp.Messages)
		resp.TxPerMessage = &tx
	}
	if resp.Delivered > 0 {
		md := merged.MeanDelay()
		resp.MeanDelay = &md
	}
	return resp, nil
}

func countDelivered(r *dtnsim.Result) int {
	n := 0
	for _, o := range r.Outcomes {
		if o.Delivered {
			n++
		}
	}
	return n
}

// AlgorithmNames lists the servable forwarding algorithms (the
// paper's six) in presentation order.
func AlgorithmNames() []string {
	set := forward.PaperSet()
	out := make([]string, len(set))
	for i, a := range set {
		out[i] = a.Name()
	}
	return out
}

// AlgorithmByName resolves one of the paper's six forwarding
// algorithms case-insensitively, accepting hyphens for spaces
// ("greedy-total"). The rules are stateless, so concurrent simulations
// share the value it returns.
func AlgorithmByName(name string) (forward.Algorithm, bool) {
	want := strings.ToLower(strings.ReplaceAll(name, "-", " "))
	for _, a := range forward.PaperSet() {
		if strings.ToLower(a.Name()) == want {
			return a, true
		}
	}
	return nil, false
}

// --- GET /figures ---

// FigureInfo describes one renderable figure.
type FigureInfo struct {
	ID    string `json:"id"`
	Title string `json:"title"`
}

// FiguresResponse is the /figures body.
type FiguresResponse struct {
	Figures []FigureInfo `json:"figures"`
}

func (s *Server) handleFigures(w http.ResponseWriter, r *http.Request, ri *reqInfo) {
	all := figures.All()
	resp := FiguresResponse{Figures: make([]FigureInfo, len(all))}
	for i, f := range all {
		resp.Figures[i] = FigureInfo{ID: f.ID, Title: f.Title}
	}
	writeJSON(w, resp)
}
