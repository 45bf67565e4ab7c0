package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"time"

	psn "repro"
	"repro/internal/service"
)

// Serve traffic is the traffic the repository's load generator,
// cmd/psn-load, sends by default and every committed LOAD_*.json report
// records: the mix enumerate=4,batch=1,simulate=2,figures=1, psn-load's
// request shapes, and the dev dataset, at the 50 requests/s of the
// warm-server report LOAD_2026-08-08.json. That mix was chosen, not
// measured from users; it stays fixed until measured traffic is
// recorded. At most two senders over at most two connections, one per
// core of the machine the benchmark was sized on, so the load generator
// never outnumbers the server.
const (
	serveDataset = "dev"
	serveSenders = 2
	serveRate    = 50 // phase A arrivals per second
	loadNodes    = 18 // requests name nodes 0..17, as psn-load's do
	loadK        = 50
	batchSize    = 8
	simSeeds     = 16 // /simulate seeds run 1..16
	checkEvery   = 20 // every 20th phase A request is compared with the direct call

	// serveSetups is how many set-ups a serve run times. One takes about
	// 2 ms, so a median over many costs little and keeps setup_s steady.
	serveSetups = 15

	// maxLate bounds the 99th percentile of the generator's lateness. A
	// late send can only raise the latencies, which run from the due
	// time, so a single late send hides nothing; but a generator late
	// on more than one request in a hundred no longer offers the
	// arrival process it claims. The limit is one scheduler time slice:
	// the senders share the two cores with the server, and a sender
	// whose timer fires while both cores serve waits up to that long.
	maxLate = 10 * time.Millisecond

	// lateSlack is the lateness load.late_ratio counts a send for: more
	// than timer and scheduling jitter on an idle machine.
	lateSlack = time.Millisecond
)

// serveClasses is the request mix: a request's class is drawn with
// these weights, then the class builds the request's payload. A nil
// payload is GET /figures.
var serveClasses = []struct {
	name   string
	weight int
	build  func(*rand.Rand) any
}{
	{"enumerate", 4, enumerateRequest},
	{"batch", 1, batchRequest},
	{"simulate", 2, simulateRequest},
	{"figures", 1, func(*rand.Rand) any { return nil }},
}

// serveEnv is one in-process server on a loopback port and its client.
type serveEnv struct {
	srv     *psn.Server
	hs      *http.Server
	served  chan error
	url     string
	client  *http.Client
	figures int // figures GET /figures must list
}

func startServer() (*serveEnv, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	e := &serveEnv{
		srv:    psn.NewServer(psn.ServeConfig{}),
		served: make(chan error, 1),
		url:    "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     serveSenders,
			MaxIdleConnsPerHost: serveSenders,
		}},
		figures: len(psn.Figures()),
	}
	e.hs = &http.Server{Handler: e.srv.Handler()}
	go func() { e.served <- e.hs.Serve(ln) }()
	return e, nil
}

// close shuts the server down and waits until it has stopped serving.
func (e *serveEnv) close() error {
	e.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := e.hs.Shutdown(ctx)
	if serr := <-e.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return err
}

// warm generates the dataset and builds the artifacts the traffic uses:
// trace, space-time graph, enumerator at k loadK, and the simulation
// sweep. The direct calls bypass the result cache, so it starts empty.
func (e *serveEnv) warm(c config) error {
	if err := c.tr.do("tracegen.generate", -1, -1, func() error { _, err := e.srv.Registry().Trace(serveDataset); return err }); err != nil {
		return err
	}
	return c.tr.do("service.warm", -1, -1, func() error {
		if _, err := e.srv.Enumerate(serveDataset, []psn.PathMessage{{Src: 0, Dst: 1}}, psn.EnumOptions{K: loadK}); err != nil {
			return err
		}
		_, err := e.srv.Simulate(service.SimulateRequest{Dataset: serveDataset, Algorithm: "epidemic"})
		return err
	})
}

// loadDst draws a destination other than src among the first loadNodes
// nodes.
func loadDst(rng *rand.Rand, src int) int {
	dst := rng.IntN(loadNodes - 1)
	if dst >= src {
		dst++
	}
	return dst
}

// enumerateRequest is a single-message /enumerate starting at 0, 10,
// 20, 30 or 40 s.
func enumerateRequest(rng *rand.Rand) any {
	src := rng.IntN(loadNodes)
	dst := loadDst(rng, src)
	start := float64(rng.IntN(5)) * 10
	return &service.EnumerateRequest{Dataset: serveDataset, Src: &src, Dst: &dst, Start: &start, K: loadK}
}

// batchRequest is a shared-prefix batch: batchSize messages from one
// source at time 0, each to a destination drawn on its own.
func batchRequest(rng *rand.Rand) any {
	src := rng.IntN(loadNodes)
	req := &service.EnumerateRequest{Dataset: serveDataset, K: loadK}
	for range batchSize {
		req.Messages = append(req.Messages, service.MessageJSON{Src: src, Dst: loadDst(rng, src)})
	}
	return req
}

// simulateRequest is one epidemic run on a seed from a small pool, so
// that repeated seeds meet the result cache.
func simulateRequest(rng *rand.Rand) any {
	return &service.SimulateRequest{Dataset: serveDataset, Algorithm: "epidemic", Runs: 1, Seed: 1 + rng.Int64N(simSeeds)}
}

func newRequest(idx int, class string, payload any) request {
	r := request{idx: idx, class: class, payload: payload}
	switch payload.(type) {
	case *service.EnumerateRequest:
		r.path = "/enumerate"
	case *service.SimulateRequest:
		r.path = "/simulate"
	default:
		r.path = "/figures"
		return r
	}
	body, err := json.Marshal(payload)
	if err != nil {
		panic(err) // the payload types always encode
	}
	r.body = body
	return r
}

// serveRequest builds request idx of a phase from its own stream split
// from the phase seed: a class drawn by the weights of serveClasses,
// then the class's request.
func serveRequest(phaseSeed int64, idx int) request {
	rng := rand.New(rand.NewPCG(uint64(phaseSeed), uint64(idx)))
	total := 0
	for _, c := range serveClasses {
		total += c.weight
	}
	n := rng.IntN(total)
	for _, c := range serveClasses {
		if n < c.weight {
			return newRequest(idx, c.name, c.build(rng))
		}
		n -= c.weight
	}
	panic("unreachable: n is below the total weight")
}

// send sends r and checks that the reply is a 200 that decodes: a
// /enumerate reply must hold one result per message, a /simulate reply
// must name its algorithm, a /figures reply must list every figure. The
// check decodes only those fields, so the client, which shares the
// cores with the server, allocates little.
func (e *serveEnv) send(r request) result {
	var resp *http.Response
	var err error
	if r.body == nil {
		resp, err = e.client.Get(e.url + r.path)
	} else {
		resp, err = e.client.Post(e.url+r.path, "application/json", bytes.NewReader(r.body))
	}
	if err != nil {
		return result{err: err}
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	res := result{status: resp.StatusCode, body: body, err: err}
	if err != nil || res.status != http.StatusOK {
		return res
	}
	switch p := r.payload.(type) {
	case *service.EnumerateRequest:
		var v struct {
			Results []struct{} `json:"results"`
		}
		want := max(len(p.Messages), 1)
		if err := json.Unmarshal(body, &v); err != nil || len(v.Results) != want {
			res.err = fmt.Errorf("undecodable or short /enumerate reply (%v, %d results for %d messages)", err, len(v.Results), want)
		}
	case *service.SimulateRequest:
		var v struct {
			Algorithm string `json:"algorithm"`
		}
		if err := json.Unmarshal(body, &v); err != nil || v.Algorithm == "" {
			res.err = fmt.Errorf("undecodable /simulate reply (%v)", err)
		}
	default:
		var v struct {
			Figures []struct{} `json:"figures"`
		}
		if err := json.Unmarshal(body, &v); err != nil || len(v.Figures) != e.figures {
			res.err = fmt.Errorf("undecodable or short /figures reply (%v, %d figures of %d)", err, len(v.Figures), e.figures)
		}
	}
	return res
}

// direct computes r with the library call behind its endpoint and
// returns the encoded response.
func (e *serveEnv) direct(r request) ([]byte, error) {
	var v any
	var err error
	switch p := r.payload.(type) {
	case *service.EnumerateRequest:
		var msgs []psn.PathMessage
		for _, m := range p.Messages {
			msgs = append(msgs, psn.PathMessage{Src: psn.NodeID(m.Src), Dst: psn.NodeID(m.Dst), Start: m.Start})
		}
		if p.Src != nil {
			msgs = []psn.PathMessage{{Src: psn.NodeID(*p.Src), Dst: psn.NodeID(*p.Dst), Start: *p.Start}}
		}
		v, err = e.srv.Enumerate(p.Dataset, msgs, psn.EnumOptions{K: p.K})
	case *service.SimulateRequest:
		v, err = e.srv.Simulate(*p)
	default:
		var list service.FiguresResponse
		for _, f := range psn.Figures() {
			list.Figures = append(list.Figures, service.FigureInfo{ID: f.ID, Title: f.Title})
		}
		v = list
	}
	if err != nil {
		return nil, err
	}
	return json.Marshal(v)
}

// completionGaps returns the intervals between consecutive
// completions of a phase, the first measured from the phase's start.
func completionGaps(samples []sample) []time.Duration {
	done := make([]time.Duration, len(samples))
	for i, s := range samples {
		done[i] = s.done
	}
	slices.Sort(done)
	gaps := make([]time.Duration, len(done))
	prev := time.Duration(0)
	for i, d := range done {
		gaps[i], prev = d-prev, d
	}
	return gaps
}

// jsonEqual reports whether two JSON documents hold the same value.
func jsonEqual(a, b []byte) bool {
	var va, vb any
	if json.Unmarshal(a, &va) != nil || json.Unmarshal(b, &vb) != nil {
		return false
	}
	return reflect.DeepEqual(va, vb)
}

// counters reads the named counters from the server's /metrics page.
func (e *serveEnv) counters(names ...string) (map[string]float64, error) {
	resp, err := e.client.Get(e.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		for _, want := range names {
			if ok && name == want {
				if out[want], err = strconv.ParseFloat(val, 64); err != nil {
					return nil, fmt.Errorf("metric %s: %w", want, err)
				}
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for _, want := range names {
		if _, ok := out[want]; !ok {
			return nil, fmt.Errorf("metric %s missing from /metrics", want)
		}
	}
	return out, nil
}

// runServe drives an in-process server over loopback HTTP. Phase A is
// open-loop Poisson traffic at a fixed rate; its latencies, timed from
// each request's due time, give op_p50_ms and op.tail_ms. Phase B sends
// back-to-back from two senders; its completions per second give
// ops_per_s. Set-up starts a server and warms the dataset.
func runServe(c config) (o *outcome, err error) {
	o = newOutcome()
	var prev *serveEnv
	e, setups, err := repeatSetup(c, serveSetups, func() (*serveEnv, error) {
		if prev != nil {
			if err := prev.close(); err != nil {
				return nil, fmt.Errorf("stop server: %w", err)
			}
		}
		e, err := startServer()
		if err != nil {
			return nil, err
		}
		prev = e
		return e, e.warm(c)
	})
	if prev != nil {
		defer func() {
			if cerr := prev.close(); cerr != nil && err == nil {
				err = fmt.Errorf("stop server: %w", cerr)
			}
		}()
	}
	if err != nil {
		return nil, fmt.Errorf("serve set-up: %w", err)
	}

	durA, durB := phaseDurations(c.window)
	seedA, seedB := psn.DeriveSeed(c.seed, 1), psn.DeriveSeed(c.seed, 2)
	dues := poissonDues(seedA, serveRate, durA, c.sc.serveCount)
	reqsA := make([]request, len(dues))
	for i, due := range dues {
		reqsA[i] = serveRequest(seedA, i)
		reqsA[i].due = due
	}
	traced := func(r request) result {
		id := c.tr.begin("service.request."+r.class, -1, r.idx)
		defer c.tr.end(id)
		return e.send(r)
	}

	before := readRuntime()
	samplesA := openLoop(reqsA, serveSenders, traced)
	gen := func(i int) request { return serveRequest(seedB, i) }
	sendB := func(r request) result {
		res := traced(r)
		res.body = nil // checked on receipt; not kept
		return res
	}
	samplesB, elapsedB := closedLoop(durB, serveSenders, gen, sendB)
	after := readRuntime()

	var lat, late []time.Duration
	var latSum, queuedSum time.Duration
	byClass := make(map[string][]float64)
	d := newDigester()
	var envelope []float64
	sentBefore := make(map[string]bool) // request bodies already sent in phase A
	for _, s := range samplesA {
		lat = append(lat, s.latency())
		latSum += s.latency()
		queuedSum += s.queued()
		late = append(late, s.late)
		byClass[s.req.class] = append(byClass[s.req.class], ms(s.latency()))
		repeat := sentBefore[string(s.req.body)]
		sentBefore[string(s.req.body)] = true
		o.attempted++
		if s.err != nil || s.status != http.StatusOK {
			o.fail("serve phase A request %d (%s): status %d, %v", s.req.idx, s.req.class, s.status, s.err)
			continue
		}
		if s.req.idx < c.sc.serveCount {
			d.add("%d %s\n", s.req.idx, s.body)
		}
		if s.req.idx%checkEvery != 0 {
			continue
		}
		var want []byte
		t := time.Now()
		err := c.tr.do("service.direct", -1, s.req.idx, func() (err error) { want, err = e.direct(s.req); return err })
		dt := time.Since(t)
		if err != nil || !jsonEqual(s.body, want) {
			o.fail("serve phase A request %d (%s): served reply differs from the direct call (%v)", s.req.idx, s.req.class, err)
			continue
		}
		// The envelope is taken over computed replies only: a request
		// sent before may have been answered by the result cache, and a
		// figure list computes nothing.
		if served := s.done - s.sent; !repeat && s.req.body != nil {
			envelope = append(envelope, float64(served-dt)/float64(served))
		}
	}
	for _, s := range samplesB {
		o.attempted++
		if s.err != nil || s.status != http.StatusOK {
			o.fail("serve phase B request %d (%s): status %d, %v", s.req.idx, s.req.class, s.status, s.err)
		}
	}
	lateMs := msAll(late)
	o.note("serve: generator lateness p99 %.2f ms, max %.2f ms", percentile(lateMs, 99), percentile(lateMs, 100))
	if p99 := percentile(lateMs, 99); p99 > ms(maxLate) {
		o.fail("serve: the load generator's p99 lateness is %.1f ms (limit %v); the arrivals are not the offered ones", p99, maxLate)
	}
	ctr, err := e.counters("psn_result_cache_hits_total", "psn_result_cache_misses_total", "psn_rejected_total")
	if err != nil {
		return nil, fmt.Errorf("serve: read /metrics: %w", err)
	}
	o.digest = d.sum()

	o.setEndToEnd(setups, lat, completionGaps(samplesB))
	o.note("serve: phase A %d requests due in %v, phase B %d requests in %v",
		len(samplesA), max(durA, dues[len(dues)-1]).Round(time.Millisecond), len(samplesB), elapsedB.Round(time.Millisecond))
	o.setRuntime(before, after, len(samplesA)+len(samplesB))
	for _, class := range serveClasses {
		o.note("serve: phase A %s p50 %.2f ms over %d requests", class.name, median(byClass[class.name]), len(byClass[class.name]))
	}
	hits, misses := ctr["psn_result_cache_hits_total"], ctr["psn_result_cache_misses_total"]
	o.set("service.cache_hit_ratio", "ratio", hits/max(hits+misses, 1))
	o.set("service.shed", "count", ctr["psn_rejected_total"])
	o.set("service.queue_ratio", "ratio", float64(queuedSum)/float64(max(latSum, 1)))
	o.set("service.envelope_ratio", "ratio", median(envelope))
	lateSends := 0
	for _, l := range late {
		lateSends += btoi(l > lateSlack)
	}
	o.set("load.late_ratio", "ratio", float64(lateSends)/float64(max(len(late), 1)))
	return o, nil
}
