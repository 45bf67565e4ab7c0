// Command psn-load drives an open-loop workload against a running
// psn-serve and reports per-class latency distributions. Arrivals are
// Poisson at the target rate and independent of completions — the
// generator keeps firing when the server slows down, so the measured
// latencies include queueing and the shed (503) count shows where the
// backpressure limit engaged, instead of the closed-loop coordinated
// omission that would hide both.
//
// Usage:
//
//	psn-load                                   # 30s mixed workload against :8080
//	psn-load -addr :9090 -duration 60s -rate 50
//	psn-load -mix enumerate=4,batch=1,simulate=2,figures=1
//	psn-load -serve -duration 2s -strict       # self-contained smoke (CI)
//	psn-load -baseline LOAD_2026-08-01.json -regress 1.5
//	psn-load -check LOAD_2026-08-08.json       # validate a report file
//
// The report lands in LOAD_<date>.json: per-class request/error/shed
// counts and p50/p90/p99/max/mean latencies, diffable against an
// earlier run with -baseline (same JSON-snapshot idiom as psn-bench).
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	mathrand "math/rand/v2"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	psn "repro"
	"repro/internal/engine"
	"repro/internal/obs"
)

// class is one request class of the mix: a weight, a request builder
// seeded per request, and the accumulated results.
type class struct {
	name   string
	weight int
	build  func(rng *mathrand.Rand, dataset string) (method, path string, body []byte)

	hist     obs.Histogram
	requests atomic.Int64
	errors   atomic.Int64
	shed     atomic.Int64
	retries  atomic.Int64
}

// devNodes is the node-ID pool for generated messages. Every built-in
// dataset has at least this many nodes, so random (src, dst) pairs
// below it are always valid.
const devNodes = 18

// buildEnumerate is a single-message /enumerate: random (src, dst)
// pair, small start jitter, modest K. The parameter spread gives the
// server's result cache a realistic mix of hits and misses.
func buildEnumerate(rng *mathrand.Rand, dataset string) (string, string, []byte) {
	src := rng.IntN(devNodes)
	dst := rng.IntN(devNodes - 1)
	if dst >= src {
		dst++
	}
	start := float64(rng.IntN(5)) * 10
	body := fmt.Sprintf(`{"dataset":%q,"src":%d,"dst":%d,"start":%g,"k":50}`, dataset, src, dst, start)
	return http.MethodPost, "/enumerate", []byte(body)
}

// buildBatch is a batch /enumerate of eight messages sharing a source
// and start — the shape the shared-prefix batch enumerator is built
// for.
func buildBatch(rng *mathrand.Rand, dataset string) (string, string, []byte) {
	src := rng.IntN(devNodes)
	var b strings.Builder
	fmt.Fprintf(&b, `{"dataset":%q,"k":50,"messages":[`, dataset)
	for i := 0; i < 8; i++ {
		dst := rng.IntN(devNodes - 1)
		if dst >= src {
			dst++
		}
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"src":%d,"dst":%d,"start":0}`, src, dst)
	}
	b.WriteString("]}")
	return http.MethodPost, "/enumerate", []byte(b.String())
}

// buildSimulate is a single-run epidemic /simulate with a per-request
// seed drawn from a small pool, mixing cached and fresh simulations.
func buildSimulate(rng *mathrand.Rand, dataset string) (string, string, []byte) {
	seed := 1 + rng.IntN(16)
	body := fmt.Sprintf(`{"dataset":%q,"algorithm":"epidemic","runs":1,"seed":%d}`, dataset, seed)
	return http.MethodPost, "/simulate", []byte(body)
}

// buildFigures lists the renderable figures — the cheap read-only
// probe class of the mix.
func buildFigures(rng *mathrand.Rand, dataset string) (string, string, []byte) {
	return http.MethodGet, "/figures", nil
}

var builders = map[string]func(*mathrand.Rand, string) (string, string, []byte){
	"enumerate": buildEnumerate,
	"batch":     buildBatch,
	"simulate":  buildSimulate,
	"figures":   buildFigures,
}

// parseMix turns "enumerate=4,batch=1,simulate=2,figures=1" into the
// class set with weights.
func parseMix(mix string) ([]*class, error) {
	var classes []*class
	seen := map[string]bool{}
	for _, part := range strings.Split(mix, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, ws, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("mix entry %q: want name=weight", part)
		}
		b, ok := builders[name]
		if !ok {
			return nil, fmt.Errorf("mix entry %q: unknown class (have enumerate, batch, simulate, figures)", part)
		}
		if seen[name] {
			return nil, fmt.Errorf("mix entry %q: class repeated", part)
		}
		seen[name] = true
		w, err := strconv.Atoi(ws)
		if err != nil || w < 0 {
			return nil, fmt.Errorf("mix entry %q: bad weight", part)
		}
		if w == 0 {
			continue
		}
		classes = append(classes, &class{name: name, weight: w, build: b})
	}
	if len(classes) == 0 {
		return nil, fmt.Errorf("mix %q selects no classes", mix)
	}
	return classes, nil
}

// LoadClass is one request class's results in the report.
type LoadClass struct {
	Name         string  `json:"name"`
	Requests     int64   `json:"requests"`
	Errors       int64   `json:"errors"`
	Shed         int64   `json:"shed"`
	Retries      int64   `json:"retries,omitempty"`
	AchievedRate float64 `json:"achievedRate"` // completed requests / wall time
	P50Ms        float64 `json:"p50Ms"`
	P90Ms        float64 `json:"p90Ms"`
	P99Ms        float64 `json:"p99Ms"`
	MaxMs        float64 `json:"maxMs"`
	MeanMs       float64 `json:"meanMs"`
}

// LoadReport is the LOAD_<date>.json shape — the psn-bench snapshot
// idiom applied to serving latency, diffable with -baseline.
type LoadReport struct {
	Date         string      `json:"date"`
	Addr         string      `json:"addr"`
	DurationS    float64     `json:"durationS"`
	TargetRate   float64     `json:"targetRate"`
	AchievedRate float64     `json:"achievedRate"`
	Mix          string      `json:"mix"`
	Dataset      string      `json:"dataset"`
	Seed         int64       `json:"seed"`
	GOMAXPROCS   int         `json:"gomaxprocs"`
	Requests     int64       `json:"requests"`
	Errors       int64       `json:"errors"`
	Shed         int64       `json:"shed"`
	Retries      int64       `json:"retries,omitempty"`
	Classes      []LoadClass `json:"classes"`
}

func main() {
	var (
		addr     = flag.String("addr", "http://127.0.0.1:8080", "psn-serve base URL (host:port also accepted)")
		duration = flag.Duration("duration", 30*time.Second, "generation window")
		rate     = flag.Float64("rate", 20, "target arrival rate, requests/second (open-loop Poisson)")
		mix      = flag.String("mix", "enumerate=4,batch=1,simulate=2,figures=1", "request mix as name=weight pairs")
		dataset  = flag.String("dataset", "dev", "dataset for enumerate/batch/simulate requests")
		seed     = flag.Int64("seed", 1, "workload seed (arrival process and request parameters)")
		timeout  = flag.Duration("timeout", 30*time.Second, "per-request timeout")
		out      = flag.String("o", "", "report path (default LOAD_<date>.json)")
		baseline = flag.String("baseline", "", "previous LOAD_*.json to diff against")
		regress  = flag.Float64("regress", 0, "fail (exit 1) when any class's p99 ratio vs -baseline exceeds this (0 = report only)")
		check    = flag.String("check", "", "validate a LOAD_*.json file and exit")
		serve    = flag.Bool("serve", false, "start an in-process server on an ephemeral port and load it (self-contained smoke)")
		strict   = flag.Bool("strict", false, "exit 1 if any request errored or was shed")
		retry    = flag.Int("retry", 0, "retries per shed (503) response, with capped jittered exponential backoff honoring Retry-After (0 = report sheds as-is)")
	)
	flag.Parse()

	if *check != "" {
		if err := checkReport(*check); err != nil {
			fmt.Fprintf(os.Stderr, "psn-load: check %s: %v\n", *check, err)
			os.Exit(1)
		}
		fmt.Printf("%s ok\n", *check)
		return
	}

	classes, err := parseMix(*mix)
	if err != nil {
		fmt.Fprintln(os.Stderr, "psn-load: -mix:", err)
		os.Exit(2)
	}

	var base snapshotBaseline
	if *baseline != "" {
		if err := base.load(*baseline); err != nil {
			fmt.Fprintln(os.Stderr, "psn-load: -baseline:", err)
			os.Exit(2)
		}
	}

	baseURL := *addr
	if *serve {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			fmt.Fprintln(os.Stderr, "psn-load: -serve:", err)
			os.Exit(1)
		}
		hs := &http.Server{Handler: psn.NewServer(psn.ServeConfig{}).Handler()}
		go hs.Serve(ln)
		defer hs.Close()
		baseURL = "http://" + ln.Addr().String()
	} else if !strings.Contains(baseURL, "://") {
		baseURL = "http://" + strings.TrimPrefix(baseURL, ":")
		if strings.HasPrefix(*addr, ":") {
			baseURL = "http://127.0.0.1" + *addr
		}
	}
	baseURL = strings.TrimRight(baseURL, "/")

	client := &http.Client{Timeout: *timeout}

	// Warm-up: one uncounted request per class, serially. The first
	// request of a class may pay artifact builds; folding that into the
	// measured distribution would make the report depend on whether the
	// target had served the mix before.
	warmRng := mathrand.New(mathrand.NewPCG(uint64(*seed), 0x9e3779b97f4a7c15))
	for _, c := range classes {
		method, path, body := c.build(warmRng, *dataset)
		if err := fire(client, baseURL, method, path, body); err != nil {
			fmt.Fprintf(os.Stderr, "psn-load: warm-up %s: %v\n", c.name, err)
			os.Exit(1)
		}
	}

	report := run(client, baseURL, classes, *duration, *rate, *seed, *dataset, *retry)
	report.Mix = *mix
	report.Addr = baseURL

	printSummary(os.Stdout, report)

	path := *out
	if path == "" {
		path = fmt.Sprintf("LOAD_%s.json", report.Date)
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "psn-load:", err)
		os.Exit(1)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "psn-load:", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", path)

	exit := 0
	if *baseline != "" {
		if !base.diff(os.Stdout, report, *regress) {
			exit = 1
		}
	}
	if *strict && (report.Errors > 0 || report.Shed > 0) {
		fmt.Fprintf(os.Stderr, "psn-load: -strict: %d errors, %d shed\n", report.Errors, report.Shed)
		exit = 1
	}
	os.Exit(exit)
}

// run fires the open-loop Poisson workload and collects the report.
// One dispatcher goroutine owns the arrival clock and the shared RNG;
// every arrival launches a goroutine regardless of how many are still
// outstanding. With maxRetry > 0 a shed (503) response is retried up
// to that many times after a backoff honoring the server's Retry-After
// hint; only the final shed counts against the class, and the latency
// recorded for a success covers the successful attempt alone (retries
// are reported separately, not folded into the distribution).
func run(client *http.Client, baseURL string, classes []*class, duration time.Duration, rate float64, seed int64, dataset string, maxRetry int) LoadReport {
	totalWeight := 0
	for _, c := range classes {
		totalWeight += c.weight
	}
	rng := mathrand.New(mathrand.NewPCG(uint64(seed), uint64(seed)*0x9e3779b97f4a7c15+1))

	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(duration)
	next := start
	for i := 0; ; i++ {
		next = next.Add(time.Duration(rng.ExpFloat64() / rate * float64(time.Second)))
		if next.After(deadline) {
			break
		}
		time.Sleep(time.Until(next))
		c := pickClass(classes, totalWeight, rng)
		reqSeed := engine.DeriveSeed(seed, i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			reqRng := mathrand.New(mathrand.NewPCG(uint64(reqSeed), uint64(reqSeed)>>1|1))
			method, path, body := c.build(reqRng, dataset)
			c.requests.Add(1)
			for attempt := 0; ; attempt++ {
				t0 := time.Now()
				err := fire(client, baseURL, method, path, body)
				var shed *shedError
				switch {
				case errors.As(err, &shed):
					if attempt < maxRetry {
						c.retries.Add(1)
						time.Sleep(retryDelay(reqRng, attempt, shed.retryAfter))
						continue
					}
					c.shed.Add(1)
				case err != nil:
					c.errors.Add(1)
				default:
					c.hist.Record(time.Since(t0))
				}
				return
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	report := LoadReport{
		Date:       time.Now().Format("2006-01-02"),
		DurationS:  elapsed.Seconds(),
		TargetRate: rate,
		Dataset:    dataset,
		Seed:       seed,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	for _, c := range classes {
		s := c.hist.Snapshot()
		lc := LoadClass{
			Name:         c.name,
			Requests:     c.requests.Load(),
			Errors:       c.errors.Load(),
			Shed:         c.shed.Load(),
			Retries:      c.retries.Load(),
			AchievedRate: float64(s.Count) / elapsed.Seconds(),
			P50Ms:        ms(s.Quantile(0.50)),
			P90Ms:        ms(s.Quantile(0.90)),
			P99Ms:        ms(s.Quantile(0.99)),
			MaxMs:        float64(s.MaxNs) / 1e6,
			MeanMs:       ms(s.Mean()),
		}
		report.Requests += lc.Requests
		report.Errors += lc.Errors
		report.Shed += lc.Shed
		report.Retries += lc.Retries
		report.Classes = append(report.Classes, lc)
	}
	report.AchievedRate = float64(report.Requests-report.Errors) / elapsed.Seconds()
	return report
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func pickClass(classes []*class, totalWeight int, rng *mathrand.Rand) *class {
	n := rng.IntN(totalWeight)
	for _, c := range classes {
		if n < c.weight {
			return c
		}
		n -= c.weight
	}
	return classes[len(classes)-1]
}

// shedError marks a 503 — the server's explicit backpressure signal,
// reported separately from errors — carrying the Retry-After hint the
// -retry backoff honors (0 when the header was absent or unparsable).
type shedError struct {
	retryAfter time.Duration
}

func (e *shedError) Error() string { return "shed (503)" }

// retryDelay is the pause before retry attempt+1: exponential from
// 100ms, capped at 2s, with the upper half jittered so retrying
// clients spread out — and never shorter than the server's Retry-After
// hint, which knows better (a degraded dataset reports its whole
// backoff window there).
func retryDelay(rng *mathrand.Rand, attempt int, retryAfter time.Duration) time.Duration {
	if attempt > 4 {
		attempt = 4
	}
	d := 100 * time.Millisecond << attempt
	if d > 2*time.Second {
		d = 2 * time.Second
	}
	d = d/2 + time.Duration(rng.Int64N(int64(d/2)+1))
	if retryAfter > d {
		d = retryAfter
	}
	return d
}

// fire sends one request and drains the response. Latency is recorded
// by the caller, so the clock covers exactly one attempt.
func fire(client *http.Client, baseURL, method, path string, body []byte) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, baseURL+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusServiceUnavailable:
		ra, _ := strconv.Atoi(resp.Header.Get("Retry-After"))
		return &shedError{retryAfter: time.Duration(ra) * time.Second}
	case resp.StatusCode != http.StatusOK:
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	return nil
}

func printSummary(w io.Writer, r LoadReport) {
	fmt.Fprintf(w, "psn-load: %s  %.1fs at target %.1f req/s (achieved %.1f), %d requests, %d errors, %d shed\n",
		r.Addr, r.DurationS, r.TargetRate, r.AchievedRate, r.Requests, r.Errors, r.Shed)
	fmt.Fprintf(w, "%-10s %9s %7s %6s %9s %9s %9s %9s %9s\n",
		"class", "requests", "errors", "shed", "p50(ms)", "p90(ms)", "p99(ms)", "max(ms)", "mean(ms)")
	for _, c := range r.Classes {
		fmt.Fprintf(w, "%-10s %9d %7d %6d %9.2f %9.2f %9.2f %9.2f %9.2f\n",
			c.Name, c.Requests, c.Errors, c.Shed, c.P50Ms, c.P90Ms, c.P99Ms, c.MaxMs, c.MeanMs)
	}
}
