package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	mathrand "math/rand/v2"
	"net/http"
	"net/http/pprof"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
)

// Config parametrizes a Server.
type Config struct {
	// Registry supplies the served datasets. Nil means NewRegistry()
	// (the built-in synthetic datasets).
	Registry *Registry

	// Workers is the engine worker count every experiment runs on,
	// served or called directly (Enumerate, Simulate); results are
	// byte-identical for every value. Zero means runtime.GOMAXPROCS(0).
	Workers int

	// MaxInflight bounds the experiment requests executing
	// concurrently; excess requests are shed with 503 Service
	// Unavailable and a Retry-After hint, so load beyond the machine's
	// capacity degrades by fast rejection instead of queue collapse.
	// The bound feeds the internal/engine pool: at most MaxInflight
	// requests compete for its goroutines. Zero means
	// 4×GOMAXPROCS; negative means unlimited.
	MaxInflight int

	// CacheSize bounds the memoized-result LRU (marshaled response
	// bytes keyed by canonical request). Zero means 256 entries;
	// negative disables response caching (every request computes).
	// Whatever the entry bound, the kept bodies total at most 64 MiB:
	// least recently used ones are evicted beyond it, and a body larger
	// than that is answered but not kept.
	CacheSize int

	// EnablePprof mounts net/http/pprof under GET /debug/pprof/. The
	// profiling endpoints bypass the in-flight limit — like the other
	// probe endpoints they must answer while the server is saturated,
	// which is exactly when a profile is wanted.
	EnablePprof bool

	// TraceSlow, when positive, emits one structured log line (request
	// ID, endpoint, dataset, status, total latency, per-stage breakdown)
	// for every request at least this slow. Zero disables slow-request
	// tracing.
	TraceSlow time.Duration

	// RequestTimeout bounds one experiment request's compute: the
	// request's cancellation token (also fed by the client connection)
	// fires at the deadline, the engine layers abandon at their next
	// checkpoint, and the client gets 503 with a Retry-After hint.
	// Probe endpoints are exempt. Zero means 30 s; negative disables
	// the deadline (client disconnects still cancel).
	RequestTimeout time.Duration

	// AccessLog emits one structured log line per request (method, path,
	// dataset, status, latency, request ID). Default off: the experiment
	// endpoints are hot enough that per-request logging is opt-in.
	AccessLog bool

	// Logger receives access-log and slow-trace lines. Nil means
	// slog.Default().
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.Registry == nil {
		c.Registry = NewRegistry()
	}
	if c.MaxInflight == 0 {
		c.MaxInflight = 4 * runtime.GOMAXPROCS(0)
	}
	if c.CacheSize == 0 {
		c.CacheSize = 256
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 30 * time.Second
	}
	return c
}

// Server serves the repository's experiments over HTTP. Create one
// with New, mount it via Handler, and run it under any http.Server
// (cmd/psn-serve adds flags and graceful shutdown).
type Server struct {
	cfg     Config
	art     *artifacts
	results *memoMap[string, []byte]
	metrics *metrics
	sem     chan struct{} // in-flight experiment semaphore; nil = unlimited
	mux     *http.ServeMux

	// draining flips /healthz to 503 while the process shuts down, so
	// load balancers stop routing new traffic ahead of the listener
	// actually closing (see SetDraining and cmd/psn-serve).
	draining atomic.Bool

	// Request-ID scheme: a random per-instance tag in the high 32 bits,
	// a monotone counter in the low 32. IDs are unique per instance,
	// cheap (one atomic add), and the tag distinguishes server
	// instances in merged logs. reqPool recycles the per-request trace
	// carrier so the observability layer adds no steady-state
	// allocation.
	idTag   uint64
	idSeq   atomic.Uint64
	reqPool sync.Pool
}

// reqInfo carries one request's observability and cancellation state:
// the stage-span trace (embedded by value so pooling recycles it
// wholesale), the cancellation token experiment handlers thread into
// the compute layers (also by value — no watcher goroutine, no timer,
// no allocation), the formatted request ID echoed in X-Psn-Request,
// and the dataset the handler resolved (for log lines; empty for
// non-dataset endpoints).
type reqInfo struct {
	obs     obs.Trace
	cancel  engine.Cancel
	idStr   string
	dataset string
}

// maxCachedResultBytes bounds the bodies the result cache keeps. One
// admitted /enumerate answer can reach tens of megabytes, so an entry
// bound alone would let 256 of them pin gigabytes. psn-load's mix on
// dev answers at most ~16 KB per message and ~124 KB per 8-message
// batch, so 256 of its largest bodies stay under 32 MB, inside it.
const maxCachedResultBytes = 64 << 20

// New builds a Server from cfg.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		art:     newArtifacts(cfg.Registry),
		results: newSizedMemoMap[string](cfg.CacheSize, maxCachedResultBytes, func(b []byte) int { return len(b) }),
		metrics: newMetrics(),
		idTag:   mathrand.Uint64() << 32,
	}
	if cfg.MaxInflight > 0 {
		s.sem = make(chan struct{}, cfg.MaxInflight)
	}
	s.mux = http.NewServeMux()
	// Probe endpoints bypass the experiment semaphore: they must stay
	// responsive when the server is saturated.
	s.mux.HandleFunc("GET /healthz", s.count("healthz", s.handleHealthz))
	s.mux.HandleFunc("GET /metrics", s.count("metrics", s.handleMetrics))
	s.mux.HandleFunc("GET /datasets", s.count("datasets", s.handleDatasets))
	s.mux.HandleFunc("GET /figures", s.count("figures", s.handleFigures))
	// Experiment endpoints run under the in-flight limit.
	s.mux.HandleFunc("POST /enumerate", s.limited("enumerate", s.handleEnumerate))
	s.mux.HandleFunc("POST /simulate", s.limited("simulate", s.handleSimulate))
	if cfg.EnablePprof {
		// pprof rides outside count()/limited(): no accounting, no
		// shedding — a profile request must not perturb the metrics it
		// is there to explain.
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return s
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Registry returns the server's dataset registry.
func (s *Server) Registry() *Registry { return s.cfg.Registry }

// count wraps a handler with panic isolation, request/response
// accounting and the observability envelope: a pooled reqInfo (stage
// trace + request ID, the ID echoed in X-Psn-Request before the
// handler runs), the endpoint's latency histogram (resolved once, at
// wiring time), stage folding into the global stage histograms, and
// the optional access-log and slow-trace log lines. A panicking
// handler is contained to its request: the panic is logged with the
// request ID and stack, counted in psn_panics_total, and answered 500
// (when nothing was written yet); accounting runs in the same deferred
// path, so panicked requests still land in every metric. The
// non-panicking envelope costs two small allocations per request (the
// ID string and the header value slice).
func (s *Server) count(endpoint string, h func(http.ResponseWriter, *http.Request, *reqInfo)) http.HandlerFunc {
	hist := s.metrics.histFor(endpoint)
	return func(w http.ResponseWriter, r *http.Request) {
		s.metrics.countRequest(endpoint)
		ri := s.getReqInfo()
		w.Header().Set("X-Psn-Request", ri.idStr)
		cw := &countingWriter{ResponseWriter: w}
		t0 := time.Now()
		defer func() {
			if rec := recover(); rec != nil {
				s.metrics.panics.Add(1)
				s.cfg.Logger.LogAttrs(context.Background(), slog.LevelError, "panic in handler",
					slog.String("id", ri.idStr),
					slog.String("endpoint", endpoint),
					slog.String("dataset", ri.dataset),
					slog.Any("panic", rec),
					slog.String("stack", string(debug.Stack())),
				)
				if cw.code == 0 {
					writeError(cw, http.StatusInternalServerError,
						fmt.Errorf("internal error (request %s)", ri.idStr))
				}
			}
			d := time.Since(t0)
			status := cw.status()
			s.metrics.countStatus(status)
			hist.Record(d)
			s.metrics.recordStages(&ri.obs)
			s.logRequest(endpoint, r, ri, status, d)
			s.reqPool.Put(ri)
		}()
		h(cw, r, ri)
	}
}

// limited wraps an experiment handler with accounting and the bounded
// in-flight semaphore. When the semaphore is full the request is shed
// immediately with 503 — callers retry against a server that is
// already making progress on earlier requests. Admitted requests get
// their cancellation token armed (client connection + RequestTimeout).
func (s *Server) limited(endpoint string, h func(http.ResponseWriter, *http.Request, *reqInfo)) http.HandlerFunc {
	return s.count(endpoint, func(w http.ResponseWriter, r *http.Request, ri *reqInfo) {
		if s.sem != nil {
			select {
			case s.sem <- struct{}{}:
				defer func() { <-s.sem }()
			default:
				s.metrics.rejected.Add(1)
				w.Header().Set("Retry-After", "1")
				writeError(w, http.StatusServiceUnavailable, fmt.Errorf("server at capacity (%d requests in flight)", cap(s.sem)))
				return
			}
		}
		s.metrics.inflight.Add(1)
		defer s.metrics.inflight.Add(-1)
		ri.cancel = engine.NewCancel(r.Context(), s.cfg.RequestTimeout)
		h(w, r, ri)
	})
}

// SetDraining flips the server into (or out of) drain mode: /healthz
// answers 503 so load balancers and probes stop routing new traffic
// while in-flight requests finish under http.Server.Shutdown. All
// other endpoints keep serving — requests already admitted, and any
// stragglers racing the listener close, complete normally.
func (s *Server) SetDraining(v bool) { s.draining.Store(v) }

// getReqInfo takes a recycled reqInfo from the pool, resets its trace,
// and stamps a freshly minted request ID. An inbound X-Psn-Request
// header is ignored: IDs are unique per instance only because the
// server mints every one itself.
func (s *Server) getReqInfo() *reqInfo {
	ri, _ := s.reqPool.Get().(*reqInfo)
	if ri == nil {
		ri = new(reqInfo)
	}
	ri.obs.Reset()
	id := s.idTag | s.idSeq.Add(1)&0xffffffff
	ri.obs.ID = id
	ri.idStr = formatRequestID(id)
	ri.dataset = ""
	ri.cancel = engine.Cancel{}
	return ri
}

// formatRequestID renders an ID as fixed-width lowercase hex — the
// X-Psn-Request header value and the "id" field of log lines.
func formatRequestID(id uint64) string {
	const digits = "0123456789abcdef"
	var b [16]byte
	for i := len(b) - 1; i >= 0; i-- {
		b[i] = digits[id&0xf]
		id >>= 4
	}
	return string(b[:])
}

// logRequest emits the access-log line (when enabled) and, for requests
// at or past the TraceSlow threshold, one structured line with the
// request's per-stage time breakdown. Both carry the request ID, so a
// client holding an X-Psn-Request header can be matched to its server-
// side trace.
func (s *Server) logRequest(endpoint string, r *http.Request, ri *reqInfo, status int, d time.Duration) {
	slow := s.cfg.TraceSlow > 0 && d >= s.cfg.TraceSlow
	if !slow && !s.cfg.AccessLog {
		return
	}
	ctx := r.Context()
	if s.cfg.AccessLog {
		s.cfg.Logger.LogAttrs(ctx, slog.LevelInfo, "request",
			slog.String("id", ri.idStr),
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.String("dataset", ri.dataset),
			slog.Int("status", status),
			slog.Duration("latency", d),
		)
	}
	if slow {
		attrs := make([]slog.Attr, 0, 7+obs.NumStages)
		attrs = append(attrs,
			slog.String("id", ri.idStr),
			slog.String("endpoint", endpoint),
			slog.String("dataset", ri.dataset),
			slog.Int("status", status),
			slog.Duration("latency", d),
		)
		if ri.obs.Truncated() {
			// A canceled request's stage times cover only the work done
			// before the abandon checkpoint.
			attrs = append(attrs, slog.Bool("truncated", true))
		}
		names := obs.StageNames()
		for i := 0; i < obs.NumStages; i++ {
			if ns := ri.obs.StageNs(obs.Stage(i)); ns > 0 {
				attrs = append(attrs, slog.Duration("stage."+names[i], time.Duration(ns)))
			}
		}
		s.cfg.Logger.LogAttrs(ctx, slog.LevelWarn, "slow request", attrs...)
	}
}

// countingWriter records the status code written to a ResponseWriter.
type countingWriter struct {
	http.ResponseWriter
	code int
}

func (cw *countingWriter) WriteHeader(code int) {
	if cw.code == 0 {
		cw.code = code
	}
	cw.ResponseWriter.WriteHeader(code)
}

// Unwrap exposes the underlying writer so http.ResponseController can
// reach its optional interfaces (http.Flusher, io.ReaderFrom, …) —
// embedding alone hides them behind the wrapper's static type.
func (cw *countingWriter) Unwrap() http.ResponseWriter { return cw.ResponseWriter }

func (cw *countingWriter) status() int {
	if cw.code == 0 {
		return http.StatusOK
	}
	return cw.code
}

// statusClientClosedRequest is the nginx-convention 499 recorded when
// the client went away before the response: nothing useful can be
// written to it, but the status still lands in the metrics and logs.
const statusClientClosedRequest = 499

// writeHandlerError maps an experiment-handler failure onto the wire.
// Cancellation is decided by the request's OWN token, not by the error
// alone: a *engine.CanceledError whose own token fired is this request
// hitting its deadline (503 + Retry-After, psn_cancelled_total
// reason="deadline") or its client disconnecting (499,
// reason="client"); one inherited from a singleflight leader while the
// request's own token is still live means the shared computation this
// request was waiting on got abandoned — answered 503 + Retry-After as
// a shed (a retry relaunches the build) without touching the
// cancellation counters. Either way the request's stage trace is
// marked truncated. *DegradedError carries its own backoff window as
// the Retry-After hint. Everything else falls through to statusOf.
func (s *Server) writeHandlerError(w http.ResponseWriter, ri *reqInfo, err error) {
	if engine.IsCanceled(err) {
		ri.obs.MarkTruncated()
		switch own := ri.cancel.Err(); {
		case own == nil:
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusServiceUnavailable, fmt.Errorf("shared computation canceled, retry: %v", err))
		case errors.Is(own, context.Canceled):
			s.metrics.cancelled(reasonClient)
			writeError(w, statusClientClosedRequest, fmt.Errorf("client closed request: %v", err))
		default:
			s.metrics.cancelled(reasonDeadline)
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusServiceUnavailable, fmt.Errorf("request deadline exceeded: %v", err))
		}
		return
	}
	var deg *DegradedError
	if errors.As(err, &deg) {
		w.Header().Set("Retry-After", retryAfterSeconds(deg.RetryAfter))
		writeError(w, http.StatusServiceUnavailable, err)
		return
	}
	writeError(w, statusOf(err), err)
}

// retryAfterSeconds renders a backoff window as a Retry-After header
// value: whole seconds, rounded up, at least 1.
func retryAfterSeconds(d time.Duration) string {
	secs := int64((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.FormatInt(secs, 10)
}

// errorBody is the JSON shape of every error response.
type errorBody struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(errorBody{Error: err.Error()})
}

// writeJSON marshals v exactly as the cached path does (json.Marshal
// plus a trailing newline), so cached and freshly computed responses
// are byte-identical.
func writeJSON(w http.ResponseWriter, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeRaw(w, data)
}

func writeRaw(w http.ResponseWriter, data []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Write(data)
	w.Write([]byte{'\n'})
}

// marshalResponse is the single encoding used for cacheable responses.
func marshalResponse(v any) ([]byte, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("encode response: %w", err)
	}
	return data, nil
}

// maxBodyBytes caps experiment request bodies. Requests are small
// parameter tuples (the largest legitimate body is a message batch);
// without a cap a single oversized body would be decoded fully into
// memory while holding only one in-flight slot, bypassing the
// backpressure design.
const maxBodyBytes = 1 << 20

// decodeBody strictly decodes a size-limited JSON request body into v.
// The body must be exactly one JSON value: trailing data after it
// (`{"dataset":"dev"}{"junk":1}`) is a client error, not silently
// ignored — a cache key computed from v would otherwise not cover what
// the client actually sent.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return fmt.Errorf("request body exceeds %d bytes: %w", int64(maxBodyBytes), err)
		}
		return badRequest("bad request body: %v", err)
	}
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return badRequest("bad request body: unexpected data after JSON value")
	}
	return nil
}

// statusOf maps handler errors to HTTP status codes: unknown datasets
// and bad parameters are client errors, oversized bodies are 413,
// everything else is a 500.
func statusOf(err error) int {
	var unknown *UnknownDatasetError
	if errors.As(err, &unknown) {
		return http.StatusNotFound
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		return http.StatusRequestEntityTooLarge
	}
	var badReq *badRequestError
	if errors.As(err, &badReq) {
		return http.StatusBadRequest
	}
	return http.StatusInternalServerError
}

// badRequestError marks a client-side parameter problem.
type badRequestError struct{ err error }

func (e *badRequestError) Error() string { return e.err.Error() }
func (e *badRequestError) Unwrap() error { return e.err }

func badRequest(format string, args ...any) error {
	return &badRequestError{err: fmt.Errorf(format, args...)}
}
