// Package service is the HTTP serving layer of the reproduction: it
// exposes the repository's experiments — path enumeration and
// forwarding simulation — as JSON endpoints over a dataset registry
// and a cache of per-dataset artifacts.
//
// The paper's experiments are pure queries over immutable per-dataset
// inputs (the contact trace, the indexed space-time graph, the
// simulator's oracle tables), which makes them ideal to serve rather
// than re-run per invocation: the expensive artifacts are built once
// behind singleflight and shared by every request, memoized results
// live behind a size-bounded LRU, and the worker-pool engine underneath
// multiplexes many small queries onto the machine.
//
// # Determinism contract, served
//
// A served response decodes to results byte-identical to the
// equivalent direct library call, for any worker count and request
// concurrency: handlers call exactly the library entry points a
// command-line run would, caches store either immutable artifacts or
// the marshaled response bytes of the first computation, and nothing
// about scheduling leaks into a response body.
package service

import (
	"fmt"
	mathrand "math/rand/v2"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/trace"
	"repro/internal/tracegen"
)

// Dataset kinds reported by Registry.List.
const (
	// KindSynthetic marks a generated dataset (deterministic seed).
	KindSynthetic = "synthetic"
	// KindFile marks a trace backed by a file: the path is checked at
	// registration, the file parsed lazily on first use.
	KindFile = "file"
)

// DatasetInfo describes one registry entry.
type DatasetInfo struct {
	Name string `json:"name"`
	Kind string `json:"kind"`
}

// Registry maps dataset names to immutable contact traces: the four
// named conference datasets, the city-scale family, the small "dev"
// trace, and any traces registered from files or custom generators.
// Every dataset — synthetic and file-backed alike — is built lazily
// on first use, exactly once, behind singleflight; every caller then
// shares the same *trace.Trace. Lazy file loading matters for server
// boot: a multi-gigabyte trace file registered with -trace must not
// stall startup, and is only parsed when a request first names it. A
// Registry is safe for concurrent use after registration is complete.
type Registry struct {
	mu      sync.Mutex
	entries map[string]*regEntry
}

type regEntry struct {
	kind  string
	build func() (*trace.Trace, error)

	mu     sync.Mutex
	tr     *trace.Trace // memoized successful build
	err    error        // memoized permanent failure (synthetic builders)
	flight *regFlight   // in-progress build, joined by concurrent callers
	fails  int          // consecutive failed file builds
	until  time.Time    // end of the backoff window they opened
}

// regFlight is one in-progress build: concurrent callers wait on done
// and share its result, so the build runs at most once at a time.
type regFlight struct {
	done chan struct{}
	tr   *trace.Trace
	err  error
}

// NewRegistry returns a registry pre-populated with the four paper
// datasets under their CLI names (infocom-9-12, infocom-3-6,
// conext-9-12, conext-3-6), the small deterministic "dev" trace, and
// the city-scale family (city-2k, city-4k — thousands of nodes,
// millions of contacts; generated on first use, which takes seconds
// and hundreds of megabytes, so merely listing them is free).
func NewRegistry() *Registry {
	r := &Registry{entries: make(map[string]*regEntry)}
	for _, d := range tracegen.Datasets {
		d := d
		r.mustRegister(builtinName(d), KindSynthetic, func() (*trace.Trace, error) {
			return tracegen.Generate(d)
		})
	}
	r.mustRegister("dev", KindSynthetic, func() (*trace.Trace, error) {
		return tracegen.Dev(1), nil
	})
	for _, nodes := range []int{2000, 4000} {
		nodes := nodes
		r.mustRegister(fmt.Sprintf("city-%dk", nodes/1000), KindSynthetic, func() (*trace.Trace, error) {
			return tracegen.City(nodes, 1)
		})
	}
	return r
}

// builtinName is the CLI/HTTP name of a named synthetic dataset
// ("Infocom06 9-12" → "infocom-9-12").
func builtinName(d tracegen.Dataset) string {
	s := strings.ToLower(d.String())
	s = strings.TrimPrefix(s, "infocom06 ")
	s = strings.TrimPrefix(s, "conext06 ")
	switch d {
	case tracegen.Infocom0912, tracegen.Infocom0336:
		return "infocom-" + s
	default:
		return "conext-" + s
	}
}

// Register adds a named dataset with a build function, called at most
// once on first use. The name must be unused.
func (r *Registry) Register(name, kind string, build func() (*trace.Trace, error)) error {
	if name == "" {
		return fmt.Errorf("service: empty dataset name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.entries[name]; ok {
		return fmt.Errorf("service: dataset %q already registered", name)
	}
	r.entries[name] = &regEntry{kind: kind, build: build}
	return nil
}

func (r *Registry) mustRegister(name, kind string, build func() (*trace.Trace, error)) {
	if err := r.Register(name, kind, build); err != nil {
		panic(err)
	}
}

// RegisterFile registers a trace file (trace.Read format) under name.
// The path is checked eagerly — a missing or unreadable file still
// fails at startup — but the file is parsed lazily behind the
// registry's singleflight on first use, so registering large traces
// does not stall server boot. A parse or read failure surfaces on the
// request naming the dataset and is retried on a later one (see
// Trace), so a transient file error never permanently poisons the
// dataset.
func (r *Registry) RegisterFile(name, path string) error {
	info, err := os.Stat(path)
	if err != nil {
		return fmt.Errorf("service: dataset %q: %w", name, err)
	}
	if !info.Mode().IsRegular() {
		return fmt.Errorf("service: dataset %q: %s is not a regular file", name, path)
	}
	return r.Register(name, KindFile, func() (*trace.Trace, error) {
		f, err := os.Open(path)
		if err != nil {
			return nil, fmt.Errorf("service: dataset %q: %w", name, err)
		}
		defer f.Close()
		tr, err := trace.Read(f)
		if err != nil {
			return nil, fmt.Errorf("service: dataset %q: %w", name, err)
		}
		return tr, nil
	})
}

// Names returns the registered dataset names, sorted.
func (r *Registry) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.entries))
	for name := range r.entries {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// List returns name and kind of every registered dataset, sorted by
// name.
func (r *Registry) List() []DatasetInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]DatasetInfo, 0, len(r.entries))
	for name, e := range r.entries {
		out = append(out, DatasetInfo{Name: name, Kind: e.kind})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// UnknownDatasetError is returned by Trace for names not in the
// registry; its message lists the available names.
type UnknownDatasetError struct {
	Name      string
	Available []string
}

func (e *UnknownDatasetError) Error() string {
	return fmt.Sprintf("unknown dataset %q (available: %s)", e.Name, strings.Join(e.Available, ", "))
}

// Trace returns the named dataset, building it on first use. Every
// call for the same name returns the same immutable trace; concurrent
// first calls block on a single build. Only successful builds are
// memoized forever — plus failures of synthetic builders, which are
// deterministic and cannot succeed on retry. A failed file-backed
// build (a transient open or read error on a KindFile dataset) is NOT
// memoized: a later request retries the file instead of the error
// permanently poisoning the dataset until restart. After
// degradeThreshold consecutive failures the dataset is degraded:
// calls return a *DegradedError without touching the file until the
// backoff window ends, and the first build after it is the probe.
func (r *Registry) Trace(name string) (*trace.Trace, error) {
	return r.trace(name, nil)
}

// trace is Trace with cx's cancellation token honored while waiting
// on another caller's in-progress build: a waiter whose token fires
// abandons the wait with a *engine.CanceledError while the build keeps
// running for everyone else. The builder itself runs to completion —
// dataset builds are shared state, and a half-built trace helps
// nobody — so a request that starts a build pays for it even if its
// own deadline passes meanwhile.
func (r *Registry) trace(name string, cx *engine.Ctx) (*trace.Trace, error) {
	r.mu.Lock()
	e, ok := r.entries[name]
	r.mu.Unlock()
	if !ok {
		return nil, &UnknownDatasetError{Name: name, Available: r.Names()}
	}
	return e.trace(name, cx)
}

func (e *regEntry) trace(name string, cx *engine.Ctx) (*trace.Trace, error) {
	e.mu.Lock()
	if e.tr != nil || e.err != nil {
		tr, err := e.tr, e.err
		e.mu.Unlock()
		return tr, err
	}
	if rem := time.Until(e.until); rem > 0 {
		e.mu.Unlock()
		return nil, &DegradedError{Dataset: name, RetryAfter: rem}
	}
	if f := e.flight; f != nil {
		e.mu.Unlock()
		if err := cx.Wait(f.done); err != nil {
			return nil, err
		}
		return f.tr, f.err
	}
	f := &regFlight{done: make(chan struct{})}
	e.flight = f
	e.mu.Unlock()

	// The flight must settle even if the builder panics (a hung done
	// channel would deadlock every future request for the dataset):
	// record the panic as the flight's error, publish, and re-raise.
	done := false
	defer func() {
		if !done {
			f.err = fmt.Errorf("service: dataset build panicked")
		}
		e.mu.Lock()
		e.flight = nil
		switch {
		case f.err == nil:
			e.tr = f.tr
			e.fails, e.until = 0, time.Time{}
		case !done:
			// Panics are neither memoized nor counted: a retry may
			// clear them.
		case e.kind == KindFile:
			e.fails++
			if e.fails >= degradeThreshold {
				w := min(degradeBase<<min(e.fails-degradeThreshold, 10), degradeMax)
				e.until = time.Now().Add(w/2 + time.Duration(mathrand.Int64N(int64(w/2)+1)))
			}
		default:
			e.err = f.err
		}
		e.mu.Unlock()
		close(f.done)
	}()
	f.tr, f.err = e.build()
	done = true
	return f.tr, f.err
}

// degraded lists the datasets currently inside a backoff window,
// sorted (for /healthz and the degraded-datasets gauge).
func (r *Registry) degraded() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []string
	now := time.Now()
	for name, e := range r.entries {
		e.mu.Lock()
		if e.until.After(now) {
			out = append(out, name)
		}
		e.mu.Unlock()
	}
	sort.Strings(out)
	return out
}

// DegradedError reports a file-backed dataset that is sitting out a
// backoff window after repeated consecutive load failures. Requests
// naming it are answered 503 with RetryAfter as the Retry-After hint
// instead of re-reading a file that keeps failing.
type DegradedError struct {
	Dataset    string
	RetryAfter time.Duration
}

func (e *DegradedError) Error() string {
	return fmt.Sprintf("dataset %q degraded after repeated build failures (retry in %v)",
		e.Dataset, e.RetryAfter.Round(time.Millisecond))
}

// Backoff tuning: after degradeThreshold consecutive load failures a
// dataset enters a backoff window starting at degradeBase and doubling
// per further failure up to degradeMax, with jitter (the window's
// upper half is randomized) so shedded clients retrying on the hint
// don't re-synchronize.
const (
	degradeThreshold = 3
	degradeBase      = time.Second
	degradeMax       = time.Minute
)
