// Package figures regenerates every figure of the paper's evaluation
// as printed tables and series: Fig 1 (contact time series), Figs 4-6
// and 8 (path explosion), Fig 7 (contact-count CDFs), Figs 9-13
// (forwarding-algorithm performance), Figs 14-15 (hop-rate structure),
// plus the analytic-model validation experiments (A1, A2) and four
// ablations of the method's choices: the step Δ, the arrival budget k,
// replicate vs relay copies, and a homogeneous trace (AB1-AB4).
//
// A Harness caches the generated datasets, the per-message enumeration
// results, and the simulation results, so regenerating all figures
// costs one enumeration study and one simulation sweep per dataset.
package figures

import (
	"fmt"
	"io"
	"math/rand"
	"sort"
	"sync"

	"repro/internal/dtnsim"
	"repro/internal/engine"
	"repro/internal/forward"
	"repro/internal/pathenum"
	"repro/internal/trace"
	"repro/internal/tracegen"
)

// Params scales the experiment harness. The zero value selects
// paper-scale defaults; tests and benchmarks use reduced values.
type Params struct {
	// Messages is the number of random messages enumerated per dataset
	// for the path-explosion figures (the paper does not state its
	// sample size). Default 40.
	Messages int
	// K is the explosion threshold (paper: 2000 paths).
	K int
	// SimRuns is the number of independent workload seeds averaged in
	// the forwarding figures (paper: 10).
	SimRuns int
	// Seed drives message sampling.
	Seed int64
	// Datasets lists the datasets to analyze; nil means all four.
	Datasets []tracegen.Dataset
	// Workers caps the goroutines used across the harness's parallel
	// stages: per-message enumeration within a study, per-(algorithm,
	// seed) simulation runs, and per-dataset precomputation. Zero
	// means runtime.GOMAXPROCS(0); 1 forces a fully serial harness.
	// Message sampling stays serial and seed-driven, so every figure
	// is byte-identical for every worker count.
	Workers int
}

func (p Params) withDefaults() Params {
	if p.Messages == 0 {
		p.Messages = 40
	}
	if p.K == 0 {
		p.K = 2000
	}
	if p.SimRuns == 0 {
		p.SimRuns = 10
	}
	if p.Datasets == nil {
		p.Datasets = tracegen.Datasets[:]
	}
	return p
}

// Harness caches datasets and computed studies across figures. A
// Harness is safe for concurrent use: each cache entry is computed
// exactly once (concurrent requests for the same key block on the
// first computation) and the computed values are immutable.
type Harness struct {
	P Params

	mu      sync.Mutex
	traces  map[tracegen.Dataset]*memo[*trace.Trace]
	studies map[tracegen.Dataset]*memo[*Study]
	sims    map[tracegen.Dataset]*memo[map[string]*dtnsim.Result]
	sweeps  map[tracegen.Dataset]*memo[*dtnsim.Sweep]
}

// memo is a single-flight cache slot: the first caller computes, every
// other caller for the same key waits and shares the result.
type memo[V any] struct {
	once sync.Once
	val  V
	err  error
}

// memoized returns m[k]'s value, computing it at most once under the
// harness lock discipline: the lock guards only the map lookup, the
// computation itself runs outside it so distinct keys compute in
// parallel.
func memoized[K comparable, V any](mu *sync.Mutex, m map[K]*memo[V], k K, f func() (V, error)) (V, error) {
	mu.Lock()
	e, ok := m[k]
	if !ok {
		e = &memo[V]{}
		m[k] = e
	}
	mu.Unlock()
	e.once.Do(func() { e.val, e.err = f() })
	return e.val, e.err
}

// NewHarness prepares a harness with the given parameters.
func NewHarness(p Params) *Harness {
	return &Harness{
		P:       p.withDefaults(),
		traces:  make(map[tracegen.Dataset]*memo[*trace.Trace]),
		studies: make(map[tracegen.Dataset]*memo[*Study]),
		sims:    make(map[tracegen.Dataset]*memo[map[string]*dtnsim.Result]),
		sweeps:  make(map[tracegen.Dataset]*memo[*dtnsim.Sweep]),
	}
}

// sweep returns (building on first use) the dataset's simulation sweep
// engine: the oracle tables are computed once and the per-run mutable
// state is pooled, so the per-(algorithm, seed) fan-out pays only the
// replay itself for every run after the first.
func (h *Harness) sweep(d tracegen.Dataset) (*dtnsim.Sweep, error) {
	return memoized(&h.mu, h.sweeps, d, func() (*dtnsim.Sweep, error) {
		return dtnsim.NewSweep(h.Trace(d))
	})
}

// Trace returns (generating on first use) a named dataset.
func (h *Harness) Trace(d tracegen.Dataset) *trace.Trace {
	t, _ := memoized(&h.mu, h.traces, d, func() (*trace.Trace, error) {
		return tracegen.MustGenerate(d), nil
	})
	return t
}

// Study holds the enumeration results of one dataset's message sample.
type Study struct {
	Dataset tracegen.Dataset
	Trace   *trace.Trace
	Cl      *trace.Classifier
	Results []*pathenum.Result

	pathsOnce sync.Once
	paths     []*pathenum.Path
}

// Paths returns every delivered path of the study, pooled across
// results in message order. The pool is built once and shared by the
// path-structure figures (14, 15); callers must not modify it.
func (s *Study) Paths() []*pathenum.Path {
	s.pathsOnce.Do(func() {
		total := 0
		for _, r := range s.Results {
			total += len(r.Arrivals)
		}
		s.paths = make([]*pathenum.Path, 0, total)
		for _, r := range s.Results {
			s.paths = append(s.paths, r.Arrivals...)
		}
	})
	return s.paths
}

// Summaries returns the per-message explosion summaries at threshold n.
func (s *Study) Summaries(n int) []pathenum.Explosion {
	out := make([]pathenum.Explosion, 0, len(s.Results))
	for _, r := range s.Results {
		out = append(out, r.ExplosionSummary(n))
	}
	return out
}

// Study returns (computing on first use) the enumeration study of a
// dataset: Params.Messages random messages with uniform endpoints and
// start times in the generation window. Sampling is serial and
// seed-driven; the enumeration itself fans out across Params.Workers
// goroutines.
func (h *Harness) Study(d tracegen.Dataset) (*Study, error) {
	return h.study(d, h.P.Workers)
}

func (h *Harness) study(d tracegen.Dataset, workers int) (*Study, error) {
	return memoized(&h.mu, h.studies, d, func() (*Study, error) {
		tr := h.Trace(d)
		enum, err := pathenum.NewEnumerator(tr, pathenum.Options{K: h.P.K, Workers: workers})
		if err != nil {
			return nil, fmt.Errorf("figures: %v: %w", d, err)
		}
		rng := rand.New(rand.NewSource(h.P.Seed + int64(d)*1000))
		genHorizon := tr.Horizon * genFraction
		msgs := make([]pathenum.Message, h.P.Messages)
		for i := range msgs {
			src := trace.NodeID(rng.Intn(tr.NumNodes))
			dst := trace.NodeID(rng.Intn(tr.NumNodes - 1))
			if dst >= src {
				dst++
			}
			msgs[i] = pathenum.Message{Src: src, Dst: dst, Start: rng.Float64() * genHorizon}
		}
		results, err := enum.EnumerateAll(msgs, nil)
		if err != nil {
			return nil, fmt.Errorf("figures: %v %w", d, err)
		}
		return &Study{Dataset: d, Trace: tr, Cl: trace.NewClassifier(tr), Results: results}, nil
	})
}

// Simulate returns (running on first use) the merged multi-seed
// simulation results of every paper algorithm on a dataset, keyed by
// algorithm name. The (algorithm, seed) runs are independent and fan
// out across Params.Workers goroutines; per-algorithm runs merge in
// seed order, so the result does not depend on the worker count.
func (h *Harness) Simulate(d tracegen.Dataset) (map[string]*dtnsim.Result, error) {
	return h.simulate(d, h.P.Workers)
}

func (h *Harness) simulate(d tracegen.Dataset, workers int) (map[string]*dtnsim.Result, error) {
	return memoized(&h.mu, h.sims, d, func() (map[string]*dtnsim.Result, error) {
		tr := h.Trace(d)
		sw, err := h.sweep(d)
		if err != nil {
			return nil, fmt.Errorf("figures: %v: %w", d, err)
		}
		algs := forward.PaperSet()
		runs := make([][]*dtnsim.Result, len(algs))
		for i := range runs {
			runs[i] = make([]*dtnsim.Result, h.P.SimRuns)
		}
		// One task per (algorithm, seed) pair, all sharing the sweep
		// engine: the oracle tables are computed once per dataset and
		// each task reuses pooled per-worker state. Tasks share the
		// algorithm values, which are stateless rules. Each run keeps
		// one shard (Workers: 1): the fan-out itself already exposes
		// more than enough parallelism, and nested fan-out would just
		// multiply the per-shard contact-replay overhead.
		err = engine.MapErr(workers, len(algs)*h.P.SimRuns, func(t int) error {
			a, run := t/h.P.SimRuns, t%h.P.SimRuns
			msgs := workload(tr, h.P, run)
			r, err := sw.Run(dtnsim.Config{Algorithm: algs[a], Messages: msgs, Workers: 1})
			if err != nil {
				return fmt.Errorf("figures: simulate %v/%s: %w", d, algs[a].Name(), err)
			}
			runs[a][run] = r
			return nil
		})
		if err != nil {
			return nil, err
		}
		out := make(map[string]*dtnsim.Result, len(algs))
		for a, alg := range algs {
			out[alg.Name()] = dtnsim.Merge(runs[a]...)
		}
		return out, nil
	})
}

// Precompute generates every dataset's trace, enumeration study and
// simulation sweep concurrently. RenderAll calls it first so figure
// rendering — which reads only these caches — stays strictly ordered
// while the heavy computation saturates the machine. The Workers
// budget is split between the per-dataset fan-out and each task's
// inner fan-out (per-message enumeration, per-(algorithm, seed)
// simulation), so the total goroutine count respects the knob instead
// of multiplying it.
func (h *Harness) Precompute() error {
	ds := h.P.Datasets
	n := 2 * len(ds)
	if n == 0 {
		return nil
	}
	outer := engine.Workers(h.P.Workers)
	if outer > n {
		outer = n
	}
	inner := engine.Workers(h.P.Workers) / outer
	if inner < 1 {
		inner = 1
	}
	return engine.MapErr(outer, n, func(i int) error {
		d := ds[i/2]
		if i%2 == 0 {
			_, err := h.study(d, inner)
			return err
		}
		_, err := h.simulate(d, inner)
		return err
	})
}

// The paper's §6 workload: one message every 4 s (msgRate, in
// messages/second), created during the first two of each window's
// three hours (genFraction of the horizon). Study messages start in
// the same window.
const (
	msgRate     = 0.25
	genFraction = 2.0 / 3.0
)

// workload draws one run's Poisson messages. Run seeds are split from
// the base seed per run index (not sequential base+run values), so
// every run gets a well-separated RNG stream no matter how runs are
// scheduled across workers.
func workload(tr *trace.Trace, p Params, run int) []dtnsim.Message {
	return dtnsim.Workload(tr, msgRate, tr.Horizon*genFraction, engine.DeriveSeed(p.Seed, run))
}

// AlgorithmOrder is the presentation order used across figures.
var AlgorithmOrder = []string{
	"Epidemic", "FRESH", "Greedy", "Greedy Total", "Greedy Online", "Dynamic Programming",
}

// Figure is one renderable experiment.
type Figure struct {
	ID    string
	Title string
	// Render writes the figure's rows/series to w.
	Render func(h *Harness, w io.Writer) error
}

var registry []Figure

func register(f Figure) { registry = append(registry, f) }

// All returns every registered figure in id order.
func All() []Figure {
	out := append([]Figure(nil), registry...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Lookup finds a figure by id.
func Lookup(id string) (Figure, bool) {
	for _, f := range registry {
		if f.ID == id {
			return f, true
		}
	}
	return Figure{}, false
}

// RenderAll renders every figure to w. The shared studies and
// simulation sweeps are precomputed concurrently first; rendering then
// proceeds figure by figure in id order, so the output is identical
// for every worker count.
func (h *Harness) RenderAll(w io.Writer) error {
	if err := h.Precompute(); err != nil {
		return err
	}
	for _, f := range All() {
		if err := h.RenderOne(f, w); err != nil {
			return err
		}
	}
	return nil
}

// RenderOne renders a single figure with its header.
func (h *Harness) RenderOne(f Figure, w io.Writer) error {
	fmt.Fprintf(w, "=== %s: %s ===\n", f.ID, f.Title)
	if err := f.Render(h, w); err != nil {
		return fmt.Errorf("figures: %s: %w", f.ID, err)
	}
	fmt.Fprintln(w)
	return nil
}
