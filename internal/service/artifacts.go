package service

import (
	"errors"
	"fmt"
	mathrand "math/rand/v2"
	"sort"
	"sync"
	"time"

	"repro/internal/dtnsim"
	"repro/internal/engine"
	"repro/internal/faultinject"
	"repro/internal/figures"
	"repro/internal/obs"
	"repro/internal/pathenum"
	"repro/internal/stgraph"
	"repro/internal/trace"
)

// artifacts caches the expensive immutable per-dataset structures
// every request path needs: the indexed space-time graph (per dataset
// and discretization step), enumerators over it (per enumeration
// budget), the simulator's sweep engine (per dataset — oracle tables
// plus pooled per-run state, so warm repeated /simulate requests pay
// only the replay), and figure harnesses (per parameter set). Each is
// built once behind singleflight and shared by all concurrent
// requests; all of them are documented safe for concurrent use by
// their packages. The caches are size-bounded LRUs because several
// key dimensions (delta, enumeration budgets, harness scale) are
// client-controlled: without a bound, a client sweeping distinct
// parameter values would pin one multi-megabyte graph or enumerator
// (whose pooled scratch retains arena chunks) per value until the
// server runs out of memory.
type artifacts struct {
	reg *Registry

	// faults arms the request path's injection points (nil in
	// production — every Fire is one pointer check).
	faults *faultinject.Injector

	// deg tracks per-dataset consecutive build failures and the backoff
	// windows they open (see degrader).
	deg degrader

	graphs    *memoMap[graphKey, *stgraph.Graph]
	enums     *memoMap[enumKey, *pathenum.Enumerator]
	sweeps    *memoMap[string, *dtnsim.Sweep]
	harnesses *memoMap[harnessKey, *figures.Harness]
}

type graphKey struct {
	dataset string
	delta   float64
}

type enumKey struct {
	dataset     string
	delta       float64
	k           int
	tableWidth  int
	maxArrivals int
	workers     int
}

// harnessKey is the figure-harness parameter tuple reachable over
// HTTP. Datasets stay at the harness default (all four); Workers is
// deliberately excluded — figures are byte-identical for every worker
// count, so requests differing only in workers share one harness.
type harnessKey struct {
	messages int
	k        int
	simRuns  int
	seed     int64
}

// Artifact cache bounds. Datasets are a fixed registry set, so the
// client-controlled dimensions are delta (graphs), the enumeration
// budget tuple (enumerators — the heaviest entries, each retaining
// pooled arena scratch), and the harness parameter set (each harness
// memoizes whole studies). Eviction only costs a rebuild on the next
// request for that key.
const (
	maxCachedGraphs    = 16
	maxCachedEnums     = 32
	maxCachedSweeps    = 32
	maxCachedHarnesses = 8
)

func newArtifacts(reg *Registry, faults *faultinject.Injector) *artifacts {
	return &artifacts{
		reg:       reg,
		faults:    faults,
		graphs:    newMemoMap[graphKey, *stgraph.Graph](maxCachedGraphs),
		enums:     newMemoMap[enumKey, *pathenum.Enumerator](maxCachedEnums),
		sweeps:    newMemoMap[string, *dtnsim.Sweep](maxCachedSweeps),
		harnesses: newMemoMap[harnessKey, *figures.Harness](maxCachedHarnesses),
	}
}

// noteBuild feeds the degrader with a build outcome. Canceled builds
// (the requester gave up, the dataset is fine), unknown datasets, and
// DegradedError itself say nothing about the dataset's health and are
// excluded from failure counting.
func (a *artifacts) noteBuild(dataset string, err error) {
	if err == nil {
		a.deg.ok(dataset)
		return
	}
	var unknown *UnknownDatasetError
	var deg *DegradedError
	if engine.IsCanceled(err) || errors.As(err, &unknown) || errors.As(err, &deg) {
		return
	}
	a.deg.fail(dataset)
}

// graph returns the indexed space-time graph of a dataset at step
// delta, building it once. Stage spans land on ot — only for the
// request that actually triggers the singleflight build; later
// requests get the cached graph and record nothing, which is the
// truthful attribution. The leader threads its cc into the build, so a
// canceled leader abandons the build for everyone — the errored slot
// is unpinned and the next request relaunches it.
func (a *artifacts) graph(dataset string, delta float64, ot *obs.Trace, cc *engine.Cancel) (*stgraph.Graph, error) {
	if delta == 0 {
		delta = stgraph.DefaultDelta
	}
	return a.graphs.get(cc, graphKey{dataset, delta}, func() (*stgraph.Graph, error) {
		if err := a.deg.check(dataset); err != nil {
			return nil, err
		}
		g, err := a.buildGraph(dataset, delta, ot, cc)
		a.noteBuild(dataset, err)
		return g, err
	})
}

func (a *artifacts) buildGraph(dataset string, delta float64, ot *obs.Trace, cc *engine.Cancel) (*stgraph.Graph, error) {
	tr, err := a.reg.traceCancel(dataset, cc)
	if err != nil {
		return nil, err
	}
	if err := a.faults.FireCancel(faultinject.PointGraphBuild, cc); err != nil {
		return nil, err
	}
	return stgraph.NewWorkersCancel(tr, delta, 0, ot, cc)
}

// enumerator returns an enumerator for the dataset under the given
// options. Enumerators with different budgets share the per-(dataset,
// delta) graph index — the expensive part — and each is itself safe
// for concurrent Enumerate calls.
func (a *artifacts) enumerator(dataset string, opt pathenum.Options, ot *obs.Trace, cc *engine.Cancel) (*pathenum.Enumerator, error) {
	key := enumKey{dataset, opt.Delta, opt.K, opt.TableWidth, opt.MaxArrivals, opt.Workers}
	return a.enums.get(cc, key, func() (*pathenum.Enumerator, error) {
		tr, err := a.reg.traceCancel(dataset, cc)
		if err != nil {
			return nil, err
		}
		g, err := a.graph(dataset, opt.Delta, ot, cc)
		if err != nil {
			return nil, err
		}
		return pathenum.NewEnumeratorWithGraph(tr, g, opt)
	})
}

// sweep returns the dataset's simulation sweep engine: precomputed
// oracle tables plus pooled per-run simulation state, shared by every
// /simulate request for the dataset.
func (a *artifacts) sweep(dataset string, ot *obs.Trace, cc *engine.Cancel) (*dtnsim.Sweep, *trace.Trace, error) {
	tr, err := a.reg.traceCancel(dataset, cc)
	if err != nil {
		return nil, nil, err
	}
	sw, err := a.sweeps.get(cc, dataset, func() (*dtnsim.Sweep, error) {
		if err := a.deg.check(dataset); err != nil {
			return nil, err
		}
		sw, err := a.buildSweep(tr, ot, cc)
		a.noteBuild(dataset, err)
		return sw, err
	})
	return sw, tr, err
}

func (a *artifacts) buildSweep(tr *trace.Trace, ot *obs.Trace, cc *engine.Cancel) (*dtnsim.Sweep, error) {
	if err := a.faults.FireCancel(faultinject.PointOracleBuild, cc); err != nil {
		return nil, err
	}
	sp := ot.Start(obs.StageOracleBuild)
	sw, err := dtnsim.NewSweep(tr)
	sp.End()
	return sw, err
}

// harness returns the figure harness for a parameter set. The harness
// memoizes its own studies and simulation sweeps, so figures sharing
// parameters also share the underlying experiments.
func (a *artifacts) harness(p figures.Params, cc *engine.Cancel) *figures.Harness {
	key := harnessKey{messages: p.Messages, k: p.K, simRuns: p.SimRuns, seed: p.Seed}
	h, _ := a.harnesses.get(cc, key, func() (*figures.Harness, error) {
		return figures.NewHarness(p), nil
	})
	return h
}

// DegradedError reports a dataset whose artifact pipeline is sitting
// out a backoff window after repeated consecutive build failures.
// Requests needing a fresh build for it are answered 503 with
// RetryAfter as the Retry-After hint instead of hammering a rebuild
// that keeps failing; artifacts already cached keep serving.
type DegradedError struct {
	Dataset    string
	RetryAfter time.Duration
}

func (e *DegradedError) Error() string {
	return fmt.Sprintf("dataset %q degraded after repeated build failures (retry in %v)",
		e.Dataset, e.RetryAfter.Round(time.Millisecond))
}

// Degrader tuning: after degradeThreshold consecutive build failures a
// dataset enters a backoff window starting at degradeBase and doubling
// per further failure up to degradeMax, with jitter (the window's
// upper half is randomized) so shedded clients retrying on the hint
// don't re-synchronize.
const (
	degradeThreshold = 3
	degradeBase      = time.Second
	degradeMax       = time.Minute
)

// degrader tracks consecutive artifact-build failures per dataset and
// the backoff windows they open. A window expiring lets exactly the
// builds that arrive after it through as probes: a success resets the
// dataset, another failure opens a longer window.
type degrader struct {
	mu    sync.Mutex
	state map[string]*degradeState
}

type degradeState struct {
	fails int
	until time.Time // backoff window end; zero = not degraded
}

// check returns a *DegradedError while dataset is inside a backoff
// window, nil otherwise.
func (d *degrader) check(dataset string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	st := d.state[dataset]
	if st == nil || st.until.IsZero() {
		return nil
	}
	if rem := time.Until(st.until); rem > 0 {
		return &DegradedError{Dataset: dataset, RetryAfter: rem}
	}
	st.until = time.Time{} // window over: let a probe build through
	return nil
}

// fail records one consecutive build failure, opening (or widening)
// the dataset's backoff window once the threshold is crossed.
func (d *degrader) fail(dataset string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.state == nil {
		d.state = make(map[string]*degradeState)
	}
	st := d.state[dataset]
	if st == nil {
		st = &degradeState{}
		d.state[dataset] = st
	}
	st.fails++
	if st.fails < degradeThreshold {
		return
	}
	shift := st.fails - degradeThreshold
	if shift > 10 {
		shift = 10
	}
	w := degradeBase << shift
	if w > degradeMax {
		w = degradeMax
	}
	w = w/2 + time.Duration(mathrand.Int64N(int64(w/2)+1))
	st.until = time.Now().Add(w)
}

// ok resets a dataset after a successful build.
func (d *degrader) ok(dataset string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if st := d.state[dataset]; st != nil {
		st.fails = 0
		st.until = time.Time{}
	}
}

// degraded lists the datasets currently inside a backoff window,
// sorted (for /healthz and the degraded-datasets gauge).
func (d *degrader) degraded() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	var out []string
	now := time.Now()
	for name, st := range d.state {
		if !st.until.IsZero() && st.until.After(now) {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}
