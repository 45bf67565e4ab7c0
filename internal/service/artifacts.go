package service

import (
	"repro/internal/dtnsim"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/pathenum"
	"repro/internal/stgraph"
	"repro/internal/trace"
)

// artifacts caches the expensive immutable per-dataset structures
// every request path needs: the indexed space-time graph (per dataset
// and discretization step), enumerators over it (per enumeration
// budget), and the simulator's sweep engine (per dataset — oracle
// tables plus pooled per-run state, so warm repeated /simulate
// requests pay only the replay). Each is built once behind singleflight
// and shared by all concurrent requests; all of them are documented
// safe for concurrent use by their packages. Every enumerator runs on
// the server's Workers, so the worker count is no key dimension. The
// caches are size-bounded LRUs because several key dimensions (delta,
// enumeration budgets) are client-controlled: without a bound, a
// client sweeping distinct parameter values would pin one
// multi-megabyte graph or enumerator (whose pooled scratch retains
// arena chunks) per value until the server runs out of memory.
type artifacts struct {
	reg *Registry

	graphs *memoMap[graphKey, *stgraph.Graph]
	enums  *memoMap[enumKey, *pathenum.Enumerator]
	sweeps *memoMap[string, *dtnsim.Sweep]
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
}

// Artifact cache bounds. Datasets are a fixed registry set, so the
// client-controlled dimensions are delta (graphs) and the enumeration
// budget tuple (enumerators — the heaviest entries, each retaining
// pooled arena scratch). Eviction only costs a rebuild on the next
// request for that key.
const (
	maxCachedGraphs = 16
	maxCachedEnums  = 32
	maxCachedSweeps = 32
)

func newArtifacts(reg *Registry) *artifacts {
	return &artifacts{
		reg:    reg,
		graphs: newMemoMap[graphKey, *stgraph.Graph](maxCachedGraphs),
		enums:  newMemoMap[enumKey, *pathenum.Enumerator](maxCachedEnums),
		sweeps: newMemoMap[string, *dtnsim.Sweep](maxCachedSweeps),
	}
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
		tr, err := a.reg.traceCancel(dataset, cc)
		if err != nil {
			return nil, err
		}
		return stgraph.NewWorkersCancel(tr, delta, 0, ot, cc)
	})
}

// enumerator returns an enumerator for the dataset under the given
// options. Enumerators with different budgets share the per-(dataset,
// delta) graph index — the expensive part — and each is itself safe
// for concurrent Enumerate calls.
func (a *artifacts) enumerator(dataset string, opt pathenum.Options, ot *obs.Trace, cc *engine.Cancel) (*pathenum.Enumerator, error) {
	key := enumKey{dataset, opt.Delta, opt.K, opt.TableWidth, opt.MaxArrivals}
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
		sp := ot.Start(obs.StageOracleBuild)
		sw, err := dtnsim.NewSweep(tr)
		sp.End()
		return sw, err
	})
	return sw, tr, err
}
