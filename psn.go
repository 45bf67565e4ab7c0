// Package psn is the public API of this reproduction of "Diversity of
// Forwarding Paths in Pocket Switched Networks" (Erramilli,
// Chaintreau, Crovella, Diot — IMC 2007 / BUCS TR 2007-005).
//
// It re-exports the library's building blocks behind one import:
//
//   - contact traces and synthetic conference datasets
//     (Trace, Contact, GenerateDataset, DevTrace, …);
//   - valid-path enumeration on an indexed space-time graph and the
//     path-explosion metrics (Enumerator, Result, Explosion);
//   - the homogeneous analytic model of path explosion
//     (SolveODE, SimulateJump, MeanClosedForm, …);
//   - the trace-driven forwarding simulator, the six algorithms the
//     paper compares, and the batched multi-run sweep engine
//     (Simulate, PaperAlgorithms, NewSimSweep, …);
//   - the experiment harness that regenerates every figure of the
//     paper's evaluation (NewFigureHarness, Figures, …);
//   - the HTTP serving layer: a dataset registry plus a server that
//     exposes enumeration and simulation as JSON endpoints over cached
//     per-dataset artifacts (NewRegistry, NewServer; see
//     cmd/psn-serve), with latency histograms and stage spans on
//     /metrics (see the README's Observability section), request
//     deadlines, panic isolation, and degraded mode for file-backed
//     datasets whose file fails to load repeatedly (DegradedError; see
//     the README's Resilience section).
//
// # Concurrency and determinism
//
// The three hot paths — Simulate, Enumerator.EnumerateAll, and the
// figure harness — fan independent work items out across a worker
// pool (for EnumerateAll the items are (source, start step) message
// groups, each sharing one dynamic-program prefix across its
// destinations). Each carries a Workers knob (SimConfig.Workers,
// EnumOptions.Workers, FigureParams.Workers): zero means
// runtime.GOMAXPROCS(0), one forces a serial run, and any other value
// caps the goroutine count.
//
// The determinism contract: results are byte-identical for every
// worker count. Workers never share mutable state or a *rand.Rand —
// they share only immutable inputs (the trace, the space-time graph,
// the simulator's oracle tables), write results into per-message
// slots, and derive any per-item randomness from a per-index seed
// split (DeriveSeed). Forwarding algorithms with internal state
// implement forward.Stateful: every simulation shard replays its own
// clone through the full contact stream, whatever the worker count,
// so the caller's algorithm value is never mutated and may be shared
// by concurrent runs.
//
// # Batched sweeps
//
// The simulator's hot path is allocation-free in steady state. A
// SimSweep (NewSimSweep) builds the read-only oracle tables — contact
// totals, the O(n³) MEED metric, the time-sorted contact event
// stream — once per trace and pools the mutable per-worker state
// (contact views, holder bitsets, hop/copy slabs, spread queues),
// resetting it between runs instead of reallocating. Multi-run
// consumers — psn-sim's run loop, the figure harness's (algorithm ×
// seed) fan-out, the serving layer's /simulate — all route through a
// shared sweep, so each run after the first pays only the replay.
// Sweep results are byte-identical to plain Simulate calls (pinned,
// against a vendored pre-sweep reference simulator, by the golden
// suite in internal/dtnsim/golden_ref_test.go across all datasets,
// all nine algorithms, both copy modes and multiple worker counts).
//
// The serving layer extends the contract end-to-end: a served response
// is byte-identical to the equivalent direct library call, for any
// worker count and request concurrency. Handlers call exactly the
// library entry points, expensive artifacts (space-time graphs,
// enumerators, simulation sweeps) are built once behind singleflight
// and shared immutably, and memoized results are stored as the
// marshaled bytes of the first computation.
//
// See examples/quickstart for a five-minute tour.
package psn

import (
	"io"

	"repro/internal/analytic"
	"repro/internal/dtnsim"
	"repro/internal/engine"
	"repro/internal/figures"
	"repro/internal/forward"
	"repro/internal/pathenum"
	"repro/internal/service"
	"repro/internal/stgraph"
	"repro/internal/trace"
	"repro/internal/tracegen"
)

// Contact traces.
type (
	// Trace is an immutable contact trace (see internal/trace).
	Trace = trace.Trace
	// Contact is one contact record between two nodes.
	Contact = trace.Contact
	// NodeID identifies a device in a trace.
	NodeID = trace.NodeID
	// Classifier splits nodes into the paper's in/out rate classes.
	Classifier = trace.Classifier
	// PairType labels a source-destination pair (in-in … out-out).
	PairType = trace.PairType
)

// Pair types, re-exported in the paper's presentation order.
const (
	InIn   = trace.InIn
	InOut  = trace.InOut
	OutIn  = trace.OutIn
	OutOut = trace.OutOut
)

// NewTrace validates and builds a trace from contact records.
func NewTrace(name string, numNodes int, horizon float64, contacts []Contact) (*Trace, error) {
	return trace.New(name, numNodes, horizon, contacts)
}

// ReadTrace parses a trace in the text interchange format.
func ReadTrace(r io.Reader) (*Trace, error) { return trace.Read(r) }

// WriteTrace serializes a trace in the text interchange format.
func WriteTrace(w io.Writer, t *Trace) error { return trace.Write(w, t) }

// NewClassifier builds the median-rate in/out classifier of §5.2.
func NewClassifier(t *Trace) *Classifier { return trace.NewClassifier(t) }

// Synthetic datasets.
type (
	// Dataset names one of the four generated measurement windows.
	Dataset = tracegen.Dataset
	// GeneratorConfig parametrizes the heterogeneous conference
	// generator.
	GeneratorConfig = tracegen.Config
	// WaypointConfig parametrizes the random-waypoint baseline.
	WaypointConfig = tracegen.WaypointConfig
)

// The four datasets mirroring the paper's measurement windows.
const (
	Infocom0912 = tracegen.Infocom0912
	Infocom0336 = tracegen.Infocom0336
	Conext0912  = tracegen.Conext0912
	Conext0336  = tracegen.Conext0336
)

// GenerateDataset builds a named dataset deterministically.
func GenerateDataset(d Dataset) (*Trace, error) { return tracegen.Generate(d) }

// GenerateConference runs the heterogeneous-Poisson conference
// generator with a custom configuration.
func GenerateConference(cfg GeneratorConfig) (*Trace, error) { return tracegen.Heterogeneous(cfg) }

// GenerateHomogeneous builds a trace where every node has contact rate
// lambda — the analytic model's setting.
func GenerateHomogeneous(name string, numNodes int, horizon, lambda, meanDuration float64, seed int64) (*Trace, error) {
	return tracegen.Homogeneous(name, numNodes, horizon, lambda, meanDuration, seed)
}

// GenerateWaypoint builds a random-waypoint mobility trace.
func GenerateWaypoint(cfg WaypointConfig) (*Trace, error) { return tracegen.RandomWaypoint(cfg) }

// GenerateCity builds the named city-scale dataset: nodes devices
// over 12 hours in three rate classes, ≥1M contact records at 2,000
// nodes (the registry's city-2k / city-4k entries use seeds of 1).
func GenerateCity(nodes int, seed int64) (*Trace, error) { return tracegen.City(nodes, seed) }

// DevTrace is a small deterministic conference trace for examples and
// experimentation (24 nodes, 30 minutes).
func DevTrace(seed int64) *Trace { return tracegen.Dev(seed) }

// Path enumeration.
type (
	// Enumerator enumerates valid forwarding paths for messages. Path
	// membership is kept as bitset rows in a slab arena, one word per
	// 64 nodes, so every population runs the identical dynamic
	// program. EnumerateAll (library callers pass a nil call
	// context) groups a batch by (source, start step) and shares one
	// destination-free dynamic-program prefix per group, forking a
	// private continuation per destination at its first contact step;
	// results are byte-identical to independent Enumerate calls, in
	// message order, for every worker count.
	Enumerator = pathenum.Enumerator
	// EnumOptions tunes enumeration (Δ, K, workers).
	EnumOptions = pathenum.Options
	// PathMessage identifies one (src, dst, start) forwarding problem.
	PathMessage = pathenum.Message
	// EnumResult holds the delivered paths of one enumeration.
	EnumResult = pathenum.Result
	// Path is one valid space-time path.
	Path = pathenum.Path
	// Explosion is the T1/TE summary of one message.
	Explosion = pathenum.Explosion
	// SpaceTimeGraph is the discretized contact graph, stored as an
	// immutable index: per-step CSR adjacency where consecutive steps
	// with identical contact patterns share one frame carrying the
	// step's connected components and intra-component hop distances.
	// Built by an event sweep over the contact boundaries with
	// slab-backed, parallel per-frame construction (see stgraph.New);
	// results are byte-identical for every worker count.
	SpaceTimeGraph = stgraph.Graph
)

// DefaultDelta is the paper's 10-second discretization.
const DefaultDelta = stgraph.DefaultDelta

// NewEnumerator prepares path enumeration over a trace.
func NewEnumerator(t *Trace, opt EnumOptions) (*Enumerator, error) {
	return pathenum.NewEnumerator(t, opt)
}

// NewEnumeratorWithGraph prepares path enumeration reusing a space-time
// graph built earlier — the expensive part of enumerator construction —
// so callers varying only the enumeration budget K share one index.
func NewEnumeratorWithGraph(t *Trace, g *SpaceTimeGraph, opt EnumOptions) (*Enumerator, error) {
	return pathenum.NewEnumeratorWithGraph(t, g, opt)
}

// NewSpaceTimeGraph discretizes a trace with step delta and builds the
// per-step adjacency, component and hop-distance indexes. Enumerators
// build their own graph; call this only to inspect the structure
// directly (Neighbors, InContact, ActiveNodes, View, …).
func NewSpaceTimeGraph(t *Trace, delta float64) (*SpaceTimeGraph, error) {
	return stgraph.New(t, delta, nil)
}

// Forwarding.
type (
	// Algorithm is a forwarding decision rule.
	Algorithm = forward.Algorithm
	// SimConfig parametrizes one simulation run.
	SimConfig = dtnsim.Config
	// SimMessage is one unicast message for the simulator.
	SimMessage = dtnsim.Message
	// SimResult aggregates per-message outcomes.
	SimResult = dtnsim.Result
	// CopyMode selects replicate vs relay semantics.
	CopyMode = dtnsim.CopyMode
)

// Copy modes.
const (
	Replicate = dtnsim.Replicate
	Relay     = dtnsim.Relay
)

// Simulate runs a forwarding algorithm over a trace.
func Simulate(cfg SimConfig) (*SimResult, error) { return dtnsim.Run(cfg) }

// SimSweep is the batched multi-run simulation engine: it builds the
// oracle tables once per trace and pools the mutable per-worker
// simulation state (contact views, holder and hop slabs, live-message
// indexes, spread queues), resetting it between runs instead of
// reallocating. Use it for parameter sweeps — many (algorithm, seed,
// copy-mode) runs over one trace — where each run after the first
// pays only the replay itself. A SimSweep is safe for concurrent use,
// and its results are byte-identical to plain Simulate calls.
type SimSweep = dtnsim.Sweep

// NewSimSweep prepares a simulation sweep over a trace.
func NewSimSweep(t *Trace) (*SimSweep, error) { return dtnsim.NewSweep(t) }

// SimWorkload draws the paper's Poisson message workload.
func SimWorkload(t *Trace, rate, genHorizon float64, seed int64) []SimMessage {
	return dtnsim.Workload(t, rate, genHorizon, seed)
}

// DeriveSeed splits a base seed into an independent per-item seed
// (splitmix64 mixing). Parallel experiments use it to give every work
// item its own RNG stream instead of sharing one generator, keeping
// results identical for any worker count.
func DeriveSeed(base int64, index int) int64 { return engine.DeriveSeed(base, index) }

// PaperAlgorithms returns the six algorithms compared in §6.
func PaperAlgorithms() []Algorithm { return forward.PaperSet() }

// AllAlgorithms returns the paper set plus Direct Delivery, Spray and
// Wait, and PRoPHET.
func AllAlgorithms() []Algorithm { return forward.ExtendedSet() }

// Analytic model.
type (
	// ODEConfig parametrizes the truncated u_k integrator.
	ODEConfig = analytic.ODEConfig
	// JumpConfig parametrizes the Monte-Carlo jump process.
	JumpConfig = analytic.JumpConfig
	// ModelSolution holds state-density snapshots over time.
	ModelSolution = analytic.Solution
)

// SolveODE integrates the Proposition 3 density system.
func SolveODE(u0 []float64, cfg ODEConfig) (*ModelSolution, error) {
	return analytic.SolveODE(u0, cfg)
}

// SimulateJump runs the finite-N Markov jump process of §5.1.2.
func SimulateJump(cfg JumpConfig) (*ModelSolution, error) { return analytic.SimulateJump(cfg) }

// SourceInitial is the paper's initial condition: one source node
// holding a single path.
func SourceInitial(n, k int) []float64 { return analytic.SourceInitial(n, k) }

// MeanClosedForm evaluates Equation (4): E[S(t)] = E[S(0)]·e^{λt}.
func MeanClosedForm(mean0, lambda, t float64) float64 {
	return analytic.MeanClosedForm(mean0, lambda, t)
}

// Figures.
type (
	// FigureHarness caches datasets and studies across figures.
	FigureHarness = figures.Harness
	// FigureParams scales the experiment harness.
	FigureParams = figures.Params
	// FigureSpec is one renderable experiment.
	FigureSpec = figures.Figure
)

// NewFigureHarness prepares the experiment harness.
func NewFigureHarness(p FigureParams) *FigureHarness { return figures.NewHarness(p) }

// Figures lists every registered figure in id order.
func Figures() []FigureSpec { return figures.All() }

// LookupFigure finds a figure by id (e.g. "F04a").
func LookupFigure(id string) (FigureSpec, bool) { return figures.Lookup(id) }

// Serving.
type (
	// Registry maps dataset names to lazily-built immutable traces:
	// the built-in synthetic datasets plus traces registered from
	// files or custom generators. It backs both the CLIs' -dataset
	// flags and the HTTP server.
	Registry = service.Registry
	// ServeConfig parametrizes the HTTP server (registry, workers,
	// in-flight bound, result-cache size, request deadline, logging).
	ServeConfig = service.Config
	// Server serves the repository's experiments as JSON endpoints
	// over cached per-dataset artifacts. See cmd/psn-serve.
	Server = service.Server
)

// NewRegistry returns a registry pre-populated with the four paper
// datasets (infocom-9-12, infocom-3-6, conext-9-12, conext-3-6), the
// small deterministic "dev" trace, and the city-scale family
// (city-2k, city-4k). Every entry is generated lazily on first use.
func NewRegistry() *Registry { return service.NewRegistry() }

// NewServer builds the experiment-serving HTTP server; mount its
// Handler under any http.Server.
func NewServer(cfg ServeConfig) *Server { return service.New(cfg) }

// Resilience.

// DegradedError is the serving layer's answer while a file-backed
// dataset is in a load-failure backoff window: repeated failures to
// load the dataset's file trip it into degraded mode, requests naming
// it are refused with 503 + Retry-After for the (exponentially
// growing, jittered) window, and a probe load after each window
// restores service on success.
type DegradedError = service.DegradedError
