package psn_test

// One benchmark per paper figure (F01-F15), per analytic experiment
// (A1, A2) and per ablation (AB1-AB4), each regenerating the figure's
// data end to end on reduced parameters, plus micro-benchmarks for the
// core substrates. The per-figure benchmarks exercise exactly the code
// the psn-figures binary runs at paper scale.
//
// The key hot-path benchmarks (graph index build, enumeration, the
// epidemic workload) are mirrored by cmd/psn-bench, which emits a
// machine-readable BENCH_<date>.json snapshot for the perf trajectory;
// CI additionally enforces an allocation budget on
// BenchmarkEnumerateDevTrace.

import (
	"io"
	"testing"

	psn "repro"
	"repro/internal/analytic"
	"repro/internal/benchsuite"
	"repro/internal/dtnsim"
	"repro/internal/figures"
	"repro/internal/forward"
	"repro/internal/tracegen"
)

// benchParams keeps per-figure benchmarks at tens-of-milliseconds to
// seconds each; psn-figures runs the same drivers at paper scale.
func benchParams() figures.Params {
	return figures.Params{
		Messages: 6,
		K:        100,
		SimRuns:  1,
		Seed:     1,
		Datasets: []tracegen.Dataset{tracegen.Infocom0912, tracegen.Conext0912},
	}
}

func benchFigure(b *testing.B, id string) {
	b.Helper()
	f, ok := figures.Lookup(id)
	if !ok {
		b.Fatalf("unknown figure %s", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h := figures.NewHarness(benchParams())
		if err := h.RenderOne(f, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure01ContactTimeSeries(b *testing.B)   { benchFigure(b, "F01") }
func BenchmarkFigure04aOptimalDurationCDF(b *testing.B) { benchFigure(b, "F04a") }
func BenchmarkFigure04bExplosionCDF(b *testing.B)       { benchFigure(b, "F04b") }
func BenchmarkFigure05ScatterT1TE(b *testing.B)         { benchFigure(b, "F05") }
func BenchmarkFigure06PathGrowth(b *testing.B)          { benchFigure(b, "F06") }
func BenchmarkFigure07ContactCountCDF(b *testing.B)     { benchFigure(b, "F07") }
func BenchmarkFigure08PairTypeScatter(b *testing.B)     { benchFigure(b, "F08") }
func BenchmarkFigure09DelayVsSuccess(b *testing.B)      { benchFigure(b, "F09") }
func BenchmarkFigure10DelayDistributions(b *testing.B)  { benchFigure(b, "F10") }
func BenchmarkFigure11ReceptionTimes(b *testing.B)      { benchFigure(b, "F11") }
func BenchmarkFigure12AlgorithmPaths(b *testing.B)      { benchFigure(b, "F12") }
func BenchmarkFigure13PairTypePerformance(b *testing.B) { benchFigure(b, "F13") }
func BenchmarkFigure14HopRates(b *testing.B)            { benchFigure(b, "F14") }
func BenchmarkFigure15RateRatios(b *testing.B)          { benchFigure(b, "F15") }

func BenchmarkAnalyticModelValidation(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := figures.ComputeA1(figures.A1Params{
			N: 300, Lambda: 0.5, TMax: 6, MCRuns: 2, Samples: 4,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSubsetExplosion(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := figures.ComputeA2(48, 0.05, 600, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationDeltaSensitivity(b *testing.B) { benchFigure(b, "AB1") }
func BenchmarkAblationKSensitivity(b *testing.B)     { benchFigure(b, "AB2") }
func BenchmarkAblationCopySemantics(b *testing.B)    { benchFigure(b, "AB3") }
func BenchmarkAblationHomogeneousTrace(b *testing.B) { benchFigure(b, "AB4") }

// Micro-benchmarks for the substrates.

func BenchmarkTraceGeneration(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := tracegen.Generate(tracegen.Conext0912); err != nil {
			b.Fatal(err)
		}
	}
}

// The shared hot-path benchmark bodies live in internal/benchsuite so
// psn-bench's BENCH_<date>.json snapshots measure exactly these
// workloads.

func BenchmarkSpaceTimeGraphBuild(b *testing.B)        { benchsuite.SpaceTimeGraphBuild(b) }
func BenchmarkEnumerateDevTrace(b *testing.B)          { benchsuite.EnumerateDevTrace(b) }
func BenchmarkEnumerateConferenceMessage(b *testing.B) { benchsuite.EnumerateConferenceMessage(b) }

// City-scale counterparts (≥2,000 nodes, ≥1M contacts): the cold
// graph build, one enumeration over 32-word membership rows, and a
// warm sweep replay of the full contact stream.
func BenchmarkSpaceTimeGraphBuildLarge(b *testing.B) { benchsuite.SpaceTimeGraphBuildLarge(b) }
func BenchmarkEnumerateCityMessage(b *testing.B)     { benchsuite.EnumerateCityMessage(b) }
func BenchmarkSimulateCitySweep(b *testing.B)        { benchsuite.SimulateCitySweep(b) }

func BenchmarkSimulateEpidemic(b *testing.B) { benchsuite.SimulateEpidemic(b) }

// BenchmarkSimulateSweep is the warm-sweep counterpart of
// BenchmarkSimulateEpidemic: per-run marginal cost with oracle tables
// and pooled simulation state amortized across runs.
func BenchmarkSimulateSweep(b *testing.B) { benchsuite.SimulateSweep(b) }

// BenchmarkServeEnumerateWarm is the serving layer's warm-cache
// request throughput (HTTP round trip included); 1e9 / ns_per_op is
// the single-connection requests/sec recorded in BENCH_<date>.json.
func BenchmarkServeEnumerateWarm(b *testing.B) { benchsuite.ServeEnumerateWarm(b) }

// benchmarkRunWorkers is the paper's Poisson-workload simulation (the
// repo's hottest loop) at a fixed worker count; the Serial/Parallel
// pair tracks the engine's speedup in the perf trajectory.
func benchmarkRunWorkers(b *testing.B, workers int) {
	tr := tracegen.MustGenerate(tracegen.Conext0912)
	msgs := dtnsim.Workload(tr, 0.25, tr.Horizon*2/3, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dtnsim.Run(dtnsim.Config{
			Trace: tr, Algorithm: forward.Epidemic{}, Messages: msgs, Workers: workers,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunSerial(b *testing.B)   { benchmarkRunWorkers(b, 1) }
func BenchmarkRunParallel(b *testing.B) { benchmarkRunWorkers(b, 0) } // GOMAXPROCS workers

func BenchmarkEnumerateAllSerial(b *testing.B)   { benchsuite.EnumerateAllWorkers(1)(b) }
func BenchmarkEnumerateAllParallel(b *testing.B) { benchsuite.EnumerateAllWorkers(0)(b) }

func BenchmarkEnumerateBatchSharedPrefix(b *testing.B) { benchsuite.EnumerateBatchSharedPrefix(b) }

// BenchmarkHarnessPrecompute runs the figure harness's parallel
// precompute stage end to end at reduced scale.
func BenchmarkHarnessPrecompute(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h := figures.NewHarness(benchParams())
		if err := h.Precompute(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimulateMEED(b *testing.B) {
	tr := tracegen.MustGenerate(tracegen.Conext0912)
	msgs := dtnsim.Workload(tr, 0.25, tr.Horizon*2/3, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dtnsim.Run(dtnsim.Config{Trace: tr, Algorithm: forward.DynamicProgramming{}, Messages: msgs}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMEEDDistances pins the serial triangular Floyd-Warshall
// closure on a 98-node trace, and BenchmarkMEEDDistancesCity the
// row-parallel one on a 1,000-node city trace (shared with psn-bench
// snapshots via benchsuite).
func BenchmarkMEEDDistances(b *testing.B)     { benchsuite.MEEDDistances(b) }
func BenchmarkMEEDDistancesCity(b *testing.B) { benchsuite.MEEDDistancesCity(b) }

func BenchmarkODESolve(b *testing.B) {
	u0 := analytic.SourceInitial(1000, 100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := analytic.SolveODE(u0, analytic.ODEConfig{
			Lambda: 0.5, K: 100, Step: 0.01, TMax: 10, Snapshots: 6,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkJumpProcess(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := analytic.SimulateJump(analytic.JumpConfig{
			N: 1000, Lambda: 0.5, TMax: 8, Snapshots: 4, MaxState: 1 << 20, Seed: int64(i),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWorkloadGeneration(b *testing.B) {
	tr := psn.DevTrace(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dtnsim.Workload(tr, 0.25, tr.Horizon, int64(i))
	}
}
