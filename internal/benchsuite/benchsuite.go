// Package benchsuite defines the repository's key hot-path benchmarks
// once, shared by the `go test -bench` suite (bench_test.go) and the
// psn-bench snapshot tool, so the perf trajectory in BENCH_<date>.json
// always measures exactly the workload CI benchmarks and budgets.
package benchsuite

import (
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/dtnsim"
	"repro/internal/forward"
	"repro/internal/pathenum"
	"repro/internal/service"
	"repro/internal/stgraph"
	"repro/internal/trace"
	"repro/internal/tracegen"
)

// Spec is one named benchmark.
type Spec struct {
	Name string
	Run  func(b *testing.B)
}

// Specs returns the shared benchmark list.
func Specs() []Spec {
	return []Spec{
		{"SpaceTimeGraphBuild", SpaceTimeGraphBuild},
		{"SpaceTimeGraphBuildLarge", SpaceTimeGraphBuildLarge},
		{"EnumerateDevTrace", EnumerateDevTrace},
		{"EnumerateConferenceMessage", EnumerateConferenceMessage},
		{"EnumerateCityMessage", EnumerateCityMessage},
		{"EnumerateAllSerial", EnumerateAllWorkers(1)},
		{"EnumerateAllParallel", EnumerateAllWorkers(0)},
		{"EnumerateBatchSharedPrefix", EnumerateBatchSharedPrefix},
		{"SimulateEpidemic", SimulateEpidemic},
		{"SimulateSweep", SimulateSweep},
		{"SimulateCitySweep", SimulateCitySweep},
		{"MEEDDistances", MEEDDistances},
		{"MEEDDistancesCity", MEEDDistancesCity},
		{"ServeEnumerateWarm", ServeEnumerateWarm},
	}
}

// SpaceTimeGraphBuild indexes the densest conference dataset.
func SpaceTimeGraphBuild(b *testing.B) {
	tr := tracegen.MustGenerate(tracegen.Conext0912)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := stgraph.New(tr, stgraph.DefaultDelta); err != nil {
			b.Fatal(err)
		}
	}
}

// cityTrace memoizes the 2,000-node, ≥1M-contact city dataset across
// the city-scale benchmarks (generation takes seconds and the trace
// is immutable).
var cityTrace = sync.OnceValue(func() *trace.Trace {
	return tracegen.MustCity(2000, 1)
})

// citySweep memoizes the city simulation sweep engine (oracle tables
// built once; the warm benchmark measures the marginal run).
var citySweep = sync.OnceValue(func() *dtnsim.Sweep {
	sw, err := dtnsim.NewSweep(cityTrace())
	if err != nil {
		panic(err)
	}
	return sw
})

// cityEnumerator memoizes the city enumerator — and with it the
// city-scale space-time graph — for the enumeration benchmark.
var cityEnumerator = sync.OnceValue(func() *pathenum.Enumerator {
	enum, err := pathenum.NewEnumerator(cityTrace(), pathenum.Options{K: 200})
	if err != nil {
		panic(err)
	}
	return enum
})

// SpaceTimeGraphBuildLarge indexes the city-scale dataset: ≥2,000
// nodes, ≥1M contact records, 4,320 steps — the cold-start cost a
// server pays per (city dataset, delta).
func SpaceTimeGraphBuildLarge(b *testing.B) {
	tr := cityTrace()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := stgraph.New(tr, stgraph.DefaultDelta); err != nil {
			b.Fatal(err)
		}
	}
}

// EnumerateCityMessage enumerates one message at city scale over the
// shared city graph: 2,000 nodes make every membership row 32 words.
func EnumerateCityMessage(b *testing.B) {
	enum := cityEnumerator()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := enum.Enumerate(pathenum.Message{Src: 150, Dst: 1800, Start: 600}); err != nil {
			b.Fatal(err)
		}
	}
}

// SimulateCitySweep runs an epidemic workload over the city dataset
// through a warm sweep: ≥1M contact events replayed per run, oracle
// tables amortized.
func SimulateCitySweep(b *testing.B) {
	sw := citySweep()
	tr := cityTrace()
	msgs := dtnsim.Workload(tr, 0.02, tr.Horizon/3, 1)
	cfg := dtnsim.Config{Algorithm: forward.Epidemic{}, Messages: msgs}
	if _, err := sw.Run(cfg); err != nil { // warm the pooled state
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sw.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// EnumerateDevTrace enumerates one message on the small development
// trace — the allocation-budget benchmark in CI.
func EnumerateDevTrace(b *testing.B) {
	tr := tracegen.Dev(1)
	enum, err := pathenum.NewEnumerator(tr, pathenum.Options{K: 200})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := enum.Enumerate(pathenum.Message{Src: 0, Dst: 17, Start: 0}); err != nil {
			b.Fatal(err)
		}
	}
}

// EnumerateConferenceMessage enumerates one explosion-scale message
// (paper K = 2000) on a conference dataset.
func EnumerateConferenceMessage(b *testing.B) {
	EnumerateConference(b, pathenum.Options{K: 2000})
}

// EnumerateConference enumerates the fixed conference message under
// custom enumeration options (bench_test.go's AB2 narrow-table arm
// reuses the same workload with TableWidth 16).
func EnumerateConference(b *testing.B, opt pathenum.Options) {
	tr := tracegen.MustGenerate(tracegen.Conext0912)
	enum, err := pathenum.NewEnumerator(tr, opt)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := enum.Enumerate(pathenum.Message{Src: 25, Dst: 60, Start: 600}); err != nil {
			b.Fatal(err)
		}
	}
}

// EnumerateAllWorkers enumerates a fixed 16-message batch over the
// shared conference space-time graph at the given worker count.
func EnumerateAllWorkers(workers int) func(b *testing.B) {
	return func(b *testing.B) {
		tr := tracegen.MustGenerate(tracegen.Conext0912)
		enum, err := pathenum.NewEnumerator(tr, pathenum.Options{K: 500, Workers: workers})
		if err != nil {
			b.Fatal(err)
		}
		rng := rand.New(rand.NewSource(42))
		msgs := make([]pathenum.Message, 16)
		for i := range msgs {
			src := trace.NodeID(rng.Intn(tr.NumNodes))
			dst := trace.NodeID(rng.Intn(tr.NumNodes - 1))
			if dst >= src {
				dst++
			}
			msgs[i] = pathenum.Message{Src: src, Dst: dst, Start: rng.Float64() * tr.Horizon / 2}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := enum.EnumerateAll(msgs); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// EnumerateBatchSharedPrefix enumerates a 16-destination batch sharing
// one (src, start) — the shape of the paper's per-destination Fig
// 10/13 sweeps, and the case the batch grouping in
// pathenum.EnumerateAll exists for: the dynamic program's prefix runs
// once per group instead of once per message. Contrast with
// EnumerateAllSerial, whose 16 messages have unique (src, start) pairs
// and degenerate to independent enumerations.
func EnumerateBatchSharedPrefix(b *testing.B) {
	tr := tracegen.MustGenerate(tracegen.Conext0912)
	enum, err := pathenum.NewEnumerator(tr, pathenum.Options{K: 500, Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	src := trace.NodeID(rng.Intn(tr.NumNodes))
	msgs := make([]pathenum.Message, 0, 16)
	for len(msgs) < cap(msgs) {
		dst := trace.NodeID(rng.Intn(tr.NumNodes))
		if dst == src {
			continue
		}
		msgs = append(msgs, pathenum.Message{Src: src, Dst: dst, Start: 600})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := enum.EnumerateAll(msgs); err != nil {
			b.Fatal(err)
		}
	}
}

// ServeEnumerateWarm measures the serving layer's warm-cache request
// throughput over a real HTTP round trip: one /enumerate request
// repeated against a psn-serve handler whose artifact caches and
// result LRU are already hot, so ns/op is the per-request serving
// overhead (1e9 / ns_per_op ≈ requests/sec on one connection).
func ServeEnumerateWarm(b *testing.B) {
	srv := service.New(service.Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	const body = `{"dataset":"dev","src":0,"dst":17,"start":0,"k":200}`
	do := func() error {
		resp, err := http.Post(ts.URL+"/enumerate", "application/json", strings.NewReader(body))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("enumerate: status %d", resp.StatusCode)
		}
		return nil
	}
	if err := do(); err != nil { // warm the caches
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := do(); err != nil {
			b.Fatal(err)
		}
	}
}

// SimulateEpidemic runs the paper's Poisson workload under epidemic
// forwarding, cold: every iteration pays the full Run contract
// including the oracle-table derivation.
func SimulateEpidemic(b *testing.B) {
	tr := tracegen.MustGenerate(tracegen.Conext0912)
	msgs := dtnsim.Workload(tr, 0.25, tr.Horizon*2/3, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dtnsim.Run(dtnsim.Config{Trace: tr, Algorithm: forward.Epidemic{}, Messages: msgs}); err != nil {
			b.Fatal(err)
		}
	}
}

// SimulateSweep measures the per-run marginal cost of the same
// epidemic workload through a warm Sweep engine: oracle tables built
// once, per-worker simulation state pooled and reset — the cost every
// run after the first pays in a multi-run parameter sweep (psn-sim
// -runs, the figure harness, a warm /simulate).
func SimulateSweep(b *testing.B) {
	tr := tracegen.MustGenerate(tracegen.Conext0912)
	sw, err := dtnsim.NewSweep(tr)
	if err != nil {
		b.Fatal(err)
	}
	msgs := dtnsim.Workload(tr, 0.25, tr.Horizon*2/3, 1)
	cfg := dtnsim.Config{Algorithm: forward.Epidemic{}, Messages: msgs}
	if _, err := sw.Run(cfg); err != nil { // warm the pooled state
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sw.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// MEEDDistances pins the all-pairs Floyd-Warshall closure of the MEED
// oracle metric — the O(n³) share of every cold Dynamic Programming
// simulation — on a 98-node conference trace, below the population at
// which the closure splits its rows across workers: it times the
// serial triangular closure.
func MEEDDistances(b *testing.B) {
	tr := tracegen.MustGenerate(tracegen.Conext0912)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		forward.MEEDDistances(tr)
	}
}

// city1kTrace memoizes a 1,000-node city trace for MEEDDistancesCity.
var city1kTrace = sync.OnceValue(func() *trace.Trace {
	return tracegen.MustCity(1000, 1)
})

// MEEDDistancesCity times the MEED closure at city scale, where each
// pivot's rows are split across GOMAXPROCS workers. At 1,000 nodes it
// does an eighth of the work of the city-2k closure.
func MEEDDistancesCity(b *testing.B) {
	tr := city1kTrace()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		forward.MEEDDistances(tr)
	}
}
