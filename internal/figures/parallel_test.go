package figures

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/tracegen"
)

// eqParams builds reduced-scale parameters with the given seed and
// worker count. Small enough that the Workers=1 arm of each
// comparison stays fast, large enough that studies, sweeps and
// ablations all do real work.
func eqParams(seed int64, workers int) Params {
	return Params{
		Messages: 6,
		K:        50,
		SimRuns:  2,
		Seed:     seed,
		Datasets: []tracegen.Dataset{tracegen.Infocom0912, tracegen.Conext0912},
		Workers:  workers,
	}
}

// studyKey reduces a study to comparable per-message identities plus
// the arrival path strings.
func studyKey(s *Study) []string {
	var out []string
	for _, r := range s.Results {
		out = append(out, fmt.Sprintf("%d->%d@%g exhausted=%v", r.Msg.Src, r.Msg.Dst, r.Msg.Start, r.Exhausted))
		for _, p := range r.Arrivals {
			out = append(out, p.String())
		}
	}
	return out
}

// The harness determinism contract: studies, simulation sweeps and
// every rendered figure are byte-identical for Workers=1 and
// Workers=N, across multiple seeds.
func TestHarnessSerialParallelEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("harness equivalence sweep is slow")
	}
	for _, seed := range []int64{1, 2, 7} {
		serial := NewHarness(eqParams(seed, 1))
		parallel := NewHarness(eqParams(seed, 8))

		for _, d := range serial.P.Datasets {
			ss, err := serial.Study(d)
			if err != nil {
				t.Fatal(err)
			}
			ps, err := parallel.Study(d)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(studyKey(ss), studyKey(ps)) {
				t.Errorf("seed %d %v: parallel study diverges from serial", seed, d)
			}
			sr, err := serial.Simulate(d)
			if err != nil {
				t.Fatal(err)
			}
			pr, err := parallel.Simulate(d)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(sr, pr) {
				t.Errorf("seed %d %v: parallel simulation sweep diverges from serial", seed, d)
			}
		}

		// Figures that consume the studies and sweeps (the analytic
		// figures A1/A2 run fixed internal seeds and no harness
		// parallelism; rendering them twice here would only cost time).
		for _, id := range []string{"F04a", "F04b", "F05", "F06", "F09", "F10", "F12", "F13", "AB1", "AB2", "AB3", "AB4", "X1"} {
			f, ok := Lookup(id)
			if !ok {
				t.Fatalf("unknown figure %s", id)
			}
			var sbuf, pbuf bytes.Buffer
			if err := serial.RenderOne(f, &sbuf); err != nil {
				t.Fatal(err)
			}
			if err := parallel.RenderOne(f, &pbuf); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(sbuf.Bytes(), pbuf.Bytes()) {
				t.Errorf("seed %d figure %s: parallel render diverges from serial:\n--- serial ---\n%s\n--- parallel ---\n%s",
					seed, id, sbuf.String(), pbuf.String())
			}
		}
	}
}

// Precompute must fill the caches the renderers read, concurrently and
// without duplicated computation.
func TestPrecomputeFillsCaches(t *testing.T) {
	h := NewHarness(eqParams(3, 4))
	if err := h.Precompute(); err != nil {
		t.Fatal(err)
	}
	for _, d := range h.P.Datasets {
		before, err := h.Study(d)
		if err != nil {
			t.Fatal(err)
		}
		again, err := h.Study(d)
		if err != nil {
			t.Fatal(err)
		}
		if before != again {
			t.Errorf("%v: study recomputed after Precompute", d)
		}
		s1, err := h.Simulate(d)
		if err != nil {
			t.Fatal(err)
		}
		s2, err := h.Simulate(d)
		if err != nil {
			t.Fatal(err)
		}
		if reflect.ValueOf(s1).Pointer() != reflect.ValueOf(s2).Pointer() {
			t.Errorf("%v: simulation sweep recomputed after Precompute", d)
		}
	}
}

// A single shared Harness hammered from many goroutines: every caller
// must observe the same cached values, with each study and sweep
// computed exactly once.
func TestHarnessConcurrentStress(t *testing.T) {
	h := NewHarness(eqParams(5, 2))
	d := h.P.Datasets[0]
	var wg sync.WaitGroup
	studies := make([]*Study, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			switch g % 3 {
			case 0:
				st, err := h.Study(d)
				if err != nil {
					t.Error(err)
					return
				}
				studies[g] = st
			case 1:
				if _, err := h.Simulate(d); err != nil {
					t.Error(err)
				}
			default:
				_ = h.Trace(d)
			}
		}(g)
	}
	wg.Wait()
	var want *Study
	for _, st := range studies {
		if st == nil {
			continue
		}
		if want == nil {
			want = st
		} else if st != want {
			t.Error("concurrent callers observed different study instances")
		}
	}
	if want == nil {
		t.Fatal("no study computed")
	}
}
