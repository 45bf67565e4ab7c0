package dtnsim

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/forward"
	"repro/internal/trace"
	"repro/internal/tracegen"
)

// The parallel engine's core promise: for every algorithm, copy mode
// and worker count, Run produces the exact Result a serial run
// produces — identical Outcome structs in identical order and an
// identical transmission count.

func runOrDie(t *testing.T, cfg Config) *Result {
	t.Helper()
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestRunSerialParallelEquivalence(t *testing.T) {
	seeds := []int64{1, 2, 3, 17}
	for _, seed := range seeds {
		tr := tracegen.Dev(seed)
		msgs := Workload(tr, 0.2, tr.Horizon, seed+100)
		if len(msgs) == 0 {
			t.Fatalf("seed %d: empty workload", seed)
		}
		for _, alg := range forward.PaperSet() {
			for _, mode := range []CopyMode{Replicate, Relay} {
				serial := runOrDie(t, Config{Trace: tr, Algorithm: alg, Messages: msgs, CopyMode: mode, Workers: 1})
				for _, workers := range []int{2, 3, 8} {
					par := runOrDie(t, Config{Trace: tr, Algorithm: alg, Messages: msgs, CopyMode: mode, Workers: workers})
					if !reflect.DeepEqual(serial, par) {
						t.Errorf("seed %d %s/%s: workers=%d diverges from serial (tx %d vs %d)",
							seed, alg.Name(), mode, workers, par.Transmissions, serial.Transmissions)
					}
				}
			}
		}
	}
}

// The four paper datasets at reduced workload scale: the conference
// traces exercise overlapping contacts, presence churn and the
// afternoon-window dynamics that the Dev trace does not.
func TestRunEquivalenceOnPaperDatasets(t *testing.T) {
	if testing.Short() {
		t.Skip("full dataset sweep is slow")
	}
	for _, d := range tracegen.Datasets {
		tr := tracegen.MustGenerate(d)
		for _, seed := range []int64{1, 2, 3} {
			msgs := Workload(tr, 0.01, tr.Horizon*2/3, seed)
			for _, alg := range []forward.Algorithm{forward.Epidemic{}, forward.Greedy{}, forward.DynamicProgramming{}} {
				serial := runOrDie(t, Config{Trace: tr, Algorithm: alg, Messages: msgs, Workers: 1})
				par := runOrDie(t, Config{Trace: tr, Algorithm: alg, Messages: msgs, Workers: 8})
				if !reflect.DeepEqual(serial, par) {
					t.Errorf("%v seed %d %s: parallel diverges from serial", d, seed, alg.Name())
				}
			}
		}
	}
}

// Relay mode moves a single copy: a holder that hands the copy off
// must stop forwarding immediately, even inside one zero-time spread
// over multiple open contacts. With contacts 0-1 and 0-2 both live at
// creation, an always-forward algorithm must make exactly one
// transfer, not duplicate the copy to both peers.
func TestRelaySingleCopyNotDuplicated(t *testing.T) {
	tr, err := trace.New("relay-dup", 4, 100, []trace.Contact{
		{A: 0, B: 1, Start: 0, End: 50},
		{A: 0, B: 2, Start: 0, End: 50},
	})
	if err != nil {
		t.Fatal(err)
	}
	r, err := Run(Config{
		Trace:     tr,
		Algorithm: forward.Epidemic{},
		Messages:  []Message{{Src: 0, Dst: 3, Start: 10}},
		CopyMode:  Relay,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Transmissions != 1 {
		t.Errorf("single relay copy made %d transmissions, want 1", r.Transmissions)
	}
	if r.Outcomes[0].Delivered {
		t.Error("message delivered with no path to destination")
	}
}

// Concurrent Run calls over one shared trace (and shared stateless
// algorithms) must be safe: the trace and oracle inputs are read-only.
func TestRunConcurrentCallers(t *testing.T) {
	tr := tracegen.Dev(9)
	msgs := Workload(tr, 0.1, tr.Horizon, 9)
	want := runOrDie(t, Config{Trace: tr, Algorithm: forward.Epidemic{}, Messages: msgs, Workers: 1})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, err := Run(Config{Trace: tr, Algorithm: forward.Epidemic{}, Messages: msgs, Workers: 2})
			if err != nil {
				t.Error(err)
				return
			}
			if !reflect.DeepEqual(want, r) {
				t.Error("concurrent caller got divergent result")
			}
		}()
	}
	wg.Wait()
}
