package psn_test

// Public-API serial-equivalence suite: the Workers knobs re-exported
// through psn must not change any result — the parallel engine is a
// pure scheduling optimization.

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	psn "repro"
	"repro/internal/forward"
)

func TestSimulateWorkersEquivalence(t *testing.T) {
	for _, seed := range []int64{1, 5, 9} {
		tr := psn.DevTrace(seed)
		msgs := psn.SimWorkload(tr, 0.15, tr.Horizon, seed)
		for _, alg := range psn.PaperAlgorithms() {
			serial, err := psn.Simulate(psn.SimConfig{Trace: tr, Algorithm: alg, Messages: msgs, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			parallel, err := psn.Simulate(psn.SimConfig{Trace: tr, Algorithm: alg, Messages: msgs, Workers: 6})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(serial, parallel) {
				t.Errorf("seed %d %s: Workers=6 result differs from Workers=1", seed, alg.Name())
			}
		}
	}
}

func TestEnumerateAllWorkersEquivalence(t *testing.T) {
	for _, seed := range []int64{2, 4, 8} {
		tr := psn.DevTrace(seed)
		rng := rand.New(rand.NewSource(seed))
		var msgs []psn.PathMessage
		for i := 0; i < 10; i++ {
			src := psn.NodeID(rng.Intn(tr.NumNodes))
			dst := psn.NodeID(rng.Intn(tr.NumNodes - 1))
			if dst >= src {
				dst++
			}
			msgs = append(msgs, psn.PathMessage{Src: src, Dst: dst, Start: rng.Float64() * tr.Horizon / 2})
		}
		serialEnum, err := psn.NewEnumerator(tr, psn.EnumOptions{K: 100, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		parallelEnum, err := psn.NewEnumerator(tr, psn.EnumOptions{K: 100, Workers: 8})
		if err != nil {
			t.Fatal(err)
		}
		want, err := serialEnum.EnumerateAll(msgs, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := parallelEnum.EnumerateAll(msgs, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if len(want[i].Arrivals) != len(got[i].Arrivals) {
				t.Fatalf("seed %d message %d: %d vs %d arrivals", seed, i, len(want[i].Arrivals), len(got[i].Arrivals))
			}
			for j := range want[i].Arrivals {
				if want[i].Arrivals[j].String() != got[i].Arrivals[j].String() {
					t.Errorf("seed %d message %d arrival %d differs", seed, i, j)
				}
			}
		}
	}
}

// A full figure-harness render through the public API must be
// byte-identical across worker counts. One small figure keeps this
// fast; the exhaustive per-figure sweep lives in internal/figures.
func TestFigureRenderWorkersEquivalence(t *testing.T) {
	render := func(workers int) []byte {
		h := psn.NewFigureHarness(psn.FigureParams{
			Messages: 4, K: 40, SimRuns: 1, Seed: 3,
			Datasets: []psn.Dataset{psn.Infocom0912, psn.Conext0912},
			Workers:  workers,
		})
		f, ok := psn.LookupFigure("F09")
		if !ok {
			t.Fatal("figure F09 missing")
		}
		var buf bytes.Buffer
		if err := h.RenderOne(f, &buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	serial := render(1)
	for _, workers := range []int{2, 8} {
		if got := render(workers); !bytes.Equal(serial, got) {
			t.Errorf("F09 render with Workers=%d differs from serial:\n%s\nvs\n%s", workers, got, serial)
		}
	}
}

// DeriveSeed is part of the public determinism contract.
func TestDeriveSeedStable(t *testing.T) {
	if psn.DeriveSeed(1, 2) != psn.DeriveSeed(1, 2) {
		t.Error("DeriveSeed not deterministic")
	}
	if psn.DeriveSeed(1, 2) == psn.DeriveSeed(1, 3) || psn.DeriveSeed(1, 2) == psn.DeriveSeed(2, 2) {
		t.Error("DeriveSeed collisions on adjacent inputs")
	}
}

var _ forward.Algorithm = psn.PaperAlgorithms()[0]
