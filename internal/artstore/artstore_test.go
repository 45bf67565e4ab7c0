package artstore

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/dtnsim"
	"repro/internal/forward"
	"repro/internal/stgraph"
	"repro/internal/trace"
	"repro/internal/tracegen"
)

// goldenTraces returns the full golden corpus: all four conference
// datasets plus several dev seeds (and, outside -short, city-2k).
func goldenTraces(t testing.TB) map[string]*trace.Trace {
	t.Helper()
	out := make(map[string]*trace.Trace)
	for _, d := range tracegen.Datasets {
		tr, err := tracegen.Generate(d)
		if err != nil {
			t.Fatal(err)
		}
		out[tr.Name] = tr
	}
	for _, seed := range []int64{1, 2, 9} {
		tr := tracegen.Dev(seed)
		out[tr.Name+"-seed"+string(rune('0'+seed))] = tr
	}
	return out
}

// verifyGraphRoundTrip saves g and checks the loaded graph is
// byte-identical: equal slab forms, which every query is a pure
// function of (see stgraph.Snapshot), plus direct query spot checks.
func verifyGraphRoundTrip(t *testing.T, st *Store, dataset string, digest uint64, g *stgraph.Graph) {
	t.Helper()
	if _, err := st.SaveGraph(dataset, digest, g); err != nil {
		t.Fatalf("%s: save: %v", dataset, err)
	}
	loaded, err := st.LoadGraph(dataset, g.Delta, digest)
	if err != nil {
		t.Fatalf("%s: load: %v", dataset, err)
	}
	if !reflect.DeepEqual(g.Snapshot(), loaded.Snapshot()) {
		t.Fatalf("%s delta %g: loaded graph differs from fresh build", dataset, g.Delta)
	}
	for s := 0; s < g.Steps; s += 1 + g.Steps/64 {
		if g.EdgeCount(s) != loaded.EdgeCount(s) {
			t.Fatalf("%s step %d: EdgeCount differs", dataset, s)
		}
		wv, lv := g.View(s), loaded.View(s)
		if wv.NumComponents() != lv.NumComponents() {
			t.Fatalf("%s step %d: NumComponents differs", dataset, s)
		}
		for x := 0; x < g.NumNodes; x += 1 + g.NumNodes/32 {
			nx := trace.NodeID(x)
			if !reflect.DeepEqual(g.Neighbors(s, nx), loaded.Neighbors(s, nx)) {
				t.Fatalf("%s step %d node %d: Neighbors differ", dataset, s, x)
			}
			if wv.ComponentOf(nx) != lv.ComponentOf(nx) {
				t.Fatalf("%s step %d node %d: ComponentOf differs", dataset, s, x)
			}
		}
	}
}

func TestGraphGoldenRoundTrip(t *testing.T) {
	st := &Store{Dir: t.TempDir()}
	for name, tr := range goldenTraces(t) {
		digest := TraceDigest(tr)
		for _, delta := range []float64{stgraph.DefaultDelta, 60, 300} {
			g, err := stgraph.New(tr, delta)
			if err != nil {
				t.Fatal(err)
			}
			verifyGraphRoundTrip(t, st, name, digest, g)
		}
	}
}

func TestGraphGoldenRoundTripCity(t *testing.T) {
	if testing.Short() {
		t.Skip("city-scale build in -short mode")
	}
	tr, err := tracegen.City(2000, 1)
	if err != nil {
		t.Fatal(err)
	}
	g, err := stgraph.New(tr, stgraph.DefaultDelta)
	if err != nil {
		t.Fatal(err)
	}
	st := &Store{Dir: t.TempDir()}
	verifyGraphRoundTrip(t, st, "city-2k", TraceDigest(tr), g)
}

func TestOracleGoldenRoundTrip(t *testing.T) {
	st := &Store{Dir: t.TempDir()}
	for name, tr := range goldenTraces(t) {
		digest := TraceDigest(tr)
		fresh := dtnsim.NewOracle(tr)
		if _, err := st.SaveOracle(name, digest, fresh); err != nil {
			t.Fatalf("%s: save: %v", name, err)
		}
		loaded, err := st.LoadOracle(name, digest, tr)
		if err != nil {
			t.Fatalf("%s: load: %v", name, err)
		}
		if !reflect.DeepEqual(fresh.EventOrder(), loaded.EventOrder()) {
			t.Fatalf("%s: loaded oracle event stream differs", name)
		}
		// A simulation against the loaded oracle is byte-identical to a
		// fresh run.
		msgs := dtnsim.Workload(tr, 0.1, tr.Horizon/2, 42)
		want, err := dtnsim.Run(dtnsim.Config{Trace: tr, Algorithm: forward.Epidemic{}, Messages: msgs, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		sw, err := dtnsim.NewSweepFromOracle(loaded)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sw.Run(dtnsim.Config{Algorithm: forward.Epidemic{}, Messages: msgs, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("%s: run against loaded oracle differs", name)
		}
	}
}

func TestLoadMmapPoliciesAgree(t *testing.T) {
	tr := tracegen.Dev(1)
	digest := TraceDigest(tr)
	g, err := stgraph.New(tr, stgraph.DefaultDelta)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := (&Store{Dir: dir}).SaveGraph("dev", digest, g); err != nil {
		t.Fatal(err)
	}
	var snaps []*stgraph.Snapshot
	for _, policy := range []MmapPolicy{MmapAuto, MmapNever, MmapAlways} {
		st := &Store{Dir: dir, Mmap: policy}
		loaded, err := st.LoadGraph("dev", stgraph.DefaultDelta, digest)
		if err != nil {
			if policy == MmapAlways && !mmapSupported {
				continue
			}
			t.Fatalf("policy %d: %v", policy, err)
		}
		snaps = append(snaps, loaded.Snapshot())
	}
	for i := 1; i < len(snaps); i++ {
		if !reflect.DeepEqual(snaps[0], snaps[i]) {
			t.Fatal("mmap policies disagree on loaded graph")
		}
	}
}

// TestLoadRejections drives every miss path: absence, version skew,
// digest and parameter mismatches, header and payload corruption,
// truncation. All must wrap ErrMiss and none may panic.
func TestLoadRejections(t *testing.T) {
	tr := tracegen.Dev(1)
	digest := TraceDigest(tr)
	g, err := stgraph.New(tr, stgraph.DefaultDelta)
	if err != nil {
		t.Fatal(err)
	}

	newStore := func(t *testing.T) (*Store, string) {
		st := &Store{Dir: t.TempDir()}
		path, err := st.SaveGraph("dev", digest, g)
		if err != nil {
			t.Fatal(err)
		}
		return st, path
	}
	load := func(st *Store) error {
		_, err := st.LoadGraph("dev", stgraph.DefaultDelta, digest)
		return err
	}
	cases := []struct {
		name    string
		corrupt func(t *testing.T, st *Store, path string) error
	}{
		{"missing file", func(t *testing.T, st *Store, path string) error {
			os.Remove(path)
			return load(st)
		}},
		{"wrong delta", func(t *testing.T, st *Store, path string) error {
			_, err := st.LoadGraph("dev", 60, digest)
			return err
		}},
		{"wrong digest", func(t *testing.T, st *Store, path string) error {
			_, err := st.LoadGraph("dev", stgraph.DefaultDelta, digest+1)
			return err
		}},
		{"wrong kind", func(t *testing.T, st *Store, path string) error {
			if _, err := st.SaveOracle("o", digest, dtnsim.NewOracle(tr)); err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(st.OraclePath("o"))
			if err != nil {
				t.Fatal(err)
			}
			os.WriteFile(path, data, 0o644)
			return load(st)
		}},
		{"bad magic", func(t *testing.T, st *Store, path string) error {
			flipByte(t, path, 0)
			return load(st)
		}},
		{"version skew", func(t *testing.T, st *Store, path string) error {
			flipByte(t, path, 8)
			return load(st)
		}},
		{"header corruption", func(t *testing.T, st *Store, path string) error {
			flipByte(t, path, 24)
			return load(st)
		}},
		{"payload corruption", func(t *testing.T, st *Store, path string) error {
			info, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			flipByte(t, path, info.Size()-5)
			return load(st)
		}},
		{"truncated payload", func(t *testing.T, st *Store, path string) error {
			truncate(t, path, -100)
			return load(st)
		}},
		{"truncated header", func(t *testing.T, st *Store, path string) error {
			info, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			truncate(t, path, 30-info.Size())
			return load(st)
		}},
		{"empty file", func(t *testing.T, st *Store, path string) error {
			truncate(t, path, -1<<62)
			return load(st)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st, path := newStore(t)
			err := tc.corrupt(t, st, path)
			if err == nil {
				t.Fatal("corrupted artifact accepted")
			}
			if !errors.Is(err, ErrMiss) {
				t.Fatalf("error does not wrap ErrMiss: %v", err)
			}
		})
	}
}

func TestLoadOracleRejectsTraceMismatch(t *testing.T) {
	tr := tracegen.Dev(1)
	other := tracegen.Dev(2)
	st := &Store{Dir: t.TempDir()}
	if _, err := st.SaveOracle("dev", TraceDigest(tr), dtnsim.NewOracle(tr)); err != nil {
		t.Fatal(err)
	}
	// The digest check is what protects against resolving the dataset
	// name to different trace data than the warm run saw.
	if _, err := st.LoadOracle("dev", TraceDigest(other), other); !errors.Is(err, ErrMiss) {
		t.Fatalf("digest mismatch not a miss: %v", err)
	}
	if TraceDigest(tr) == TraceDigest(other) {
		t.Fatal("distinct traces digest equal")
	}
}

func TestSaveIsAtomic(t *testing.T) {
	tr := tracegen.Dev(1)
	g, err := stgraph.New(tr, stgraph.DefaultDelta)
	if err != nil {
		t.Fatal(err)
	}
	st := &Store{Dir: t.TempDir()}
	if _, err := st.SaveGraph("dev", TraceDigest(tr), g); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(st.Dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if filepath.Ext(e.Name()) != ".psna" {
			t.Fatalf("stray file %s left in store", e.Name())
		}
	}
}

func flipByte(t *testing.T, path string, off int64) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var b [1]byte
	if _, err := f.ReadAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xFF
	if _, err := f.WriteAt(b[:], off); err != nil {
		t.Fatal(err)
	}
}

// truncate shrinks the file by -delta bytes (delta < 0), to a floor of
// zero.
func truncate(t *testing.T, path string, delta int64) {
	t.Helper()
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	size := info.Size() + delta
	if size < 0 {
		size = 0
	}
	if err := os.Truncate(path, size); err != nil {
		t.Fatal(err)
	}
}
