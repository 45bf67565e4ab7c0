package trace

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func mkTrace(t *testing.T, contacts []Contact) *Trace {
	t.Helper()
	tr, err := New("test", 10, 1000, contacts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return tr
}

func TestContactDuration(t *testing.T) {
	c := Contact{A: 0, B: 1, Start: 10, End: 25}
	if got := c.Duration(); got != 15 {
		t.Errorf("Duration = %g, want 15", got)
	}
}

func TestContactPeer(t *testing.T) {
	c := Contact{A: 3, B: 7}
	if got := c.Peer(3); got != 7 {
		t.Errorf("Peer(3) = %d, want 7", got)
	}
	if got := c.Peer(7); got != 3 {
		t.Errorf("Peer(7) = %d, want 3", got)
	}
}

func TestContactPeerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("Peer on non-member did not panic")
		}
	}()
	Contact{A: 3, B: 7}.Peer(5)
}

func TestContactInvolves(t *testing.T) {
	c := Contact{A: 1, B: 2}
	for _, tc := range []struct {
		n    NodeID
		want bool
	}{{1, true}, {2, true}, {3, false}} {
		if got := c.Involves(tc.n); got != tc.want {
			t.Errorf("Involves(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
}

func TestContactOverlaps(t *testing.T) {
	c := Contact{A: 0, B: 1, Start: 10, End: 20}
	for _, tc := range []struct {
		from, to float64
		want     bool
	}{
		{0, 5, false},
		{0, 10, false}, // half-open: ends exactly at contact start
		{0, 11, true},
		{15, 16, true},
		{20, 30, false}, // contact ends exactly at window start
		{19, 30, true},
		{5, 25, true},
	} {
		if got := c.Overlaps(tc.from, tc.to); got != tc.want {
			t.Errorf("Overlaps(%g,%g) = %v, want %v", tc.from, tc.to, got, tc.want)
		}
	}
}

func TestNewValidation(t *testing.T) {
	valid := []Contact{{A: 0, B: 1, Start: 0, End: 10}}
	for _, tc := range []struct {
		name     string
		numNodes int
		horizon  float64
		contacts []Contact
		wantErr  bool
	}{
		{"ok", 10, 100, valid, false},
		{"empty contacts ok", 10, 100, nil, false},
		{"zero nodes", 0, 100, nil, true},
		{"negative horizon", 10, -1, nil, true},
		{"node out of range", 2, 100, []Contact{{A: 0, B: 5, End: 1}}, true},
		{"negative node", 2, 100, []Contact{{A: -1, B: 1, End: 1}}, true},
		{"self contact", 10, 100, []Contact{{A: 3, B: 3, End: 1}}, true},
		{"negative start", 10, 100, []Contact{{A: 0, B: 1, Start: -1, End: 1}}, true},
		{"end before start", 10, 100, []Contact{{A: 0, B: 1, Start: 5, End: 4}}, true},
		{"end beyond horizon", 10, 100, []Contact{{A: 0, B: 1, Start: 5, End: 101}}, true},
	} {
		_, err := New(tc.name, tc.numNodes, tc.horizon, tc.contacts)
		if (err != nil) != tc.wantErr {
			t.Errorf("%s: err = %v, wantErr = %v", tc.name, err, tc.wantErr)
		}
	}
}

func TestNewSortsContacts(t *testing.T) {
	tr := mkTrace(t, []Contact{
		{A: 0, B: 1, Start: 50, End: 60},
		{A: 1, B: 2, Start: 10, End: 20},
		{A: 2, B: 3, Start: 30, End: 40},
	})
	cs := tr.Contacts()
	for i := 1; i < len(cs); i++ {
		if cs[i-1].Start > cs[i].Start {
			t.Fatalf("contacts not sorted at %d: %v > %v", i, cs[i-1].Start, cs[i].Start)
		}
	}
}

func TestNewCopiesInput(t *testing.T) {
	in := []Contact{{A: 0, B: 1, Start: 1, End: 2}}
	tr := mkTrace(t, in)
	in[0].A = 5
	if tr.Contacts()[0].A != 0 {
		t.Errorf("trace aliases caller slice")
	}
}

// TestNewKeepsStableOrder pins New's order to a stable sort by
// (Start, End): contacts with equal times keep their input order.
// The inputs are long enough that an unstable sort would reorder
// ties, and New must leave the caller's slice as it was.
func TestNewKeepsStableOrder(t *testing.T) {
	const n, horizon = 2000, 1000.0
	rng := rand.New(rand.NewSource(7))
	draw := func(times func(i int) (float64, float64)) []Contact {
		cs := make([]Contact, n)
		for i := range cs {
			a := NodeID(rng.Intn(50))
			cs[i].A, cs[i].B = a, (a+1+NodeID(rng.Intn(49)))%50
			cs[i].Start, cs[i].End = times(i)
		}
		return cs
	}
	inputs := map[string][]Contact{
		"random": draw(func(int) (float64, float64) {
			s := rng.Float64() * (horizon - 10)
			return s, s + rng.Float64()*10
		}),
		"tie-heavy": draw(func(int) (float64, float64) {
			s := float64(rng.Intn(20))
			return s, s + float64(rng.Intn(3))
		}),
		"all-equal": draw(func(int) (float64, float64) { return 5, 6 }),
		"pre-sorted": draw(func(i int) (float64, float64) {
			return float64(i / 4), float64(i/4 + 1)
		}),
		"reverse-sorted": draw(func(i int) (float64, float64) {
			return float64((n - i) / 4), float64((n-i)/4 + 1)
		}),
		// -0 passes validation and compares equal to +0.
		"signed zeros": draw(func(i int) (float64, float64) {
			if i%2 == 0 {
				return math.Copysign(0, -1), 1
			}
			return 0, 1
		}),
	}
	for name, in := range inputs {
		before := slices.Clone(in)
		want := slices.Clone(in)
		slices.SortStableFunc(want, func(a, b Contact) int {
			if c := cmp.Compare(a.Start, b.Start); c != 0 {
				return c
			}
			return cmp.Compare(a.End, b.End)
		})
		tr, err := New(name, 50, horizon, in)
		if err != nil {
			t.Fatalf("%s: New: %v", name, err)
		}
		if i := firstContactDiff(tr.Contacts(), want); i >= 0 {
			t.Errorf("%s: contact %d is %+v, stable order has %+v", name, i, tr.Contacts()[i], want[i])
		}
		if i := firstContactDiff(in, before); i >= 0 {
			t.Errorf("%s: New changed the caller's contact %d to %+v", name, i, in[i])
		}
	}
}

// firstContactDiff returns the first index at which a and b differ in
// an endpoint or in the bits of a time, or -1 when they are the same.
func firstContactDiff(a, b []Contact) int {
	for i := range a {
		if a[i].A != b[i].A || a[i].B != b[i].B ||
			math.Float64bits(a[i].Start) != math.Float64bits(b[i].Start) ||
			math.Float64bits(a[i].End) != math.Float64bits(b[i].End) {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}

func TestWindow(t *testing.T) {
	tr := mkTrace(t, []Contact{
		{A: 0, B: 1, Start: 10, End: 20},
		{A: 1, B: 2, Start: 90, End: 110},  // clipped at window end
		{A: 2, B: 3, Start: 40, End: 60},   // clipped at window start
		{A: 3, B: 4, Start: 200, End: 210}, // outside
	})
	w, err := tr.Window("w", 50, 100)
	if err != nil {
		t.Fatalf("Window: %v", err)
	}
	if w.Horizon != 50 {
		t.Errorf("Horizon = %g, want 50", w.Horizon)
	}
	if w.Len() != 2 {
		t.Fatalf("Len = %d, want 2", w.Len())
	}
	// Contact 2 (clipped start): [50,60) -> [0,10)
	if c := w.Contacts()[0]; c.Start != 0 || c.End != 10 {
		t.Errorf("first windowed contact = %+v, want [0,10)", c)
	}
	// Contact 1 (clipped end): [90,110) -> [40,50)
	if c := w.Contacts()[1]; c.Start != 40 || c.End != 50 {
		t.Errorf("second windowed contact = %+v, want [40,50)", c)
	}
}

func TestWindowBadRange(t *testing.T) {
	tr := mkTrace(t, nil)
	if _, err := tr.Window("w", -1, 10); err == nil {
		t.Errorf("negative from accepted")
	}
	if _, err := tr.Window("w", 10, 10); err == nil {
		t.Errorf("empty window accepted")
	}
}

func TestContactCounts(t *testing.T) {
	tr := mkTrace(t, []Contact{
		{A: 0, B: 1, Start: 0, End: 1},
		{A: 0, B: 2, Start: 1, End: 2},
		{A: 1, B: 2, Start: 2, End: 3},
	})
	counts := tr.ContactCounts()
	want := []int{2, 2, 2, 0, 0, 0, 0, 0, 0, 0}
	for i := range want {
		if counts[i] != want[i] {
			t.Errorf("counts[%d] = %d, want %d", i, counts[i], want[i])
		}
	}
}

func TestRates(t *testing.T) {
	tr := mkTrace(t, []Contact{{A: 0, B: 1, Start: 0, End: 1}})
	rates := tr.Rates()
	if want := 1.0 / 1000; rates[0] != want {
		t.Errorf("rate[0] = %g, want %g", rates[0], want)
	}
	if rates[5] != 0 {
		t.Errorf("rate[5] = %g, want 0", rates[5])
	}
}

func TestTotalContactsPerBin(t *testing.T) {
	tr := mkTrace(t, []Contact{
		{A: 0, B: 1, Start: 0, End: 30},    // bin 0 only (ends mid-bin 0 at 30 < 60)
		{A: 1, B: 2, Start: 50, End: 130},  // bins 0,1,2
		{A: 2, B: 3, Start: 60, End: 120},  // bins 1 only? [60,120) -> bin 1 (120 on boundary)
		{A: 3, B: 4, Start: 600, End: 600}, // instantaneous, bin 10
	})
	bins := tr.TotalContactsPerBin(60)
	if len(bins) < 11 {
		t.Fatalf("len(bins) = %d, want >= 11", len(bins))
	}
	if bins[0] != 2 {
		t.Errorf("bin 0 = %d, want 2", bins[0])
	}
	if bins[1] != 2 {
		t.Errorf("bin 1 = %d, want 2", bins[1])
	}
	if bins[2] != 1 {
		t.Errorf("bin 2 = %d, want 1", bins[2])
	}
	if bins[10] != 1 {
		t.Errorf("bin 10 = %d, want 1", bins[10])
	}
}

func TestTotalContactsPerBinBadSize(t *testing.T) {
	tr := mkTrace(t, nil)
	if got := tr.TotalContactsPerBin(0); got != nil {
		t.Errorf("bin size 0 returned %v, want nil", got)
	}
}

func TestPairTypeString(t *testing.T) {
	for _, tc := range []struct {
		p    PairType
		want string
	}{
		{InIn, "in-in"}, {InOut, "in-out"}, {OutIn, "out-in"}, {OutOut, "out-out"},
		{PairType(9), "PairType(9)"},
	} {
		if got := tc.p.String(); got != tc.want {
			t.Errorf("String(%d) = %q, want %q", int(tc.p), got, tc.want)
		}
	}
}

// classifierTrace: node 0 has 3 contacts, node 1 has 2, node 2 has 2,
// node 3 has 1, and we use only 4 nodes so the median is clear.
func classifierTrace(t *testing.T) *Trace {
	t.Helper()
	tr, err := New("cl", 4, 100, []Contact{
		{A: 0, B: 1, Start: 0, End: 1},
		{A: 0, B: 2, Start: 1, End: 2},
		{A: 0, B: 3, Start: 2, End: 3},
		{A: 1, B: 2, Start: 3, End: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestClassifier(t *testing.T) {
	cl := NewClassifier(classifierTrace(t))
	// counts: 0->3, 1->2, 2->2, 3->1; rates /100; median = 2/100.
	if want := 0.02; math.Abs(cl.Median()-want) > 1e-12 {
		t.Errorf("Median = %g, want %g", cl.Median(), want)
	}
	if !cl.IsIn(0) {
		t.Errorf("node 0 should be in")
	}
	if cl.IsIn(1) || cl.IsIn(2) {
		t.Errorf("median-rate nodes should be out")
	}
	if cl.IsIn(3) {
		t.Errorf("node 3 should be out")
	}
	if got := cl.Classify(0, 0); got != InIn {
		t.Errorf("Classify(0,0) = %v", got)
	}
	if got := cl.Classify(0, 3); got != InOut {
		t.Errorf("Classify(0,3) = %v", got)
	}
	if got := cl.Classify(3, 0); got != OutIn {
		t.Errorf("Classify(3,0) = %v", got)
	}
	if got := cl.Classify(1, 3); got != OutOut {
		t.Errorf("Classify(1,3) = %v", got)
	}
}

func TestClassifierSets(t *testing.T) {
	cl := NewClassifier(classifierTrace(t))
	in, out := cl.InNodes(), cl.OutNodes()
	if len(in)+len(out) != 4 {
		t.Fatalf("in+out = %d+%d, want 4 total", len(in), len(out))
	}
	seen := map[NodeID]bool{}
	for _, n := range append(append([]NodeID{}, in...), out...) {
		if seen[n] {
			t.Errorf("node %d in both sets", n)
		}
		seen[n] = true
	}
}

// Property: windowing preserves contact count ordering and all windowed
// contacts lie within [0, windowLen].
func TestWindowPropertyQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var cs []Contact
		for i := 0; i < 50; i++ {
			s := rng.Float64() * 900
			e := s + rng.Float64()*100
			if e > 1000 {
				e = 1000
			}
			a := NodeID(rng.Intn(10))
			b := NodeID(rng.Intn(10))
			if a == b {
				b = (b + 1) % 10
			}
			cs = append(cs, Contact{A: a, B: b, Start: s, End: e})
		}
		tr, err := New("q", 10, 1000, cs)
		if err != nil {
			return false
		}
		from := rng.Float64() * 500
		to := from + 100 + rng.Float64()*400
		w, err := tr.Window("w", from, to)
		if err != nil {
			return false
		}
		for _, c := range w.Contacts() {
			if c.Start < 0 || c.End > w.Horizon || c.End < c.Start {
				return false
			}
		}
		return w.Len() <= tr.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: sum of per-node contact counts is exactly twice the number
// of contact records (each contact has two endpoints).
func TestContactCountsSumProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var cs []Contact
		n := rng.Intn(200)
		for i := 0; i < n; i++ {
			a := NodeID(rng.Intn(20))
			b := NodeID(rng.Intn(20))
			if a == b {
				b = (b + 1) % 20
			}
			s := rng.Float64() * 99
			cs = append(cs, Contact{A: a, B: b, Start: s, End: s + rng.Float64()})
		}
		tr, err := New("q", 20, 101, cs)
		if err != nil {
			return false
		}
		sum := 0
		for _, c := range tr.ContactCounts() {
			sum += c
		}
		return sum == 2*tr.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
