package pathenum

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/tracegen"
)

// firedCtx returns a call context whose token has already fired via
// its context.
func firedCtx() *engine.Ctx {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cx := engine.NewCtx(ctx, 0, nil)
	return &cx
}

// TestEnumerateCancelEquivalence pins the cancellation side of the
// determinism contract: a token that never fires leaves every result —
// single-message and batch — byte-identical to the uncancellable (nil
// token) run.
func TestEnumerateCancelEquivalence(t *testing.T) {
	tr := tracegen.Dev(3)
	rng := rand.New(rand.NewSource(99))
	msgs := sampleMessages(rng, tr, 10)

	enum, err := NewEnumerator(tr, Options{K: 150})
	if err != nil {
		t.Fatal(err)
	}
	inert := engine.NewCtx(context.Background(), time.Hour, nil)

	for i, m := range msgs {
		plain, err := enum.Enumerate(m)
		if err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
		withToken, err := enum.EnumerateAll([]Message{m}, &inert)
		if err != nil {
			t.Fatalf("message %d with token: %v", i, err)
		}
		if resultKey(plain) != resultKey(withToken[0]) {
			t.Fatalf("message %d: result differs under a never-firing token", i)
		}
	}

	plainBatch, err := enum.EnumerateAll(msgs, nil)
	if err != nil {
		t.Fatal(err)
	}
	tokenBatch, err := enum.EnumerateAll(msgs, &inert)
	if err != nil {
		t.Fatal(err)
	}
	for i := range plainBatch {
		if resultKey(plainBatch[i]) != resultKey(tokenBatch[i]) {
			t.Fatalf("batch result %d differs under a never-firing token", i)
		}
	}
}

// TestEnumerateCancelAbandons pins the other half of the contract: a
// fired token abandons with a *engine.CanceledError and no result.
func TestEnumerateCancelAbandons(t *testing.T) {
	tr := tracegen.Dev(3)
	enum, err := NewEnumerator(tr, Options{K: 150})
	if err != nil {
		t.Fatal(err)
	}
	m := Message{Src: 0, Dst: 17, Start: 0}

	// A group run directly reaches the dynamic program's own
	// checkpoint; the batch below sheds its groups before any runs.
	out := make([]*Result, 1)
	err = enum.enumerateGroup(m.Src, enum.g.StepOf(m.Start), []int{0}, []Message{m}, out, firedCtx())
	if !engine.IsCanceled(err) {
		t.Fatalf("group with fired token: err = %v, want CanceledError", err)
	}
	if out[0] != nil {
		t.Fatal("group materialized a result alongside cancellation")
	}

	rs, err := enum.EnumerateAll([]Message{m, m, m}, firedCtx())
	if !engine.IsCanceled(err) {
		t.Fatalf("EnumerateAll with fired token: err = %v, want CanceledError", err)
	}
	if rs != nil {
		t.Fatal("EnumerateAll returned results alongside cancellation")
	}
}

// TestEnumerateCancelStopsPromptly: once the deadline is behind it, a
// batch over many messages must abandon well before finishing the
// work. Its groups are shed before their dynamic programs start;
// TestStepCancelCheckpoints pins the programs' own checkpoints.
func TestEnumerateCancelStopsPromptly(t *testing.T) {
	tr := tracegen.Dev(7)
	rng := rand.New(rand.NewSource(7))
	msgs := sampleMessages(rng, tr, 64)
	enum, err := NewEnumerator(tr, Options{K: 2000, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	cx := engine.NewCtx(nil, time.Nanosecond, nil)
	time.Sleep(time.Millisecond) // deadline is now in the past
	start := time.Now()
	if _, err := enum.EnumerateAll(msgs, &cx); !engine.IsCanceled(err) {
		t.Fatalf("err = %v, want CanceledError", err)
	}
	// Generous bound (CI machines stall); the real latency is the poll
	// interval — a few hundred dynamic-program steps.
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("cancelled batch still took %v", d)
	}
}

// TestEnumerateAllRecordsEnumStages: a batch under a traced context
// records enum_prefix and enum_fork, and no other stage.
func TestEnumerateAllRecordsEnumStages(t *testing.T) {
	tr := tracegen.Dev(3)
	enum, err := NewEnumerator(tr, Options{K: 150})
	if err != nil {
		t.Fatal(err)
	}
	var ot obs.Trace
	cx := engine.NewCtx(nil, 0, &ot)
	if _, err := enum.EnumerateAll(sampleMessages(rand.New(rand.NewSource(99)), tr, 10), &cx); err != nil {
		t.Fatal(err)
	}
	for s := obs.Stage(0); int(s) < obs.NumStages; s++ {
		want := s == obs.StageEnumPrefix || s == obs.StageEnumFork
		if got := ot.StageNs(s) > 0; got != want {
			t.Errorf("stage %s recorded = %v, want %v", s, got, want)
		}
	}
}

// pollCtx is a context whose Err reports Canceled from its fireAt-th
// call on, so a test can fire a token between two checkpoints.
type pollCtx struct {
	context.Context
	calls, fireAt int
}

func (c *pollCtx) Done() <-chan struct{} { return make(chan struct{}) }

func (c *pollCtx) Err() error {
	if c.calls++; c.calls >= c.fireAt {
		return context.Canceled
	}
	return nil
}

// TestStepCancelCheckpoints pins the dynamic program's own
// checkpoints, which the group's re-poll of the token would hide: a
// step whose token has fired reports "finished" at its boundary, and
// one whose token fires after the boundary poll stops at the next
// 512-root checkpoint instead of running to its end.
func TestStepCancelCheckpoints(t *testing.T) {
	// 600 nodes, all in contact at step 0, put root 511 in the step.
	const n = 600
	var cs []trace.Contact
	for i := 0; i+1 < n; i += 2 {
		cs = append(cs, trace.Contact{A: trace.NodeID(i), B: trace.NodeID(i + 1), Start: 0, End: 100})
	}
	tr, err := trace.New("checkpoints", n, 100, cs)
	if err != nil {
		t.Fatal(err)
	}
	enum, err := NewEnumerator(tr, Options{K: 50})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		fireAt int
	}{{"step boundary", 1}, {"root 511", 2}} {
		pc := &pollCtx{Context: context.Background(), fireAt: tc.fireAt}
		cx := engine.NewCtx(pc, 0, nil)
		sc := enum.getScratch()
		sc.prepare()
		enum.seed(sc, 0, 0)
		sc.cx = &cx
		// A destination-free step finishes only when cancelled.
		if !enum.step(sc, 0, -1, &Result{}) {
			t.Errorf("%s: the step ran to its end after the token fired", tc.name)
		}
		if pc.calls != tc.fireAt {
			t.Errorf("%s: token polled %d times, want %d", tc.name, pc.calls, tc.fireAt)
		}
	}
}
