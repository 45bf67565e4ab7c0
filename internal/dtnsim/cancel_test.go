package dtnsim

import (
	"context"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/forward"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/tracegen"
)

func cancelTestMessages(tr *trace.Trace, n int, seed int64) []Message {
	rng := rand.New(rand.NewSource(seed))
	msgs := make([]Message, n)
	for i := range msgs {
		src := trace.NodeID(rng.Intn(tr.NumNodes))
		dst := trace.NodeID(rng.Intn(tr.NumNodes - 1))
		if dst >= src {
			dst++
		}
		msgs[i] = Message{Src: src, Dst: dst, Start: rng.Float64() * tr.Horizon / 2}
	}
	return msgs
}

// TestRunCancelEquivalence: a never-firing token leaves the Result
// byte-identical to a run without one, serial and parallel.
func TestRunCancelEquivalence(t *testing.T) {
	tr := tracegen.Dev(5)
	msgs := cancelTestMessages(tr, 40, 5)
	inert := engine.NewCtx(context.Background(), time.Hour, nil)

	for _, workers := range []int{1, 4} {
		base := Config{Trace: tr, Algorithm: forward.Epidemic{}, Messages: msgs, Workers: workers}
		plain, err := Run(base)
		if err != nil {
			t.Fatal(err)
		}
		withToken := base
		withToken.Ctx = &inert
		tokenRes, err := Run(withToken)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(plain, tokenRes) {
			t.Fatalf("workers=%d: Result differs under a never-firing token", workers)
		}
	}
}

// TestRunCancelAbandons: a fired token abandons the replay with a
// *engine.CanceledError and no Result.
func TestRunCancelAbandons(t *testing.T) {
	tr := tracegen.Dev(5)
	msgs := cancelTestMessages(tr, 40, 5)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cx := engine.NewCtx(ctx, 0, nil)

	for _, workers := range []int{1, 4} {
		r, err := Run(Config{
			Trace: tr, Algorithm: forward.Epidemic{}, Messages: msgs,
			Workers: workers, Ctx: &cx,
		})
		if !engine.IsCanceled(err) {
			t.Fatalf("workers=%d: err = %v, want CanceledError", workers, err)
		}
		if r != nil {
			t.Fatalf("workers=%d: Run returned a Result alongside cancellation", workers)
		}
	}
}

// TestSweepCancelEquivalence covers the pooled path the serving layer
// actually uses: Sweep.Run with and without an inert token agree, and
// a fired token abandons without poisoning the pooled sim state (the
// next uncancelled run over the same Sweep still matches).
func TestSweepCancelEquivalence(t *testing.T) {
	tr := tracegen.Dev(5)
	msgs := cancelTestMessages(tr, 40, 5)
	sw, err := NewSweep(tr)
	if err != nil {
		t.Fatal(err)
	}
	base := Config{Trace: tr, Algorithm: forward.Epidemic{}, Messages: msgs}
	plain, err := sw.Run(base)
	if err != nil {
		t.Fatal(err)
	}

	inert := engine.NewCtx(context.Background(), time.Hour, nil)
	cfg := base
	cfg.Ctx = &inert
	tokenRes, err := sw.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, tokenRes) {
		t.Fatal("Sweep.Run differs under a never-firing token")
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	fired := engine.NewCtx(ctx, 0, nil)
	cfg.Ctx = &fired
	if r, err := sw.Run(cfg); !engine.IsCanceled(err) || r != nil {
		t.Fatalf("fired token: r=%v err=%v, want nil result + CanceledError", r, err)
	}

	again, err := sw.Run(base)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, again) {
		t.Fatal("Result after an abandoned run differs — pooled state poisoned")
	}
}

// TestSweepRunRecordsSimRun: a run under a traced context records
// sim_run, and no other stage.
func TestSweepRunRecordsSimRun(t *testing.T) {
	tr := tracegen.Dev(5)
	sw, err := NewSweep(tr)
	if err != nil {
		t.Fatal(err)
	}
	var ot obs.Trace
	cx := engine.NewCtx(nil, 0, &ot)
	if _, err := sw.Run(Config{Algorithm: forward.Epidemic{}, Messages: cancelTestMessages(tr, 40, 5), Ctx: &cx}); err != nil {
		t.Fatal(err)
	}
	for s := obs.Stage(0); int(s) < obs.NumStages; s++ {
		if got, want := ot.StageNs(s) > 0, s == obs.StageSimRun; got != want {
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

// TestReplayCancelCheckpoints pins the replay's own checkpoints, which
// Sweep.Run's re-poll of the token would hide: a token fired before
// the replay stops it at entry, before any transfer, and one that
// fires after the entry poll stops it at the next 4,096-event
// checkpoint, short of the full replay.
func TestReplayCancelCheckpoints(t *testing.T) {
	tr, err := tracegen.Generate(tracegen.Infocom0912) // 27,010 contact events
	if err != nil {
		t.Fatal(err)
	}
	sw, err := NewSweep(tr)
	if err != nil {
		t.Fatal(err)
	}
	msgs := Workload(tr, 0.03, tr.Horizon, 1)
	sent := func(fireAt int) int {
		var cx *engine.Ctx
		if fireAt > 0 {
			c := engine.NewCtx(&pollCtx{Context: context.Background(), fireAt: fireAt}, 0, nil)
			cx = &c
		}
		s := sw.acquire(1)[0]
		defer sw.release(s)
		s.reset(forward.Epidemic{}, Replicate, sw.oracle, msgs, 0, 1, make([]Outcome, len(msgs)))
		s.cx = cx
		s.run(sw.oracle.events)
		return s.sent
	}
	full := sent(0)
	if got := sent(1); got != 0 {
		t.Errorf("token fired before the replay: %d transfers, want 0", got)
	}
	if got := sent(2); got == 0 || got >= full {
		t.Errorf("token fired after the entry poll: %d transfers, want some but fewer than the full replay's %d", got, full)
	}
}
