package engine

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestCancelNilAndZeroAreInert(t *testing.T) {
	var nilCX *Ctx
	var zero Ctx
	for _, tc := range []struct {
		name string
		cx   *Ctx
	}{
		{"nil", nilCX},
		{"zero", &zero},
	} {
		if tc.cx.Stopped() {
			t.Errorf("%s context: Stopped() = true, want false", tc.name)
		}
		if err := tc.cx.Err(); err != nil {
			t.Errorf("%s context: Err() = %v, want nil", tc.name, err)
		}
		done := make(chan struct{})
		close(done)
		if err := tc.cx.Wait(done); err != nil {
			t.Errorf("%s context: Wait(closed) = %v, want nil", tc.name, err)
		}
		// A span on an inert context holds no trace and no start time,
		// and opening and closing one allocates nothing.
		if sp := tc.cx.Start(obs.StageEnumFork); sp != (obs.Span{}) {
			t.Errorf("%s context: Start returned a live span %+v", tc.name, sp)
		}
		if n := testing.AllocsPerRun(100, func() { tc.cx.Start(obs.StageSimRun).End() }); n != 0 {
			t.Errorf("%s context: Start(s).End() allocates %v, want 0", tc.name, n)
		}
	}
	// FiredErr never returns nil, even on an inert context.
	if err := nilCX.FiredErr(); !IsCanceled(err) {
		t.Errorf("nil FiredErr() = %v, want a CanceledError", err)
	}
	// A context with a trace records into it.
	var tr obs.Trace
	cx := NewCtx(nil, 0, &tr)
	sp := cx.Start(obs.StageSimRun)
	time.Sleep(time.Millisecond)
	sp.End()
	if tr.StageNs(obs.StageSimRun) <= 0 {
		t.Error("a span on a traced context recorded nothing")
	}
}

func TestNewCancelDropsInertConditions(t *testing.T) {
	// context.Background has a nil Done channel: no condition to watch.
	cx := NewCtx(context.Background(), 0, nil)
	if cx.ctx != nil || !cx.deadline.IsZero() {
		t.Errorf("NewCtx(Background, 0) kept conditions: ctx=%v deadline=%v", cx.ctx, cx.deadline)
	}
	cx = NewCtx(nil, -time.Second, nil)
	if cx.ctx != nil || !cx.deadline.IsZero() {
		t.Error("NewCtx(nil, negative) is not inert")
	}
}

func TestCancelDeadlineFires(t *testing.T) {
	cc := NewCtx(nil, time.Nanosecond, nil)
	time.Sleep(2 * time.Millisecond)
	if !cc.Stopped() {
		t.Fatal("deadline passed but Stopped() = false")
	}
	err := cc.Err()
	if !IsCanceled(err) {
		t.Fatalf("Err() = %v, want CanceledError", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("Err() cause = %v, want DeadlineExceeded", err)
	}
}

func TestCancelContextFires(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cc := NewCtx(ctx, 0, nil)
	if cc.Stopped() {
		t.Fatal("Stopped() before cancel")
	}
	cancel()
	if !cc.Stopped() {
		t.Fatal("Stopped() = false after context cancel")
	}
	if err := cc.Err(); !errors.Is(err, context.Canceled) {
		t.Errorf("Err() = %v, want cause context.Canceled", err)
	}
}

func TestCancelContextWinsTies(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cc := NewCtx(ctx, time.Nanosecond, nil)
	time.Sleep(2 * time.Millisecond) // both conditions have fired
	if err := cc.Err(); !errors.Is(err, context.Canceled) {
		t.Errorf("Err() = %v, want the context cause to win", err)
	}
}

func TestCancelWait(t *testing.T) {
	// Unfired deadline: Wait blocks until done closes.
	cc := NewCtx(nil, time.Hour, nil)
	done := make(chan struct{})
	go func() {
		time.Sleep(5 * time.Millisecond)
		close(done)
	}()
	if err := cc.Wait(done); err != nil {
		t.Fatalf("Wait with future deadline = %v, want nil", err)
	}

	// Fired deadline, done never closes: Wait returns promptly.
	cc = NewCtx(nil, time.Nanosecond, nil)
	time.Sleep(2 * time.Millisecond)
	start := time.Now()
	err := cc.Wait(make(chan struct{}))
	if !IsCanceled(err) {
		t.Fatalf("Wait with expired deadline = %v, want CanceledError", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("Wait took %v to notice an expired deadline", d)
	}

	// Context cancellation unblocks Wait mid-block.
	ctx, cancel := context.WithCancel(context.Background())
	cc = NewCtx(ctx, 0, nil)
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	if err := cc.Wait(make(chan struct{})); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait under context cancel = %v, want cause Canceled", err)
	}
}

func TestIsCanceledWrapped(t *testing.T) {
	inner := &CanceledError{Cause: context.DeadlineExceeded}
	wrapped := errors.Join(errors.New("outer"), inner)
	if !IsCanceled(wrapped) {
		t.Error("IsCanceled misses a wrapped CanceledError")
	}
	if IsCanceled(errors.New("plain")) {
		t.Error("IsCanceled accepts a plain error")
	}
	if IsCanceled(nil) {
		t.Error("IsCanceled accepts nil")
	}
}

// TestMapWorkersPanicPropagates pins the panic-isolation contract: a
// panic on a worker goroutine surfaces on the caller's goroutine as a
// *PanicError carrying the original value and the worker's stack, and
// every other item still runs (workers drain the queue before the
// panic is re-raised).
func TestMapWorkersPanicPropagates(t *testing.T) {
	const workers = 4
	seen := make([]bool, 64)
	var pe *PanicError
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("panic did not propagate")
			}
			var ok bool
			pe, ok = r.(*PanicError)
			if !ok {
				t.Fatalf("recovered %T, want *PanicError", r)
			}
		}()
		MapWorkers(workers, len(seen), func(w, i int) {
			seen[i] = true
			if i == 17 {
				panic("boom at 17")
			}
		})
	}()
	if pe.Value != "boom at 17" {
		t.Errorf("PanicError.Value = %v", pe.Value)
	}
	if !strings.Contains(string(pe.Stack), "goroutine") {
		t.Errorf("PanicError.Stack missing a stack trace")
	}
	if !strings.Contains(pe.Error(), "boom at 17") {
		t.Errorf("Error() = %q does not name the panic", pe.Error())
	}
	for i, s := range seen {
		if !s {
			t.Fatalf("item %d never ran despite panic isolation", i)
		}
	}
}

// With one worker everything runs inline, so a panic propagates raw on
// the caller's goroutine — no wrapping, exactly like a serial loop.
func TestMapWorkersSerialPanicIsRaw(t *testing.T) {
	defer func() {
		if r := recover(); r != "serial boom" {
			t.Fatalf("recovered %v, want the raw panic value", r)
		}
	}()
	MapWorkers(1, 4, func(w, i int) {
		if i == 2 {
			panic("serial boom")
		}
	})
	t.Fatal("unreachable")
}
