package pathenum

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/tracegen"
)

// firedCancel returns a token that has already fired via its context.
func firedCancel() *engine.Cancel {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cc := engine.NewCancel(ctx, 0)
	return &cc
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
	inert := engine.NewCancel(context.Background(), time.Hour)

	for i, m := range msgs {
		plain, err := enum.Enumerate(m)
		if err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
		withToken, err := enum.enumerate(m, &inert)
		if err != nil {
			t.Fatalf("message %d with token: %v", i, err)
		}
		if resultKey(plain) != resultKey(withToken) {
			t.Fatalf("message %d: result differs under a never-firing token", i)
		}
	}

	plainBatch, err := enum.EnumerateAll(msgs)
	if err != nil {
		t.Fatal(err)
	}
	tokenBatch, err := enum.EnumerateAllCancel(msgs, nil, &inert)
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

	// The single-message call reaches the dynamic program's own
	// checkpoint; the batch below sheds its groups before any runs.
	r, err := enum.enumerate(m, firedCancel())
	if !engine.IsCanceled(err) {
		t.Fatalf("enumerate with fired token: err = %v, want CanceledError", err)
	}
	if r != nil {
		t.Fatal("enumerate returned a result alongside cancellation")
	}

	rs, err := enum.EnumerateAllCancel([]Message{m, m, m}, nil, firedCancel())
	if !engine.IsCanceled(err) {
		t.Fatalf("EnumerateAllCancel with fired token: err = %v, want CanceledError", err)
	}
	if rs != nil {
		t.Fatal("EnumerateAllCancel returned results alongside cancellation")
	}
}

// TestEnumerateCancelStopsPromptly bounds the cancellation latency of
// the amortized in-loop poll: once the deadline is behind it, a batch
// over many messages must abandon well before finishing the work.
func TestEnumerateCancelStopsPromptly(t *testing.T) {
	tr := tracegen.Dev(7)
	rng := rand.New(rand.NewSource(7))
	msgs := sampleMessages(rng, tr, 64)
	enum, err := NewEnumerator(tr, Options{K: 2000, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	cc := engine.NewCancel(nil, time.Nanosecond)
	time.Sleep(time.Millisecond) // deadline is now in the past
	start := time.Now()
	if _, err := enum.EnumerateAllCancel(msgs, nil, &cc); !engine.IsCanceled(err) {
		t.Fatalf("err = %v, want CanceledError", err)
	}
	// Generous bound (CI machines stall); the real latency is the poll
	// interval — a few hundred dynamic-program steps.
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("cancelled batch still took %v", d)
	}
}
