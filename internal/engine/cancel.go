package engine

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/obs"
)

// CanceledError reports that a computation stopped at a cooperative
// cancellation checkpoint before completing. Cause is the triggering
// condition: context.Canceled when the caller (e.g. a disconnected
// HTTP client) gave up, context.DeadlineExceeded when a deadline
// passed. It unwraps to Cause, so errors.Is(err, context.Canceled)
// and errors.Is(err, context.DeadlineExceeded) distinguish the two.
type CanceledError struct {
	Cause error
}

func (e *CanceledError) Error() string {
	return fmt.Sprintf("engine: computation canceled: %v", e.Cause)
}

func (e *CanceledError) Unwrap() error { return e.Cause }

// IsCanceled reports whether err is (or wraps) a CanceledError.
func IsCanceled(err error) bool {
	var ce *CanceledError
	return errors.As(err, &ce)
}

// Ctx is the call context threaded through the compute layers
// (stgraph's graph build, pathenum's dynamic program, dtnsim's event
// replay): a cooperative cancellation token plus the stage trace the
// layers record their spans into. The token combines two stop
// conditions — a context (client disconnect) and a wall-clock
// deadline (request timeout) — behind one amortized poll, with no
// watcher goroutine and no per-request timer: Stopped reads ctx.Err()
// and the clock only when called, so callers poll it every few
// thousand work units and pay nanoseconds per check.
//
// A nil *Ctx (and the zero value) is fully inert: Stopped is one
// pointer/field check, Err returns nil, Wait blocks until done, and
// Start returns an inert span without reading the clock.
//
// Cancellation never changes results: a computation either completes
// — byte-identical to one run without a token — or abandons with a
// CanceledError and no result at all. Both stop conditions are
// monotonic, so a layer re-polls Stopped after a loop to learn whether
// a checkpoint inside it saw the token fire.
type Ctx struct {
	ctx      context.Context // optional; nil means no context condition
	deadline time.Time       // optional; zero means no deadline
	trace    *obs.Trace      // optional; nil records no spans
}

// NewCtx builds a call context that stops when ctx is done or, when
// timeout is positive, after timeout elapses from now, and records
// stage spans into tr. A nil ctx, a non-positive timeout and a nil tr
// yield an inert context.
func NewCtx(ctx context.Context, timeout time.Duration, tr *obs.Trace) Ctx {
	c := Ctx{trace: tr}
	if ctx != nil && ctx.Done() != nil {
		c.ctx = ctx
	}
	if timeout > 0 {
		c.deadline = time.Now().Add(timeout)
	}
	return c
}

// Start opens a span for stage s on the context's trace. On a nil Ctx
// or one without a trace it returns an inert span and does not read
// the clock.
func (c *Ctx) Start(s obs.Stage) obs.Span {
	if c == nil {
		return obs.Span{}
	}
	return c.trace.Start(s)
}

// Stopped reports whether the token has fired. It is the amortized
// poll for hot loops: a nil or inert receiver costs a branch; a live
// one costs a ctx.Err() load and at most one clock read.
func (c *Ctx) Stopped() bool {
	if c == nil {
		return false
	}
	if c.ctx != nil && c.ctx.Err() != nil {
		return true
	}
	return !c.deadline.IsZero() && time.Now().After(c.deadline)
}

// Err returns nil while the token has not fired, and a *CanceledError
// wrapping the triggering cause once it has. The context condition
// wins ties, so a request that disconnected and timed out reports the
// disconnect.
func (c *Ctx) Err() error {
	if c == nil {
		return nil
	}
	if c.ctx != nil {
		if cause := c.ctx.Err(); cause != nil {
			return &CanceledError{Cause: cause}
		}
	}
	if !c.deadline.IsZero() && time.Now().After(c.deadline) {
		return &CanceledError{Cause: context.DeadlineExceeded}
	}
	return nil
}

// FiredErr is Err for callers whose checkpoint already observed the
// token fire: unlike Err it never returns nil, falling back to a
// DeadlineExceeded cause if the conditions cannot be re-observed (a
// defensive path; both conditions are monotonic once fired). It keeps
// "canceled computation, nil error" unrepresentable at abandon sites.
func (c *Ctx) FiredErr() error {
	if err := c.Err(); err != nil {
		return err
	}
	return &CanceledError{Cause: context.DeadlineExceeded}
}

// Wait blocks until done closes or the token fires, returning nil in
// the first case and the token's Err in the second. It is how
// singleflight waiters (cache fills, registry builds) respect request
// cancellation without aborting the shared computation they joined:
// the leader keeps computing for everyone else. The already-closed
// fast path costs no timer; a live deadline allocates one only while
// actually blocking.
func (c *Ctx) Wait(done <-chan struct{}) error {
	select {
	case <-done:
		return nil
	default:
	}
	if c == nil || (c.ctx == nil && c.deadline.IsZero()) {
		<-done
		return nil
	}
	var ctxDone <-chan struct{}
	if c.ctx != nil {
		ctxDone = c.ctx.Done()
	}
	var timer *time.Timer
	var expired <-chan time.Time
	if !c.deadline.IsZero() {
		timer = time.NewTimer(time.Until(c.deadline))
		defer timer.Stop()
		expired = timer.C
	}
	select {
	case <-done:
		return nil
	case <-ctxDone:
		return &CanceledError{Cause: c.ctx.Err()}
	case <-expired:
		return &CanceledError{Cause: context.DeadlineExceeded}
	}
}
