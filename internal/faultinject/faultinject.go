// Package faultinject is the fault-injection layer behind the serving
// stack's chaos tests and the psn-serve -inject flag: named injection
// points scattered through the request path (graph and oracle builds,
// compute stages, handlers) consult an Injector that is nil in
// production, so every point costs one pointer check unless faults are
// explicitly armed — the same nil-inert discipline as obs.Trace.
//
// A point fires at most its configured count of times (unlimited by
// default), and each firing can return an error, panic, sleep, or any
// combination — enough to simulate failing builds, slow stages and
// crashing handlers without touching the code under test.
package faultinject

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/engine"
)

// The injection points the serving layer fires: the graph and oracle
// builds, the compute stages, and the handler envelope. Parse accepts
// only these names.
const (
	PointGraphBuild  = "graph-build"
	PointOracleBuild = "oracle-build"
	PointEnumerate   = "enumerate"
	PointSimulate    = "simulate"
	PointHandler     = "handler"
)

var points = []string{
	PointGraphBuild, PointOracleBuild, PointEnumerate, PointSimulate, PointHandler,
}

// ErrInjected is the error an `err` fault returns from FireCancel.
// Callers under test treat it like any other failure of the faulted
// operation.
var ErrInjected = errors.New("faultinject: injected error")

// Fault describes what happens when an armed point fires. Zero fields
// are inert; non-zero ones all apply, in order: Delay first, then
// Panic, then Err.
type Fault struct {
	Err   error         // returned from FireCancel
	Panic string        // panic raised with this message
	Delay time.Duration // sleep before panicking/returning
	Count int           // firings before the point disarms; 0 = unlimited
}

// Injector holds the armed faults of one test or process. A nil
// *Injector is fully inert: every FireCancel returns nil immediately.
// The zero value is ready to use, and all methods are safe for
// concurrent callers.
type Injector struct {
	mu     sync.Mutex
	points map[string]*pointState
}

type pointState struct {
	fault Fault
	left  int // remaining firings; -1 = unlimited
}

// New returns an empty Injector.
func New() *Injector { return &Injector{} }

// Set arms (or re-arms) point with f.
func (in *Injector) Set(point string, f Fault) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.points == nil {
		in.points = make(map[string]*pointState)
	}
	left := -1
	if f.Count > 0 {
		left = f.Count
	}
	in.points[point] = &pointState{fault: f, left: left}
}

// Clear disarms point.
func (in *Injector) Clear(point string) {
	in.mu.Lock()
	defer in.mu.Unlock()
	delete(in.points, point)
}

// take consumes one firing of point, reporting whether it fired.
func (in *Injector) take(point string) (Fault, bool) {
	if in == nil {
		return Fault{}, false
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	st := in.points[point]
	if st == nil || st.left == 0 {
		return Fault{}, false
	}
	if st.left > 0 {
		st.left--
	}
	return st.fault, true
}

// FireCancel triggers point if armed: sleeps the fault's delay, raises
// its panic, and returns its error. A nil receiver or unarmed point
// returns nil without blocking. A fired cc cuts the sleep short and
// FireCancel returns cc's *engine.CanceledError instead of the fault's
// own outcome — exactly what a slow real stage under a request
// deadline would do; a nil cc is inert.
func (in *Injector) FireCancel(point string, cc *engine.Cancel) error {
	f, ok := in.take(point)
	if !ok {
		return nil
	}
	if f.Delay > 0 {
		if err := sleep(f.Delay, cc); err != nil {
			return err
		}
	}
	if f.Panic != "" {
		panic(fmt.Sprintf("faultinject: %s: %s", point, f.Panic))
	}
	if f.Err != nil {
		return fmt.Errorf("%s: %w", point, f.Err)
	}
	return nil
}

// sleep blocks for d or until cc fires, whichever comes first. cc has
// no channel to select on (its deadline is a plain wall-clock value),
// so the wait polls it every few milliseconds — injection points are
// never on a hot path, and the bound on cancellation latency is what
// the chaos tests measure.
func sleep(d time.Duration, cc *engine.Cancel) error {
	deadline := time.Now().Add(d)
	for {
		if err := cc.Err(); err != nil {
			return err
		}
		remaining := time.Until(deadline)
		if remaining <= 0 {
			return nil
		}
		time.Sleep(min(remaining, 5*time.Millisecond))
	}
}

// Parse builds an Injector from a -inject flag spec: a comma-separated
// list of point:action items, where point is one of the Point*
// constants and action is one of
//
//	err          return ErrInjected
//	panic        panic
//	delay=DUR    sleep DUR (Go duration syntax, e.g. 50ms)
//
// optionally suffixed *N to disarm after N firings, e.g.
//
//	graph-build:err*1,enumerate:delay=200ms,handler:panic
//
// An empty spec returns a nil (inert) Injector. An unknown point name
// is an error: arming a point nothing fires would inject nothing.
func Parse(spec string) (*Injector, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	in := New()
	for _, item := range strings.Split(spec, ",") {
		item = strings.TrimSpace(item)
		point, action, ok := strings.Cut(item, ":")
		if !ok || point == "" || action == "" {
			return nil, fmt.Errorf("faultinject: bad item %q, want point:action", item)
		}
		if !slices.Contains(points, point) {
			return nil, fmt.Errorf("faultinject: unknown point %q in %q (have %s)", point, item, strings.Join(points, ", "))
		}
		var f Fault
		if a, countStr, ok := strings.Cut(action, "*"); ok {
			n, err := parseCount(countStr)
			if err != nil {
				return nil, fmt.Errorf("faultinject: %s: %w", item, err)
			}
			f.Count = n
			action = a
		}
		switch {
		case action == "err":
			f.Err = ErrInjected
		case action == "panic":
			f.Panic = "injected panic"
		case strings.HasPrefix(action, "delay="):
			d, err := time.ParseDuration(strings.TrimPrefix(action, "delay="))
			if err != nil {
				return nil, fmt.Errorf("faultinject: %s: %w", item, err)
			}
			f.Delay = d
		default:
			return nil, fmt.Errorf("faultinject: unknown action %q in %q", action, item)
		}
		in.Set(point, f)
	}
	return in, nil
}

func parseCount(s string) (int, error) {
	n := 0
	if s == "" {
		return 0, fmt.Errorf("empty count")
	}
	for _, r := range s {
		if r < '0' || r > '9' {
			return 0, fmt.Errorf("bad count %q", s)
		}
		n = n*10 + int(r-'0')
	}
	if n == 0 {
		return 0, fmt.Errorf("count must be positive")
	}
	return n, nil
}
