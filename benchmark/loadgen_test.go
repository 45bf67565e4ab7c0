package main

import (
	"bytes"
	"reflect"
	"sync"
	"testing"
	"time"
)

func TestOpenLoopCountsAStalledSendersWaitInLatency(t *testing.T) {
	const stall = 60 * time.Millisecond
	reqs := []request{
		{idx: 0, due: 0},
		{idx: 1, due: 5 * time.Millisecond},
		{idx: 2, due: 10 * time.Millisecond},
	}
	samples := openLoop(reqs, 1, func(r request) result {
		if r.idx == 0 {
			time.Sleep(stall)
		}
		return result{status: 200}
	})
	for _, s := range samples[1:] {
		if s.latency() < stall-s.req.due-time.Millisecond {
			t.Errorf("request %d: latency %v does not include the %v stall ahead of it", s.req.idx, s.latency(), stall)
		}
		if s.queued() < stall-s.req.due-time.Millisecond {
			t.Errorf("request %d: queued %v, want at least %v", s.req.idx, s.queued(), stall-s.req.due)
		}
		if s.late > 20*time.Millisecond {
			t.Errorf("request %d: waiting for the busy sender was counted as %v generator lateness", s.req.idx, s.late)
		}
	}
}

// A phase too short to reach the digested requests runs on until they
// are due, and sends the same requests a long phase starts with.
func TestPoissonDuesReachTheDigestedRequests(t *testing.T) {
	const n = 100
	short := poissonDues(3, serveRate, 100*time.Millisecond, n)
	long := poissonDues(3, serveRate, 10*time.Second, n)
	if len(short) != n || len(long) <= n {
		t.Fatalf("%d requests due in a short phase, %d in a long one; want %d and more than %d", len(short), len(long), n, n)
	}
	if !reflect.DeepEqual(short, long[:n]) {
		t.Error("the short phase's due times are not the long phase's first ones")
	}
	if got := poissonDues(3, serveRate, 10*time.Second, 0); !reflect.DeepEqual(got, long) {
		t.Error("a phase that reaches the digested requests anyway depends on how many there are")
	}
}

// The mix draws every class with about its weight's share.
func TestServeMixFollowsTheWeights(t *testing.T) {
	const n = 8000
	count := make(map[string]int)
	for i := range n {
		count[serveRequest(5, i).class]++
	}
	total := 0
	for _, c := range serveClasses {
		total += c.weight
	}
	for _, c := range serveClasses {
		want := float64(n*c.weight) / float64(total)
		if got := float64(count[c.name]); got < 0.9*want || got > 1.1*want {
			t.Errorf("class %s: %g of %d requests, want about %g", c.name, got, n, want)
		}
	}
}

// received records what a fake server was sent, keyed by request
// index.
type received struct {
	mu   sync.Mutex
	seen map[int][]byte
}

func (rc *received) send(delay time.Duration) func(request) result {
	return func(r request) result {
		time.Sleep(delay)
		rc.mu.Lock()
		rc.seen[r.idx] = r.body
		rc.mu.Unlock()
		return result{status: 200}
	}
}

func TestOpenLoopSendsTheSameRequestsAtAnyServerSpeed(t *testing.T) {
	schedule := func() []request {
		dues := poissonDues(7, 2000, 50*time.Millisecond, 0)
		reqs := make([]request, len(dues))
		for i, due := range dues {
			reqs[i] = serveRequest(7, i)
			reqs[i].due = due
		}
		return reqs
	}
	want := schedule()
	if len(want) < 50 {
		t.Fatalf("only %d requests scheduled", len(want))
	}
	for _, delay := range []time.Duration{0, 2 * time.Millisecond} {
		rc := &received{seen: make(map[int][]byte)}
		openLoop(schedule(), serveSenders, rc.send(delay))
		if len(rc.seen) != len(want) {
			t.Fatalf("server delay %v: %d requests sent, want %d", delay, len(rc.seen), len(want))
		}
		for _, r := range want {
			if !bytes.Equal(rc.seen[r.idx], r.body) {
				t.Fatalf("server delay %v: request %d differs", delay, r.idx)
			}
		}
	}
}

func TestClosedLoopSequenceDoesNotDependOnServerSpeed(t *testing.T) {
	gen := func(i int) request { return serveRequest(11, i) }
	var runs [][]request
	for _, delay := range []time.Duration{0, 3 * time.Millisecond} {
		rc := &received{seen: make(map[int][]byte)}
		samples, _ := closedLoop(30*time.Millisecond, serveSenders, gen, rc.send(delay))
		var got []request
		for i, s := range samples {
			if s.req.idx != i {
				t.Fatalf("server delay %v: sample %d is request %d; indices must run 0, 1, 2, …", delay, i, s.req.idx)
			}
			got = append(got, s.req)
		}
		runs = append(runs, got)
	}
	fast, slow := runs[0], runs[1]
	if len(slow) == 0 || len(fast) <= len(slow) {
		t.Fatalf("fast server completed %d requests, slow %d", len(fast), len(slow))
	}
	if !reflect.DeepEqual(fast[:len(slow)], slow) {
		t.Error("the slow run's requests are not a prefix of the fast run's")
	}
}
