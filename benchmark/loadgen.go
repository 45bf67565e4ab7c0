package main

import (
	"math"
	"math/rand/v2"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// request is one request of a generated load.
type request struct {
	idx     int
	due     time.Duration // since the phase started; open loop only
	class   string
	path    string
	body    []byte
	payload any // the request before encoding, for the direct call
}

// result is what sending one request returned. err covers transport
// errors and responses the sender found malformed.
type result struct {
	status int
	body   []byte
	err    error
}

// sample is one sent request and what happened to it. Times run from
// the start of the phase.
type sample struct {
	req        request
	sent, done time.Duration
	// late is how far past the moment it could have sent the request
	// the generator sent it: the later of the request's due time and
	// the moment its sender became free. Waiting for a free sender is
	// queueing, which the latency counts; late is the generator's own
	// delay, which must stay small for the latencies to mean anything.
	late time.Duration
	result
}

// latency runs from the due time, so time spent queued behind busy
// senders counts.
func (s sample) latency() time.Duration { return s.done - s.req.due }

func (s sample) queued() time.Duration { return s.sent - s.req.due }

// poissonDues draws the due times of a Poisson arrival process at rate
// per second from its own stream, so the number of requests in a phase
// depends only on the seed. It draws over [0, d), and on past d until
// at least n requests are due, so that a short phase still sends the n
// requests whose replies are digested.
func poissonDues(seed int64, rate float64, d time.Duration, n int) []time.Duration {
	rng := rand.New(rand.NewPCG(uint64(seed), math.MaxUint64))
	var dues []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		due := time.Duration(t * float64(time.Second))
		if due >= d && len(dues) >= n {
			return dues
		}
		dues = append(dues, due)
	}
}

// openLoop sends reqs, sorted by due time, with at most senders
// requests in flight. A free sender takes the next request and sends
// it at its due time, or at once if that has passed; it never waits
// for a reply to decide when to send, so a slow server faces the same
// arrivals as a fast one and its stalls show in later latencies.
func openLoop(reqs []request, senders int, send func(request) result) []sample {
	out := make([]sample, len(reqs))
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < senders; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var free time.Duration
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				r := reqs[i]
				if wait := r.due - time.Since(start); wait > 0 {
					time.Sleep(wait)
				}
				sent := time.Since(start)
				res := send(r)
				done := time.Since(start)
				out[i] = sample{req: r, sent: sent, done: done, late: sent - max(r.due, free), result: res}
				free = done
			}
		}()
	}
	wg.Wait()
	return out
}

// closedLoop keeps senders requests in flight, each sender sending the
// next request, built by gen from its index, as soon as its previous
// one completes, until d has passed. It returns the samples in index
// order and the time until the last reply.
func closedLoop(d time.Duration, senders int, gen func(i int) request, send func(request) result) ([]sample, time.Duration) {
	var next atomic.Int64
	start := time.Now()
	per := make([][]sample, senders)
	var wg sync.WaitGroup
	for w := 0; w < senders; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for time.Since(start) < d {
				r := gen(int(next.Add(1) - 1))
				sent := time.Since(start)
				res := send(r)
				per[w] = append(per[w], sample{req: r, sent: sent, done: time.Since(start), result: res})
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var out []sample
	for _, s := range per {
		out = append(out, s...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].req.idx < out[j].req.idx })
	return out, elapsed
}
