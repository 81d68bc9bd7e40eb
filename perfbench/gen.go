package main

import (
	"context"
	"errors"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Request is one generated request: when it is due, relative to the start
// of its phase, which operation it is, and the seed its parameters are
// drawn from. The program under test sees only what a workload derives
// from these three fields.
type Request struct {
	Due  time.Duration
	Kind int
	Seed int64
}

// Stream is one Poisson arrival process of a schedule: Rate requests per
// second, each drawing its kind from Kinds with the matching Weights.
type Stream struct {
	Rate    float64
	Kinds   []int
	Weights []float64
}

// Schedule draws the requests of every stream over d and merges them by due
// time. The same seed gives the same schedule.
func Schedule(seed int64, d time.Duration, streams ...Stream) []Request {
	var out []Request
	for si, s := range streams {
		if s.Rate <= 0 {
			continue
		}
		rng := rand.New(rand.NewSource(seed*7919 + int64(si)))
		total := 0.0
		for _, w := range s.Weights {
			total += w
		}
		for t := rng.ExpFloat64() / s.Rate; ; t += rng.ExpFloat64() / s.Rate {
			due := time.Duration(t * float64(time.Second))
			if due >= d {
				break
			}
			out = append(out, Request{Due: due, Kind: pickKind(rng, s, total), Seed: rng.Int63()})
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Due < out[j].Due })
	return out
}

func pickKind(rng *rand.Rand, s Stream, total float64) int {
	x := rng.Float64() * total
	for i, w := range s.Weights {
		if x < w {
			return s.Kinds[i]
		}
		x -= w
	}
	return s.Kinds[len(s.Kinds)-1]
}

// ErrUnfinished marks a request still running when its phase ended.
var ErrUnfinished = errors.New("request unfinished at phase end")

// Outcome is what happened to one request. Times are relative to the start
// of the phase.
type Outcome struct {
	Sent     time.Duration // when the generator dispatched it
	Done     time.Duration // when it returned
	Err      error         // nil on success; ErrUnfinished if cut off
	InFlight int32         // requests in flight, this one included, at dispatch
}

// Latency is the request's latency counted from when it was due, so a
// stall also charges the wait it imposes on later requests.
func (o Outcome) Latency(r Request) time.Duration { return o.Done - r.Due }

// Late is how long after its due time the generator sent the request.
func (o Outcome) Late(r Request) time.Duration { return o.Sent - r.Due }

// PhaseResult holds one open-loop phase.
type PhaseResult struct {
	Start   time.Time // when the phase began; request times count from here
	Reqs    []Request
	Out     []Outcome
	Elapsed time.Duration // from the phase start until every request returned
}

// Failed counts the requests that erred or were cut off.
func (p *PhaseResult) Failed() int {
	n := 0
	for _, o := range p.Out {
		if o.Err != nil {
			n++
		}
	}
	return n
}

// RunOpenLoop sends every request at its due time, whatever happened to the
// earlier ones: a saturated target gets a growing queue, never a dropped
// request. Each request runs on its own goroutine. At the last due time plus
// drain the phase ends: do's context is cancelled and every request not yet
// returned is counted as failed with ErrUnfinished. RunOpenLoop returns once
// every goroutine it started has returned, so do must honour cancellation.
// do receives each request with its index in reqs.
func RunOpenLoop(ctx context.Context, reqs []Request, drain time.Duration, do func(ctx context.Context, i int, r Request) error) *PhaseResult {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	res := &PhaseResult{Reqs: reqs, Out: make([]Outcome, len(reqs))}
	var end time.Duration
	if len(reqs) > 0 {
		end = reqs[len(reqs)-1].Due
	}
	end += drain

	var inflight atomic.Int32
	var wg sync.WaitGroup
	start := time.Now()
	res.Start = start
	for i := range reqs {
		if d := reqs[i].Due - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		o := &res.Out[i]
		o.InFlight = inflight.Add(1)
		o.Sent = time.Since(start)
		wg.Add(1)
		go func(i int, o *Outcome) {
			defer wg.Done()
			err := do(ctx, i, reqs[i])
			o.Done = time.Since(start)
			o.Err = err
			inflight.Add(-1)
		}(i, o)
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	timer := time.NewTimer(end - time.Since(start))
	select {
	case <-done:
		timer.Stop()
	case <-timer.C:
		cancel()
		<-done
	}
	res.Elapsed = time.Since(start)
	for i := range res.Out {
		if o := &res.Out[i]; o.Done > end {
			o.Err = ErrUnfinished
		}
	}
	return res
}
