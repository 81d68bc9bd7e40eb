package main

import (
	"fmt"
	"time"
)

// StepResult is one rung of the rate ladder.
type StepResult struct {
	Rate    float64
	Tail    Tail // primary-op latency in ms, from due time
	Failed  int
	Backlog bool
}

// Pass reports whether the step meets all three conditions: the tail
// latency is under the limit, nothing failed, and the backlog did not grow.
func (s StepResult) Pass(limitMs float64) bool {
	return s.Tail.N > 0 && s.Tail.Value < limitMs && s.Failed == 0 && !s.Backlog
}

func (s StepResult) String() string {
	return fmt.Sprintf("rate %.0f/s: p%g %.2f ms over %d, failed %d, backlog %v",
		s.Rate, s.Tail.Pct, s.Tail.Value, s.Tail.N, s.Failed, s.Backlog)
}

// Climb runs the ladder's steps in ascending order. A step that misses is
// run once more, so that one transient stall does not end the climb; the
// climb stops at the first step that misses twice in a row, and the
// sustained rate is the last step that passed (0 if none did). Steps are
// never skipped, so the outcome is a pure function of the step results.
func Climb(ladder []float64, limitMs float64, run func(rate float64) StepResult) (float64, []StepResult) {
	sustained := 0.0
	var steps []StepResult
	for _, rate := range ladder {
		s := run(rate)
		steps = append(steps, s)
		if !s.Pass(limitMs) {
			s = run(rate)
			steps = append(steps, s)
			if !s.Pass(limitMs) {
				break
			}
		}
		sustained = rate
	}
	return sustained, steps
}

// backlogGrows reports whether a step's queue grew while it ran, comparing
// the last third of its requests with the first third. By Little's law a
// queue whose requests meet the latency limit holds at most rate × limit
// requests, so the step fails if the mean in-flight count rose by more
// than half of that, or the generator's mean lateness rose by more than
// half the limit.
func backlogGrows(p *PhaseResult, rate float64, limit time.Duration) bool {
	n := len(p.Out)
	if n < 30 {
		return false
	}
	k := n / 3
	var inA, inB float64
	var lateA, lateB time.Duration
	for i := 0; i < k; i++ {
		inA += float64(p.Out[i].InFlight)
		lateA += p.Out[i].Late(p.Reqs[i])
		j := n - k + i
		inB += float64(p.Out[j].InFlight)
		lateB += p.Out[j].Late(p.Reqs[j])
	}
	inA, inB = inA/float64(k), inB/float64(k)
	lateA, lateB = lateA/time.Duration(k), lateB/time.Duration(k)
	return inB-inA > rate*limit.Seconds()/2 || lateB-lateA > limit/2
}
