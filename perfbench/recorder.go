package main

import (
	"sync"
	"time"
)

// Span is one timed step of a request. Every span of a request carries the
// request's index; ID 0 is the request itself, from the time it was due to
// the time it returned, and every other span names the span that caused it
// as Parent. Times count from the run's epoch.
type Span struct {
	Req    int
	ID     int
	Parent int
	Name   string
	Start  time.Duration
	End    time.Duration

	conn int    // wire calls: the client connection
	key  string // wire calls: callKey, to match the server's residence
}

// reqTrace gathers the spans of one request as it runs.
type reqTrace struct {
	req   int
	spans []Span
}

// add records a child of the request span; it does nothing on a nil trace.
func (t *reqTrace) add(name string, start, end time.Duration, conn int, key string) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, Span{Req: t.req, ID: len(t.spans) + 1, Parent: 0,
		Name: name, Start: start, End: end, conn: conn, key: key})
}

// recorder collects what the requests of one phase report beyond their own
// outcome: write latencies always, and with tracing on the spans and the
// per-call figures of the layer each request calls into.
type recorder struct {
	epoch   time.Time
	tracing bool

	mu        sync.Mutex
	writeMs   []float64
	spans     []Span
	calls     int // client calls
	busy      int // client calls answered BUSY
	queryUs   []float64
	execUs    []float64
	commitUs  []float64
	commits   int
	conflicts int
	writesOK  int // acknowledged write statements and commits
}

func newRecorder(epoch time.Time, tracing bool) *recorder {
	return &recorder{epoch: epoch, tracing: tracing}
}

func (r *recorder) now() time.Duration { return time.Since(r.epoch) }

// write records one acknowledged write and its latency.
func (r *recorder) write(d time.Duration) {
	r.mu.Lock()
	r.writeMs = append(r.writeMs, float64(d)/1e6)
	r.writesOK++
	r.mu.Unlock()
}

func (r *recorder) finish(t *reqTrace) {
	if t == nil {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, t.spans...)
	r.mu.Unlock()
}

func (r *recorder) clientCall(busy bool) {
	if !r.tracing {
		return
	}
	r.mu.Lock()
	r.calls++
	if busy {
		r.busy++
	}
	r.mu.Unlock()
}

// apiCall records the duration of one root-API call into dst.
func (r *recorder) apiCall(dst *[]float64, d time.Duration) {
	if !r.tracing {
		return
	}
	r.mu.Lock()
	*dst = append(*dst, float64(d)/1e3)
	r.mu.Unlock()
}

func (r *recorder) commit(conflict bool) {
	r.mu.Lock()
	r.commits++
	if conflict {
		r.conflicts++
	}
	r.mu.Unlock()
}
