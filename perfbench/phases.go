package main

import (
	"fmt"
	"runtime"
	"syscall"
	"time"

	"shareddb"
)

// usage is a process-wide resource snapshot.
type usage struct {
	cpu   time.Duration
	mem   runtime.MemStats
	stats shareddb.Stats
	wal   int64
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func (b *bench) sample() usage {
	u := usage{cpu: processCPU(), stats: b.t.stack().db.Stats(), wal: b.t.stack().walBytes()}
	runtime.ReadMemStats(&u.mem)
	return u
}

// nominal is a phase at the nominal rate reduced to its figures.
type nominal struct {
	p         *PhaseResult
	lat       Tail // primary ops, ms from due time
	writes    Tail // writes, ms
	late      Tail // generator lateness, ms
	ops       int  // completed primary ops
	attempted int
	before    usage
	after     usage
	heapLive  uint64
}

// nominalPhase runs a phase at the nominal rate. start, if set, runs just
// before the phase and returns what to run just after it.
func (b *bench) nominalPhase(rec *recorder, d time.Duration, start func() (stop func())) *nominal {
	if err := b.t.stack().quiesce(); err != nil && b.err == nil {
		b.err = err
	}
	runtime.GC()
	n := &nominal{before: b.sample()}
	stop := func() {}
	if start != nil {
		stop = start()
	}
	n.p = b.runPhase(rec, b.cfg.NominalRate, d)
	stop()
	n.after = b.sample()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	n.heapLive = ms.HeapAlloc

	var lat, wr, late []float64
	for i, o := range n.p.Out {
		r := n.p.Reqs[i]
		late = append(late, float64(o.Late(r))/1e6)
		if o.Err != nil {
			continue
		}
		if b.t.primary(r.Kind) {
			lat = append(lat, float64(o.Latency(r))/1e6)
		} else {
			wr = append(wr, float64(o.Latency(r))/1e6)
		}
	}
	if len(wr) == 0 {
		wr = append(wr, rec.writeMs...)
	}
	n.ops = len(lat)
	n.attempted = len(n.p.Reqs)
	n.lat, n.writes, n.late = summarize(lat, 99), summarize(wr, 90), summarize(late, 99)
	return n
}

// cpuPerOp is the process CPU time over the phase per completed primary
// op, in µs.
func (n *nominal) cpuPerOp() float64 {
	return ratio(float64(n.after.cpu-n.before.cpu)/1e3, float64(n.ops))
}

func (b *bench) summary(what string, n *nominal) {
	fmt.Printf("%s %.0f/s: %d ops, p50 %.3f ms, p%g %.3f ms over %d samples; writes p50 %.3f ms, p%g %.3f ms over %d; generator late p%g %.3f ms; %.1f us CPU per op; %d of %d failed\n",
		what, b.cfg.NominalRate, n.ops, n.lat.P50, n.lat.Pct, n.lat.Value, n.lat.N,
		n.writes.P50, n.writes.Pct, n.writes.Value, n.writes.N, n.late.Pct, n.late.Value,
		n.cpuPerOp(), n.p.Failed(), n.attempted)
}

// untracedRun measures the gated end-to-end metrics: set-up time and the
// memory cost of an operation at the nominal rate.
func (b *bench) untracedRun(d time.Duration, setups []float64) (*result, error) {
	n := b.nominalPhase(newRecorder(b.epoch, false), d, nil)
	b.summary("nominal", n)
	fmt.Printf("setups %v s\n", setups)
	ops := float64(n.ops)
	m := map[string]metric{
		"setup_s":            {median(setups), "s"},
		"allocs_per_op":      {ratio(float64(n.after.mem.Mallocs-n.before.mem.Mallocs), ops), "count"},
		"alloc_bytes_per_op": {ratio(float64(n.after.mem.TotalAlloc-n.before.mem.TotalAlloc), ops), "B"},
		"heap_live_mb":       {float64(n.heapLive) / (1 << 20), "MB"},
	}
	return &result{Attempted: n.attempted, Failed: n.p.Failed(), Metrics: m}, nil
}

// climb runs the rate ladder with steps of length step.
func (b *bench) climb(step time.Duration) (float64, []StepResult) {
	return Climb(b.cfg.Ladder, b.cfg.LatencyLimitMs, func(rate float64) StepResult {
		p := b.runPhase(newRecorder(b.epoch, false), rate, step)
		var lat []float64
		for i, o := range p.Out {
			if o.Err == nil && b.t.primary(p.Reqs[i].Kind) {
				lat = append(lat, float64(o.Latency(p.Reqs[i]))/1e6)
			}
		}
		return StepResult{Rate: rate, Tail: summarize(lat, 99), Failed: p.Failed(), Backlog: backlogGrows(p, rate, b.drain)}
	})
}

// gcPauses lists the GC pauses, in µs, that ended between two snapshots.
func gcPauses(a, b *runtime.MemStats) []float64 {
	var out []float64
	for k := a.NumGC + 1; k <= b.NumGC && b.NumGC-k < 256; k++ {
		out = append(out, float64(b.PauseNs[(k+255)%256])/1e3)
	}
	return out
}
