// Command perfbench is shareddb's end-to-end benchmark. It drives one of
// three open-loop workloads against the real stack in one process, checks
// the outputs, and prints every metric by name with its unit; the last line
// of its output is one JSON object. See README.md.
package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

//go:embed workloads.json
var configJSON []byte

// workloadConfig is one workload's fixed load settings.
type workloadConfig struct {
	NominalRate    float64   `json:"nominal_rate"`
	InsertRate     float64   `json:"insert_rate"`
	LatencyLimitMs float64   `json:"latency_limit_ms"`
	Ladder         []float64 `json:"ladder"`
}

// setupReps is how many times an untraced run sets up its workload;
// setup_s is the median.
const setupReps = 9

// setupInfo is what one set-up reports to the per-layer metrics.
type setupInfo struct {
	loadRows int
	loadTime time.Duration
	prepares []time.Duration
}

// target is one workload's system under test.
type target interface {
	setup(si *setupInfo, tap *tapSet) error
	schedule(seed int64, rate float64, d time.Duration) []Request
	do(ctx context.Context, rec *recorder, tr *reqTrace, r Request) error
	primary(kind int) bool
	check(seed int64, final bool) error
	stack() *stack
	close()
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "browsing, ordering or analytics")
	seed := flag.Int64("seed", 1, "seed of every generated request")
	seconds := flag.Int("seconds", 30, "measured seconds")
	trace := flag.Int("trace", 0, "1 runs the traced run and reports per-layer metrics")
	workdir := flag.String("workdir", ".bench_build/perfbench", "directory for WALs and trace files")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}

	res, err := run(*workload, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *workdir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-34s %14.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func newTarget(name string, cfg workloadConfig, workdir string) (target, error) {
	conns := min(runtime.NumCPU(), 2)
	switch name {
	case "browsing":
		return newBrowsing(conns), nil
	case "ordering":
		return newOrdering(workdir), nil
	case "analytics":
		return newAnalytics(conns, cfg.InsertRate), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want browsing, ordering or analytics)", name)
}

// bench is one run in progress.
type bench struct {
	name  string
	t     target
	cfg   workloadConfig
	seed  int64
	epoch time.Time
	drain time.Duration
	phase int64
	err   error // the first failure of the engine to quiesce between phases
}

func run(name string, seed int64, seconds time.Duration, traced bool, workdir string) (*result, error) {
	var all struct {
		Workloads map[string]workloadConfig `json:"workloads"`
	}
	if err := json.Unmarshal(configJSON, &all); err != nil {
		return nil, fmt.Errorf("workloads.json: %w", err)
	}
	cfg, ok := all.Workloads[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want browsing, ordering or analytics)", name)
	}
	if seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return nil, err
	}
	b := &bench{name: name, cfg: cfg, seed: seed, epoch: time.Now(),
		drain: time.Duration(cfg.LatencyLimitMs * float64(time.Millisecond))}

	// Set up; an untraced run repeats it and reports the median.
	var tap *tapSet
	reps := setupReps
	if traced {
		reps = 1
		if name != "ordering" {
			tap = &tapSet{epoch: b.epoch}
		}
	}
	var setups []float64
	var si setupInfo
	for i := 0; i < reps; i++ {
		if b.t != nil {
			b.t.close()
		}
		t, err := newTarget(name, cfg, workdir)
		if err != nil {
			return nil, err
		}
		b.t, si = t, setupInfo{}
		t0 := time.Now()
		if err := t.setup(&si, tap); err != nil {
			t.close()
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer b.t.close()

	// The correctness gate runs on the quiesced engine before and after the
	// measured phases, each time on its own seeded sample.
	correct := true
	gate := func(final bool) error {
		if err := b.t.stack().quiesce(); err != nil {
			return err
		}
		checkSeed, when := seed, "before"
		if final {
			checkSeed, when = seed+1, "after"
		}
		if err := b.t.check(checkSeed, final); err != nil {
			correct = false
			fmt.Fprintf(os.Stderr, "perfbench: correctness check %s the measured phases failed: %v\n", when, err)
		}
		return nil
	}
	if err := gate(false); err != nil {
		return nil, err
	}

	frac := func(f float64) time.Duration { return time.Duration(f * float64(seconds)) }
	b.runPhase(newRecorder(b.epoch, false), cfg.NominalRate, frac(0.1)) // warm-up

	var res *result
	var err error
	if traced {
		res, err = b.tracedRun(frac(0.3), max(frac(0.05), time.Second), &si, tap, workdir)
	} else {
		res, err = b.untracedRun(frac(0.9), setups)
	}
	if err == nil {
		err = b.err
	}
	if err != nil {
		return nil, err
	}
	if err := gate(true); err != nil {
		return nil, err
	}
	res.Correct = correct
	return res, nil
}

// runPhase drives one open-loop phase at rate for d, after the engine has
// quiesced from the previous one.
func (b *bench) runPhase(rec *recorder, rate float64, d time.Duration) *PhaseResult {
	if err := b.t.stack().quiesce(); err != nil && b.err == nil {
		b.err = err
	}
	b.phase++
	reqs := b.t.schedule(b.seed*1_000_003+b.phase, rate, d)
	return RunOpenLoop(context.Background(), reqs, b.drain, func(ctx context.Context, i int, r Request) error {
		var tr *reqTrace
		if rec.tracing {
			tr = &reqTrace{req: i}
			defer rec.finish(tr)
		}
		return b.t.do(ctx, rec, tr, r)
	})
}
