package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// tracedRun runs the nominal rate untraced (the e2e.* figures and the
// baseline of the tracing overhead), climbs the rate ladder, then runs the
// nominal rate again traced; the other per-layer metrics come from that
// traced phase.
func (b *bench) tracedRun(d, step time.Duration, si *setupInfo, tap *tapSet, workdir string) (*result, error) {
	base := b.nominalPhase(newRecorder(b.epoch, false), d, nil)
	b.summary("untraced", base)
	sustained, steps := b.climb(step)
	for _, s := range steps {
		fmt.Println("ladder", s)
	}

	st := b.t.stack()
	rec := newRecorder(b.epoch, true)
	var depth []float64
	n := b.nominalPhase(rec, d, func() func() {
		for _, c := range st.tapConns() {
			c.reset()
		}
		if tap != nil {
			tap.on.Store(true)
		}
		stop, done := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(done)
			tick := time.NewTicker(time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					depth = append(depth, float64(st.db.Stats().QueueDepth))
				}
			}
		}()
		return func() {
			close(stop)
			<-done
			if tap != nil {
				tap.on.Store(false)
			}
		}
	})

	// Spans: the request itself, then its calls (recorded as they ran),
	// then each wire call's server residence as the call's child.
	phase0 := n.p.Start.Sub(b.epoch)
	spans := rec.spans
	for i, o := range n.p.Out {
		spans = append(spans, Span{Req: i, ID: 0, Parent: -1, Name: "request",
			Start: phase0 + n.p.Reqs[i].Due, End: phase0 + o.Done})
	}
	taps := collectTaps(st.tapConns())
	resSpans, callUs, selfUs := matchResidences(spans, taps.residences)
	spans = append(spans, resSpans...)

	encNs, decNs, err := codecTiming(taps.frames)
	if err != nil {
		return nil, err
	}
	path, err := writeTrace(workdir, b.name, b.seed, spans)
	if err != nil {
		return nil, err
	}

	ops := float64(n.ops)
	dGen := float64(n.after.stats.Generations - n.before.stats.Generations)
	dRun := float64(n.after.stats.QueriesRun - n.before.stats.QueriesRun)
	dWrite := float64(n.after.stats.WritesApplied - n.before.stats.WritesApplied)
	dFold := float64(n.after.stats.FoldedQueries - n.before.stats.FoldedQueries)
	dShed := float64(n.after.stats.Shed - n.before.stats.Shed)
	dRejected := float64(n.after.stats.Rejected - n.before.stats.Rejected)
	var resUs []float64
	for _, r := range taps.residences {
		resUs = append(resUs, float64(r.end-r.read)/1e3)
	}
	res := summarize(resUs, 99)
	call := summarize(callUs, 99)
	query, exec, commit := summarize(rec.queryUs, 99), summarize(rec.execUs, 99), summarize(rec.commitUs, 99)
	prepUs := make([]float64, len(si.prepares))
	for i, p := range si.prepares {
		prepUs[i] = float64(p) / 1e3
	}
	rowsScanned := 0.0
	an, isAnalytics := b.t.(*analyticsTarget)
	if isAnalytics {
		rowsScanned = ratio(float64(an.factTableRows())*dGen, ops)
	}
	failed := n.p.Failed()

	m := map[string]metric{
		"client.call_us.p50":             {call.P50, "us"},
		"client.call_us.p99":             {call.Value, "us"},
		"client.self_us.p50":             {summarize(selfUs, 50).P50, "us"},
		"client.busy_share":              {ratio(float64(rec.busy), float64(rec.calls)), "ratio"},
		"wire.frames_per_op":             {ratio(float64(taps.nframes), ops), "count"},
		"wire.bytes_per_op":              {ratio(float64(taps.bytes), ops), "B"},
		"wire.encode_ns_per_frame":       {encNs, "ns"},
		"wire.decode_ns_per_frame":       {decNs, "ns"},
		"server.residence_us.p50":        {res.P50, "us"},
		"server.residence_us.p99":        {res.Value, "us"},
		"server.reads_per_op":            {ratio(float64(taps.reads), ops), "count"},
		"server.writes_per_op":           {ratio(float64(taps.writes), ops), "count"},
		"server.write_busy_us_per_op":    {ratio(float64(taps.writeBusy)/1e3, ops), "us"},
		"api.query_us.p50":               {query.P50, "us"},
		"api.query_us.p99":               {query.Value, "us"},
		"api.exec_us.p50":                {exec.P50, "us"},
		"api.exec_us.p99":                {exec.Value, "us"},
		"api.commit_us.p50":              {commit.P50, "us"},
		"api.commit_us.p99":              {commit.Value, "us"},
		"api.commit_conflict_share":      {ratio(float64(rec.conflicts), float64(rec.commits)), "ratio"},
		"core.generations_per_s":         {dGen / n.p.Elapsed.Seconds(), "1/s"},
		"core.ops_per_generation":        {ratio(dRun+dWrite, dGen), "count"},
		"core.fold_hit":                  {ratio(dFold, dFold+dRun), "ratio"},
		"core.shed_share":                {ratio(dShed, dRun+dFold+dWrite+dRejected), "ratio"},
		"core.peak_inflight":             {float64(st.db.Engine().Stats().PeakInFlight), "count"},
		"core.queue_depth.p99":           {summarize(depth, 99).Value, "count"},
		"plan.prepare_us":                {median(prepUs), "us"},
		"storage.wal_bytes_per_write":    {ratio(float64(n.after.wal-n.before.wal), float64(rec.writesOK)), "B"},
		"storage.load_rows_per_s":        {ratio(float64(si.loadRows), si.loadTime.Seconds()), "rows/s"},
		"storage.rows_scanned_per_query": {rowsScanned, "rows"},
		"go.gc_cycles_per_kop":           {ratio(float64(n.after.mem.NumGC-n.before.mem.NumGC), ops/1000), "count"},
		"go.gc_pause_us.p99":             {summarize(gcPauses(&n.before.mem, &n.after.mem), 99).Value, "us"},
		"gen.late_ms.p99":                {n.late.Value, "ms"},
		"gen.samples":                    {float64(n.lat.N), "count"},
		"fail_share":                     {ratio(float64(failed), float64(n.attempted)), "ratio"},
		"trace.overhead.p50_ms":          {n.lat.P50 - base.lat.P50, "ms"},
		"trace.overhead.cpu_us_per_op":   {n.cpuPerOp() - base.cpuPerOp(), "us"},
		"e2e.cpu_us_per_op":              {base.cpuPerOp(), "us"},
		"e2e.p50_ms":                     {base.lat.P50, "ms"},
		"e2e.p90_ms":                     {quantile(base.lat.Sorted, 90), "ms"},
		"e2e.p99_ms":                     {base.lat.Value, "ms"},
		"e2e.sustained_ops":              {sustained, "ops/s"},
		"e2e.write_p50_ms":               {base.writes.P50, "ms"},
		"e2e.write_p90_ms":               {base.writes.Value, "ms"},
	}
	b.summary("traced", n)
	fmt.Printf("%d spans written to %s\n", len(spans), path)
	if isAnalytics {
		fmt.Println("storage.rows_scanned_per_query is derived from counts: fact rows × generations ÷ analytic queries")
	}
	return &result{Attempted: n.attempted, Failed: failed, Metrics: m}, nil
}

// matchResidences pairs each wire call span with the server residence of
// the same connection and request content that lies within it, in time
// order, and returns the residences as child spans of their calls together
// with every call's duration and, for matched calls, the call's self time
// (its duration minus the residence), all in µs.
func matchResidences(spans []Span, res []residence) (children []Span, callUs, selfUs []float64) {
	type key struct {
		conn int
		k    string
	}
	calls := map[key][]*Span{}
	nextID := map[int]int{}
	for i := range spans {
		s := &spans[i]
		nextID[s.Req] = max(nextID[s.Req], s.ID+1)
		if s.key == "" {
			continue
		}
		calls[key{s.conn, s.key}] = append(calls[key{s.conn, s.key}], s)
		callUs = append(callUs, float64(s.End-s.Start)/1e3)
	}
	byKey := map[key][]residence{}
	for _, r := range res {
		byKey[key{r.conn, r.key}] = append(byKey[key{r.conn, r.key}], r)
	}
	for k, cs := range calls {
		rs := byKey[k]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		sort.Slice(rs, func(i, j int) bool { return rs[i].read < rs[j].read })
		p := 0
		for _, c := range cs {
			for p < len(rs) && rs[p].read < c.Start {
				p++
			}
			if p == len(rs) {
				break
			}
			if r := rs[p]; r.end <= c.End {
				id := nextID[c.Req]
				nextID[c.Req]++
				children = append(children, Span{Req: c.Req, ID: id, Parent: c.ID,
					Name: "server.residence", Start: r.read, End: r.end})
				selfUs = append(selfUs, float64((c.End-c.Start)-(r.end-r.read))/1e3)
				p++
			}
		}
	}
	return children, callUs, selfUs
}

// writeTrace writes the spans as JSON lines, one span each, ordered by
// request and span ID, and returns the file's path.
func writeTrace(workdir, name string, seed int64, spans []Span) (string, error) {
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].Req != spans[j].Req {
			return spans[i].Req < spans[j].Req
		}
		return spans[i].ID < spans[j].ID
	})
	dir := filepath.Join(workdir, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", name, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(struct {
			Req     int     `json:"req"`
			Span    int     `json:"span"`
			Parent  int     `json:"parent"`
			Name    string  `json:"name"`
			StartUs float64 `json:"start_us"`
			EndUs   float64 `json:"end_us"`
		}{s.Req, s.ID, s.Parent, s.Name, float64(s.Start) / 1e3, float64(s.End) / 1e3}); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
