package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"shareddb/internal/tpcw"
	"shareddb/internal/types"
	"shareddb/internal/wire"
)

func TestTailPercentileLeavesTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{1000, 99}, {999, 98.9}, {5000, 99}, {500, 98}, {100, 90}, {11, 9}, {10, 0}, {0, 0},
	} {
		got := tailPercentile(tc.n, 99)
		if math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("n=%d: percentile %g, want %g", tc.n, got, tc.want)
		}
		if got > 0 {
			if beyond := tc.n - rankOf(tc.n, got); beyond < minBeyond {
				t.Errorf("n=%d: p%g leaves %d samples beyond it", tc.n, got, beyond)
			}
			if next := got + 0.1; next <= 99 && tc.n-rankOf(tc.n, next) >= minBeyond {
				t.Errorf("n=%d: p%g is not the highest valid percentile (p%g also is)", tc.n, got, next)
			}
		}
	}
}

func TestSummarizeReportsCountAndTail(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 1000 … 1, unsorted on purpose
	}
	s := summarize(xs, 99)
	if s.N != 1000 || s.Pct != 99 || s.Value != 990 || s.P50 != 500 {
		t.Fatalf("summary %+v, want N 1000, p99 990, p50 500", s)
	}
	small := summarize([]float64{3, 1, 2}, 99)
	if small.Pct != 0 || small.Value != 3 {
		t.Fatalf("three samples: %+v, want no valid percentile and the maximum", small)
	}
}

// A target that stalls: the first request holds a lock for stall, and every
// later one queues behind it. Latency counts from the due time, so requests
// due during the stall are charged the wait, while the generator itself
// keeps sending on schedule.
func TestLatencyCountsFromDueTimeAgainstStalledTarget(t *testing.T) {
	const stall = 150 * time.Millisecond
	var reqs []Request
	for i := 0; i < 10; i++ {
		reqs = append(reqs, Request{Due: time.Duration(i) * 10 * time.Millisecond})
	}
	var mu sync.Mutex
	p := RunOpenLoop(context.Background(), reqs, time.Second, func(_ context.Context, i int, _ Request) error {
		mu.Lock()
		defer mu.Unlock()
		if i == 0 {
			time.Sleep(stall)
		}
		return nil
	})
	if f := p.Failed(); f != 0 {
		t.Fatalf("%d requests failed", f)
	}
	for i, o := range p.Out {
		r := p.Reqs[i]
		if lat := o.Latency(r); lat < stall-r.Due {
			t.Errorf("request %d due %v: latency %v, want at least %v", i, r.Due, lat, stall-r.Due)
		}
		if late := o.Late(r); late > 50*time.Millisecond {
			t.Errorf("request %d sent %v late: the generator waited on the target", i, late)
		}
		if o.Latency(r) < o.Done-o.Sent {
			t.Errorf("request %d: latency %v is shorter than its service time", i, o.Latency(r))
		}
	}
}

// Requests still running at the end of the phase count as failed, and the
// phase still ends: their context is cancelled.
func TestUnfinishedRequestsFailAtPhaseEnd(t *testing.T) {
	reqs := []Request{{Due: 0}, {Due: 5 * time.Millisecond}, {Due: 10 * time.Millisecond}}
	start := time.Now()
	p := RunOpenLoop(context.Background(), reqs, 50*time.Millisecond, func(ctx context.Context, i int, _ Request) error {
		if i == 1 {
			return nil
		}
		<-ctx.Done()
		return ctx.Err()
	})
	if el := time.Since(start); el > time.Second {
		t.Fatalf("phase took %v", el)
	}
	if p.Failed() != 2 || !errors.Is(p.Out[0].Err, ErrUnfinished) || !errors.Is(p.Out[2].Err, ErrUnfinished) || p.Out[1].Err != nil {
		t.Fatalf("outcomes %+v, want requests 0 and 2 unfinished", p.Out)
	}
}

func TestClimbStopRule(t *testing.T) {
	ladder := []float64{100, 200, 300, 400, 500}
	// misses[rate] lists the outcome of each run of that rate in turn.
	climb := func(misses map[float64][]bool) (float64, []float64) {
		runs := map[float64]int{}
		var order []float64
		sustained, _ := Climb(ladder, 10, func(rate float64) StepResult {
			k := runs[rate]
			runs[rate]++
			order = append(order, rate)
			s := StepResult{Rate: rate, Tail: Tail{N: 100, Pct: 99, Value: 1}}
			if k < len(misses[rate]) && misses[rate][k] {
				s.Tail.Value = 20
			}
			return s
		})
		return sustained, order
	}
	eq := func(a, b []float64) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}

	if s, order := climb(nil); s != 500 || !eq(order, ladder) {
		t.Errorf("all pass: sustained %g after %v", s, order)
	}
	if s, order := climb(map[float64][]bool{300: {true, true}}); s != 200 || !eq(order, []float64{100, 200, 300, 300}) {
		t.Errorf("300 misses twice: sustained %g after %v, want 200 after 100 200 300 300", s, order)
	}
	if s, order := climb(map[float64][]bool{300: {true, false}, 500: {true, true}}); s != 400 || !eq(order, []float64{100, 200, 300, 300, 400, 500, 500}) {
		t.Errorf("one transient miss: sustained %g after %v, want 400", s, order)
	}
	if s, _ := climb(map[float64][]bool{100: {true, true}, 200: {false}}); s != 0 {
		t.Errorf("first step misses twice: sustained %g, want 0 (never skips ahead)", s)
	}

	for _, s := range []StepResult{
		{Tail: Tail{N: 100, Value: 20}},
		{Tail: Tail{N: 100, Value: 1}, Failed: 1},
		{Tail: Tail{N: 100, Value: 1}, Backlog: true},
		{},
	} {
		if s.Pass(10) {
			t.Errorf("step %+v passes, want a miss", s)
		}
	}
}

func TestBacklogGrows(t *testing.T) {
	steady := &PhaseResult{}
	growing := &PhaseResult{}
	late := &PhaseResult{}
	for i := 0; i < 300; i++ {
		due := time.Duration(i) * time.Millisecond
		steady.Reqs = append(steady.Reqs, Request{Due: due})
		steady.Out = append(steady.Out, Outcome{Sent: due, InFlight: int32(3 + i%5)})
		growing.Reqs = append(growing.Reqs, Request{Due: due})
		growing.Out = append(growing.Out, Outcome{Sent: due, InFlight: int32(1 + i)})
		late.Reqs = append(late.Reqs, Request{Due: due})
		late.Out = append(late.Out, Outcome{Sent: due + time.Duration(i)*time.Millisecond/2, InFlight: 3})
	}
	const rate, limit = 1000, 100 * time.Millisecond
	if backlogGrows(steady, rate, limit) {
		t.Error("steady in-flight count flagged as growing")
	}
	if !backlogGrows(growing, rate, limit) {
		t.Error("in-flight count rising by 200 not flagged")
	}
	if !backlogGrows(late, rate, limit) {
		t.Error("generator lateness rising by 100 ms not flagged")
	}
}

func TestSameSeedSameRequestStream(t *testing.T) {
	browse := newBrowsing(2)
	an := newAnalytics(2, 200)
	stream := func(seed int64) []byte {
		var b []byte
		b = append(b, encodeSchedule(browse.schedule(seed, 500, 2*time.Second))...)
		for _, r := range an.schedule(seed, 100, 2*time.Second) {
			b = append(b, encodeSchedule([]Request{r})...)
			for _, v := range analyticsParams(r.Kind, r.Seed) {
				b = append(b, v.String()...)
			}
		}
		return b
	}
	a, b, c := stream(7), stream(7), stream(8)
	if !bytes.Equal(a, b) {
		t.Fatal("the same seed gave different request streams")
	}
	if bytes.Equal(a, c) {
		t.Fatal("different seeds gave the same request stream")
	}
}

func TestScheduleRateAndMix(t *testing.T) {
	reqs := newBrowsing(2).schedule(3, 1000, 10*time.Second)
	if n := len(reqs); n < 9500 || n > 10500 {
		t.Errorf("%d requests at 1000/s over 10 s", n)
	}
	for i, r := range reqs {
		if tpcw.Interaction(r.Kind) == tpcw.BuyConfirm {
			t.Fatal("browsing schedule contains BuyConfirm, which the wire cannot carry")
		}
		if i > 0 && r.Due < reqs[i-1].Due {
			t.Fatal("schedule not ordered by due time")
		}
	}
	an := newAnalytics(2, 200).schedule(3, 100, 10*time.Second)
	inserts := 0
	for _, r := range an {
		if r.Kind == kindInsert {
			inserts++
		}
	}
	if inserts < 1800 || inserts > 2200 || len(an)-inserts < 850 || len(an)-inserts > 1150 {
		t.Errorf("analytics: %d inserts and %d queries over 10 s, want about 2000 and 1000", inserts, len(an)-inserts)
	}
}

func TestCodecReplayRoundTrips(t *testing.T) {
	row := types.Row{types.NewInt(7), types.NewString("x"), types.NewFloat(1.5)}
	frames := [][]byte{
		wire.Hello{Version: wire.Version, Window: 32}.Append(nil),
		wire.StmtCall{ID: 3, Stmt: 1, Params: []types.Value{types.NewInt(9)}}.Append(nil, wire.TQuery),
		wire.RowsHeader{ID: 3, Columns: []string{"a", "b", "c"}}.Append(nil),
		wire.RowBatch{ID: 3, Rows: []types.Row{row, row}}.Append(nil),
		wire.RowsDone{ID: 3, Total: 2}.Append(nil),
		wire.ExecOK{ID: 4, RowsAffected: 1}.Append(nil),
		wire.Busy{ID: 5, RetryAfterNs: 10, Reason: "queue"}.Append(nil),
		wire.AppendEmpty(nil, wire.TQuit),
	}
	enc, dec, err := codecTiming(frames)
	if err != nil {
		t.Fatal(err)
	}
	if enc <= 0 || dec <= 0 {
		t.Fatalf("encode %g ns, decode %g ns per frame", enc, dec)
	}
	bad := append([]byte(nil), frames[1]...)
	bad[4] = 0x7f
	if _, _, err := codecTiming([][]byte{bad}); err == nil {
		t.Fatal("an unknown frame type replayed without error")
	}
}

func TestMatchResidencesPairsCallsInOrder(t *testing.T) {
	ms := time.Millisecond
	spans := []Span{
		{Req: 0, ID: 1, Name: "client.query", Start: 0, End: 10 * ms, conn: 0, key: "q|1"},
		{Req: 1, ID: 1, Name: "client.query", Start: 2 * ms, End: 12 * ms, conn: 0, key: "q|1"},
		{Req: 2, ID: 1, Name: "client.query", Start: 1 * ms, End: 5 * ms, conn: 1, key: "q|2"},
	}
	res := []residence{
		{conn: 0, key: "q|1", read: 1 * ms, end: 9 * ms},
		{conn: 0, key: "q|1", read: 3 * ms, end: 11 * ms},
		{conn: 1, key: "q|2", read: 2 * ms, end: 4 * ms},
	}
	children, callUs, selfUs := matchResidences(spans, res)
	if len(children) != 3 || len(callUs) != 3 || len(selfUs) != 3 {
		t.Fatalf("%d children, %d calls, %d self times; want 3 each", len(children), len(callUs), len(selfUs))
	}
	for _, c := range children {
		if c.Parent != 1 || c.ID != 2 || c.Name != "server.residence" {
			t.Errorf("residence span %+v, want child 2 of call 1", c)
		}
	}
	for _, s := range selfUs {
		if s != 2000 {
			t.Errorf("self time %g µs, want 2000", s)
		}
	}
}

// encodeSchedule is the byte form of a schedule.
func encodeSchedule(reqs []Request) []byte {
	out := make([]byte, 0, len(reqs)*24)
	for _, r := range reqs {
		out = binary.LittleEndian.AppendUint64(out, uint64(r.Due))
		out = binary.LittleEndian.AppendUint64(out, uint64(r.Kind))
		out = binary.LittleEndian.AppendUint64(out, uint64(r.Seed))
	}
	return out
}
