package main

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"shareddb/client"
	"shareddb/internal/baseline"
	"shareddb/internal/storage"
	"shareddb/internal/tpcw"
	"shareddb/internal/types"
)

// The correctness gates. A wire workload's gate runs a seeded sample of its
// read statements twice while the engine is quiesced: once over the wire,
// once through the query-at-a-time oracle (internal/baseline) on the same
// storage at the same snapshot. The rows must match, in order when the
// statement has an ORDER BY and as multisets otherwise.

// checkSamples is how many sample requests a gate runs.
const checkSamples = 60

// oracle runs statements through internal/baseline at one snapshot.
type oracle struct {
	stmts map[string]*baseline.Stmt
	eng   *baseline.Engine
	ts    uint64
	diffs []string
	runs  int
}

func newOracle(db *storage.Database) *oracle {
	return &oracle{stmts: map[string]*baseline.Stmt{}, eng: baseline.New(db, baseline.SystemXLike), ts: db.SnapshotTS()}
}

// compare runs sqlText at the oracle's snapshot and records a difference
// from got.
func (o *oracle) compare(sqlText string, params []types.Value, got []types.Row) error {
	st, ok := o.stmts[sqlText]
	if !ok {
		var err error
		if st, err = o.eng.Prepare(sqlText); err != nil {
			return fmt.Errorf("oracle prepare: %w", err)
		}
		o.stmts[sqlText] = st
	}
	want, err := st.ExecAt(params, o.ts)
	if err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	o.runs++
	if d := diffRows(got, want.Rows, strings.Contains(strings.ToUpper(sqlText), "ORDER BY")); d != "" {
		o.diffs = append(o.diffs, fmt.Sprintf("%s %v: %s", oneLine(sqlText), params, d))
	}
	return nil
}

func (o *oracle) err(what string) error {
	if o.runs == 0 {
		return fmt.Errorf("%s: no statement was checked", what)
	}
	if len(o.diffs) == 0 {
		return nil
	}
	return fmt.Errorf("%s: %d of %d statements differ from the oracle:\n  %s",
		what, len(o.diffs), o.runs, strings.Join(o.diffs, "\n  "))
}

func oneLine(s string) string { return strings.Join(strings.Fields(s), " ") }

func rowString(r types.Row) string {
	parts := make([]string, len(r))
	for i, v := range r {
		parts[i] = v.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// diffRows describes how got differs from want, or returns "".
func diffRows(got, want []types.Row, ordered bool) string {
	g := make([]string, len(got))
	for i, r := range got {
		g[i] = rowString(r)
	}
	w := make([]string, len(want))
	for i, r := range want {
		w[i] = rowString(r)
	}
	if !ordered {
		sort.Strings(g)
		sort.Strings(w)
	}
	if len(g) != len(w) {
		return fmt.Sprintf("%d rows, oracle has %d", len(g), len(w))
	}
	for i := range g {
		if g[i] != w[i] {
			return fmt.Sprintf("row %d is %s, oracle has %s", i, g[i], w[i])
		}
	}
	return ""
}

// errSkipWrite stops a checking session at its first write: the gate runs
// reads only, so the snapshot it compares at stays put.
var errSkipWrite = errors.New("write skipped by the correctness gate")

// checkInteractions are the browsing interactions whose statements the gate
// samples: every read statement the browsing mix issues.
var checkInteractions = []tpcw.Interaction{
	tpcw.Home, tpcw.NewProducts, tpcw.BestSellers, tpcw.ProductDetail,
	tpcw.SearchRequest, tpcw.SearchResults, tpcw.CustomerRegistration,
	tpcw.BuyRequest, tpcw.OrderInquiry, tpcw.OrderDisplay, tpcw.AdminRequest,
}

// checkSys answers a session's reads over the wire and compares each with
// the oracle.
type checkSys struct {
	stmts []*client.Stmt
	sqls  []string
	o     *oracle
}

func (s *checkSys) Name() string { return "check" }
func (s *checkSys) Close()       {}

func (s *checkSys) Query(id tpcw.StmtID, params ...types.Value) ([]types.Row, error) {
	rows, err := s.stmts[id].Query(toArgs(params)...)
	if err != nil {
		return nil, err
	}
	got := rows.All()
	if err := rows.Err(); err != nil {
		return nil, err
	}
	return got, s.o.compare(s.sqls[id], params, got)
}

func (s *checkSys) Exec(tpcw.StmtID, ...types.Value) (int, error) { return 0, errSkipWrite }
func (s *checkSys) ExecTx(func(tpcw.TxSink) error) error          { return errSkipWrite }

// check runs the workload's correctness gate; the engine must be quiesced.
// final is set for the gate after the measured phases.
func (t *tpcwTarget) check(seed int64, final bool) error {
	if !t.wire {
		return t.checkOrders(final)
	}
	o := newOracle(t.st.db.Storage())
	sys := &checkSys{stmts: t.cstmts[0], sqls: t.sqls, o: o}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < checkSamples; i++ {
		inter := checkInteractions[rng.Intn(len(checkInteractions))]
		err := tpcw.NewSession(sys, t.scale, t.ids, rng.Int63()).Run(inter)
		if err != nil && !errors.Is(err, errSkipWrite) {
			return fmt.Errorf("browsing check: %v: %w", inter, err)
		}
	}
	return o.err("browsing check")
}

// checkOrders checks the ordering workload's end state: the orders are the
// loaded ones plus one per acknowledged BuyConfirm, every acknowledged order
// has exactly its order lines, and no order line lacks its order. After the
// measured phases at least one BuyConfirm must have been acknowledged.
func (t *tpcwTarget) checkOrders(final bool) error {
	db := t.st.db.Storage()
	ts := db.SnapshotTS()
	orders, lines := db.Table("orders"), db.Table("order_line")
	oID := orders.Schema().MustColIndex("o_id")
	olO := lines.Schema().MustColIndex("ol_o_id")

	ids := map[int64]bool{}
	orders.ScanVisible(ts, func(_ storage.RowID, row types.Row) bool {
		ids[row[oID].AsInt()] = true
		return true
	})
	perOrder := map[int64]int{}
	orphans := 0
	lines.ScanVisible(ts, func(_ storage.RowID, row types.Row) bool {
		o := row[olO].AsInt()
		perOrder[o]++
		if !ids[o] {
			orphans++
		}
		return true
	})
	t.mu.Lock()
	defer t.mu.Unlock()
	var errs []string
	if want := int(t.gen.MaxOrderID) + len(t.acked); len(ids) != want {
		errs = append(errs, fmt.Sprintf("%d orders, want %d loaded + %d acknowledged = %d",
			len(ids), t.gen.MaxOrderID, len(t.acked), want))
	}
	for o, n := range t.acked {
		if !ids[o] {
			errs = append(errs, fmt.Sprintf("acknowledged order %d missing", o))
		} else if perOrder[o] != n {
			errs = append(errs, fmt.Sprintf("order %d has %d lines, committed %d", o, perOrder[o], n))
		}
		if len(errs) > 10 {
			break
		}
	}
	if orphans > 0 {
		errs = append(errs, fmt.Sprintf("%d order lines lack their order", orphans))
	}
	if final && len(t.acked) == 0 {
		errs = append(errs, "no BuyConfirm was acknowledged")
	}
	if len(errs) > 0 {
		return fmt.Errorf("ordering check:\n  %s", strings.Join(errs, "\n  "))
	}
	return nil
}
