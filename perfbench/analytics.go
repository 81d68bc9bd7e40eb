package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"
	"unsafe"

	"shareddb"
	"shareddb/client"
	"shareddb/internal/storage"
	"shareddb/internal/types"
)

// The analytics data set: a sales fact table of factRows rows over days,
// stores and products, and a store dimension. Every measure is an integer,
// so sums are exact in any evaluation order.
const (
	factRows = 128 << 10
	days     = 365
	stores   = 64
	regions  = 8
	products = 1000
)

// factBytes is the fact table's row payload: rows × columns × the size of
// one engine value. It is the working set every shared scan walks.
const factBytes = factRows * 6 * int(unsafe.Sizeof(types.Value{}))

// Analytic request kinds; kindInsert is the write stream beside them.
const (
	kindGroup = iota
	kindJoin
	kindTopN
	kindInsert
)

// The analytic statements. Each pins one dimension value by equality, which
// the shared scan's predicate index probes per row in constant time, and
// draws a range on another column that is checked only on the rows the
// probe selects.
var analyticsSQL = [...]string{
	kindGroup: `SELECT s_qty, COUNT(*), SUM(s_amount) FROM sales
		WHERE s_store = ? AND s_day >= ? AND s_day < ? GROUP BY s_qty`,
	kindJoin: `SELECT st_region, COUNT(*), SUM(s_amount) FROM sales, store
		WHERE sales.s_store = store.st_id AND s_product = ? AND s_amount >= ? AND s_amount < ?
		GROUP BY st_region`,
	kindTopN: `SELECT s_product, SUM(s_amount) AS rev FROM sales
		WHERE s_store = ? AND s_day >= ? AND s_day < ? GROUP BY s_product
		ORDER BY rev DESC, s_product LIMIT 10`,
	kindInsert: `INSERT INTO sales (s_id, s_day, s_store, s_product, s_qty, s_amount)
		VALUES (?, ?, ?, ?, ?, ?)`,
}

// analyticsTarget runs analytic queries over the wire beside a fixed-rate
// single-row insert stream into the fact table.
type analyticsTarget struct {
	conns      int
	insertRate float64

	st     *stack
	cstmts [][]*client.Stmt // per connection, by kind
	nextID atomic.Int64
}

func newAnalytics(conns int, insertRate float64) *analyticsTarget {
	return &analyticsTarget{conns: conns, insertRate: insertRate}
}

func (t *analyticsTarget) stack() *stack { return t.st }

func (t *analyticsTarget) close() {
	if t.st != nil {
		t.st.close()
	}
}

func (t *analyticsTarget) setup(si *setupInfo, tap *tapSet) error {
	st, err := openStack(shareddb.Config{})
	if err != nil {
		return err
	}
	t.st = st
	t0 := time.Now()
	for _, ddl := range []string{
		`CREATE TABLE store (st_id INT, st_region VARCHAR, st_name VARCHAR, PRIMARY KEY (st_id))`,
		`CREATE TABLE sales (s_id INT, s_day INT, s_store INT, s_product INT, s_qty INT,
			s_amount INT, PRIMARY KEY (s_id))`,
	} {
		if _, err := st.db.Exec(ddl); err != nil {
			return fmt.Errorf("analytics schema: %w", err)
		}
	}
	loader := &countingApplier{OpApplier: st.db.Storage()}
	if err := loadAnalytics(loader); err != nil {
		return err
	}
	si.loadRows, si.loadTime = loader.rows, time.Since(t0)
	t.nextID.Store(factRows)

	if tap != nil {
		tap.on.Store(true) // record statement handles
		defer tap.on.Store(false)
	}
	if err := st.serve(t.conns, tap); err != nil {
		return err
	}
	for ci, c := range st.clients {
		var stmts []*client.Stmt
		for _, q := range analyticsSQL {
			p0 := time.Now()
			s, err := c.Prepare(q)
			if err != nil {
				return fmt.Errorf("prepare %q: %w", oneLine(q), err)
			}
			if ci == 0 {
				si.prepares = append(si.prepares, time.Since(p0))
			}
			stmts = append(stmts, s)
		}
		t.cstmts = append(t.cstmts, stmts)
	}
	return nil
}

// loadAnalytics bulk-loads the dimension and the fact table from a fixed
// seed, so every run scans the same data.
func loadAnalytics(db storage.OpApplier) error {
	rng := rand.New(rand.NewSource(7))
	var ops []storage.WriteOp
	flush := func() error {
		res, _ := db.ApplyOps(ops)
		for _, r := range res {
			if r.Err != nil {
				return fmt.Errorf("analytics load: %w", r.Err)
			}
		}
		ops = ops[:0]
		return nil
	}
	for i := 1; i <= stores; i++ {
		ops = append(ops, storage.WriteOp{Table: "store", Kind: storage.WInsert, Row: types.Row{
			types.NewInt(int64(i)), types.NewString(fmt.Sprintf("region-%d", i%regions)),
			types.NewString(fmt.Sprintf("store-%03d", i))}})
	}
	if err := flush(); err != nil {
		return err
	}
	for i := 1; i <= factRows; i++ {
		ops = append(ops, storage.WriteOp{Table: "sales", Kind: storage.WInsert, Row: factRow(rng, int64(i))})
		if len(ops) == 4096 {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	return flush()
}

func factRow(rng *rand.Rand, id int64) types.Row {
	return types.Row{
		types.NewInt(id),
		types.NewInt(int64(rng.Intn(days))),
		types.NewInt(int64(1 + rng.Intn(stores))),
		types.NewInt(int64(1 + rng.Intn(products))),
		types.NewInt(int64(1 + rng.Intn(10))),
		types.NewInt(int64(100 + rng.Intn(100_000))),
	}
}

// schedule draws the analytic queries at rate, a third of each kind, and
// the insert stream at its own fixed rate.
func (t *analyticsTarget) schedule(seed int64, rate float64, d time.Duration) []Request {
	return Schedule(seed, d,
		Stream{Rate: rate, Kinds: []int{kindGroup, kindJoin, kindTopN}, Weights: []float64{1, 1, 1}},
		Stream{Rate: t.insertRate, Kinds: []int{kindInsert}, Weights: []float64{1}})
}

func (t *analyticsTarget) primary(kind int) bool { return kind != kindInsert }

// analyticsParams draws a request's parameters from its seed: a store or a
// product and a range of days or of amounts for the queries, a fact row for
// an insert (whose id is assigned when it is sent).
func analyticsParams(kind int, seed int64) []types.Value {
	rng := rand.New(rand.NewSource(seed))
	switch kind {
	case kindJoin:
		p := 1 + rng.Intn(products)
		lo := 100 + rng.Intn(70_000)
		return []types.Value{types.NewInt(int64(p)), types.NewInt(int64(lo)), types.NewInt(int64(lo + 10_000 + rng.Intn(20_000)))}
	case kindInsert:
		return factRow(rng, 0)
	default:
		s := 1 + rng.Intn(stores)
		w := 30 + rng.Intn(150)
		lo := rng.Intn(days - w)
		return []types.Value{types.NewInt(int64(s)), types.NewInt(int64(lo)), types.NewInt(int64(lo + w))}
	}
}

func (t *analyticsTarget) do(ctx context.Context, rec *recorder, tr *reqTrace, r Request) error {
	conn := int(r.Seed % int64(len(t.cstmts)))
	params := analyticsParams(r.Kind, r.Seed)
	stmt := t.cstmts[conn][r.Kind]
	t0 := rec.now()
	var err error
	name := "client.query"
	if r.Kind == kindInsert {
		name = "client.exec"
		params[0] = types.NewInt(t.nextID.Add(1))
		_, err = stmt.ExecContext(ctx, toArgs(params)...)
	} else {
		var rows *client.Rows
		if rows, err = stmt.QueryContext(ctx, toArgs(params)...); err == nil {
			rows.All()
			err = rows.Err()
		}
	}
	t1 := rec.now()
	rec.clientCall(errors.Is(err, client.ErrOverloaded))
	if tr != nil {
		tr.add(name, t0, t1, conn, callKey(analyticsSQL[r.Kind], params))
	}
	return err
}

// check runs the correctness gate; the engine must be quiesced.
func (t *analyticsTarget) check(seed int64, _ bool) error {
	o := newOracle(t.st.db.Storage())
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < checkSamples; i++ {
		kind := i % kindInsert
		params := analyticsParams(kind, rng.Int63())
		rows, err := t.cstmts[0][kind].Query(toArgs(params)...)
		if err != nil {
			return fmt.Errorf("analytics check: %w", err)
		}
		got := rows.All()
		if err := rows.Err(); err != nil {
			return fmt.Errorf("analytics check: %w", err)
		}
		if err := o.compare(analyticsSQL[kind], params, got); err != nil {
			return err
		}
	}
	return o.err("analytics check")
}

// factTableRows is the fact table's current row count.
func (t *analyticsTarget) factTableRows() int { return int(t.nextID.Load()) }
