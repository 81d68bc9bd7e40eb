package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"shareddb"
	"shareddb/client"
	"shareddb/internal/storage"
	"shareddb/internal/tpcw"
	"shareddb/internal/types"
)

// tpcwTarget runs a TPC-W mix: browsing over the wire through the client
// package, ordering in process through the root API.
type tpcwTarget struct {
	wire    bool
	mix     tpcw.Mix
	conns   int
	workdir string

	st     *stack
	scale  tpcw.Scale
	gen    *tpcw.Generator
	ids    *tpcw.IDAllocator
	sqls   []string
	stmts  []*shareddb.Stmt // ordering
	cstmts [][]*client.Stmt // browsing: per connection, by statement id

	mu    sync.Mutex
	acked map[int64]int // ordering: acknowledged order id → order lines
}

func newBrowsing(conns int) *tpcwTarget {
	return &tpcwTarget{wire: true, mix: tpcw.Browsing, conns: conns}
}

func newOrdering(workdir string) *tpcwTarget {
	return &tpcwTarget{mix: tpcw.Ordering, workdir: workdir}
}

func (t *tpcwTarget) stack() *stack { return t.st }

func (t *tpcwTarget) setup(si *setupInfo, tap *tapSet) error {
	cfg := shareddb.Config{}
	if !t.wire {
		// The ordering workload's deployment: a write-ahead log on local
		// disk, fsynced once per generation write phase.
		tmp := filepath.Join(t.workdir, "tmp")
		if err := os.MkdirAll(tmp, 0o755); err != nil {
			return err
		}
		dir, err := os.MkdirTemp(tmp, "wal-")
		if err != nil {
			return err
		}
		cfg.WALDir, cfg.SyncWAL = dir, true
	}
	st, err := openStack(cfg)
	if err != nil {
		return err
	}
	t.st = st
	t.scale = tpcw.DefaultScale()
	t0 := time.Now()
	if err := tpcw.CreateSchema(st.db.Storage()); err != nil {
		return fmt.Errorf("tpcw schema: %w", err)
	}
	// A fixed data seed: every run loads the same database, and --seed
	// varies only the requests.
	t.gen = tpcw.NewGenerator(t.scale, 42)
	loader := &countingApplier{OpApplier: st.db.Storage()}
	if err := t.gen.Load(loader); err != nil {
		return fmt.Errorf("tpcw load: %w", err)
	}
	si.loadRows, si.loadTime = loader.rows, time.Since(t0)
	t.ids = tpcw.NewIDAllocator(t.gen)
	t.sqls = tpcw.StatementSQL()
	t.acked = map[int64]int{}

	if !t.wire {
		for _, q := range t.sqls {
			p0 := time.Now()
			s, err := st.db.Prepare(q)
			if err != nil {
				return fmt.Errorf("prepare %q: %w", q, err)
			}
			si.prepares = append(si.prepares, time.Since(p0))
			t.stmts = append(t.stmts, s)
		}
		return nil
	}
	if tap != nil {
		tap.on.Store(true) // record statement handles
		defer tap.on.Store(false)
	}
	if err := st.serve(t.conns, tap); err != nil {
		return err
	}
	for ci, c := range st.clients {
		var stmts []*client.Stmt
		for _, q := range t.sqls {
			p0 := time.Now()
			s, err := c.Prepare(q)
			if err != nil {
				return fmt.Errorf("prepare %q: %w", q, err)
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

func (t *tpcwTarget) close() {
	if t.st != nil {
		t.st.close()
	}
}

// weights is the mix with BuyConfirm dropped on the wire: it is the one
// interaction that needs a multi-statement transaction, which the wire
// protocol does not carry. Drawing from the rest renormalizes them.
func (t *tpcwTarget) weights() Stream {
	w := t.mix.Weights()
	var s Stream
	for i, x := range w {
		if t.wire && tpcw.Interaction(i) == tpcw.BuyConfirm {
			continue
		}
		s.Kinds = append(s.Kinds, i)
		s.Weights = append(s.Weights, x)
	}
	return s
}

func (t *tpcwTarget) schedule(seed int64, rate float64, d time.Duration) []Request {
	s := t.weights()
	s.Rate = rate
	return Schedule(seed, d, s)
}

func (t *tpcwTarget) primary(int) bool { return true }

// do runs one web interaction as a fresh emulated-browser session seeded
// by the request.
func (t *tpcwTarget) do(ctx context.Context, rec *recorder, tr *reqTrace, r Request) error {
	var sys tpcw.System
	if t.wire {
		conn := int(r.Seed % int64(len(t.cstmts)))
		sys = &wireSys{ctx: ctx, rec: rec, tr: tr, conn: conn, stmts: t.cstmts[conn], sqls: t.sqls}
	} else {
		sys = &apiSys{ctx: ctx, rec: rec, tr: tr, t: t}
	}
	return tpcw.NewSession(sys, t.scale, t.ids, r.Seed).Run(tpcw.Interaction(r.Kind))
}

func toArgs(params []types.Value) []interface{} {
	args := make([]interface{}, len(params))
	for i, p := range params {
		args[i] = p
	}
	return args
}

// wireSys is the TPC-W system over one client connection.
type wireSys struct {
	ctx   context.Context
	rec   *recorder
	tr    *reqTrace
	conn  int
	stmts []*client.Stmt
	sqls  []string
}

func (s *wireSys) Name() string { return "wire" }
func (s *wireSys) Close()       {}

func (s *wireSys) Query(id tpcw.StmtID, params ...types.Value) ([]types.Row, error) {
	t0 := s.rec.now()
	rows, err := s.stmts[id].QueryContext(s.ctx, toArgs(params)...)
	var out []types.Row
	if err == nil {
		out = rows.All()
		err = rows.Err()
	}
	s.called("client.query", id, params, t0, err)
	return out, err
}

func (s *wireSys) Exec(id tpcw.StmtID, params ...types.Value) (int, error) {
	t0 := s.rec.now()
	res, err := s.stmts[id].ExecContext(s.ctx, toArgs(params)...)
	t1 := s.called("client.exec", id, params, t0, err)
	if err != nil {
		return 0, err
	}
	s.rec.write(t1 - t0)
	return res.RowsAffected, nil
}

func (s *wireSys) called(name string, id tpcw.StmtID, params []types.Value, t0 time.Duration, err error) time.Duration {
	t1 := s.rec.now()
	s.rec.clientCall(errors.Is(err, client.ErrOverloaded))
	if s.tr != nil {
		s.tr.add(name, t0, t1, s.conn, callKey(s.sqls[id], params))
	}
	return t1
}

func (s *wireSys) ExecTx(func(tpcw.TxSink) error) error {
	return errors.New("transactions are not carried by the wire protocol")
}

// apiSys is the TPC-W system on the in-process root API.
type apiSys struct {
	ctx context.Context
	rec *recorder
	tr  *reqTrace
	t   *tpcwTarget
}

func (s *apiSys) Name() string { return "api" }
func (s *apiSys) Close()       {}

func (s *apiSys) Query(id tpcw.StmtID, params ...types.Value) ([]types.Row, error) {
	t0 := s.rec.now()
	rows, err := s.t.stmts[id].QueryContext(s.ctx, toArgs(params)...)
	t1 := s.rec.now()
	s.rec.apiCall(&s.rec.queryUs, t1-t0)
	s.tr.add("api.query", t0, t1, 0, "")
	if err != nil {
		return nil, err
	}
	return rows.All(), nil
}

func (s *apiSys) Exec(id tpcw.StmtID, params ...types.Value) (int, error) {
	t0 := s.rec.now()
	res, err := s.t.stmts[id].ExecContext(s.ctx, toArgs(params)...)
	t1 := s.rec.now()
	s.rec.apiCall(&s.rec.execUs, t1-t0)
	s.tr.add("api.exec", t0, t1, 0, "")
	if err != nil {
		return 0, err
	}
	s.rec.write(t1 - t0)
	return res.RowsAffected, nil
}

// ExecTx buffers fn's writes with DB.Begin and Tx.Exec and commits them.
// The commit wait is never cancelled: a commit's outcome must be known for
// the end-state invariants, and a cancelled wait does not undo a commit.
func (s *apiSys) ExecTx(fn func(tpcw.TxSink) error) error {
	sink := &apiTx{sys: s, tx: s.t.st.db.Begin()}
	if err := fn(sink); err != nil {
		sink.tx.Rollback()
		return err
	}
	t0 := s.rec.now()
	err := sink.tx.Commit()
	t1 := s.rec.now()
	s.rec.apiCall(&s.rec.commitUs, t1-t0)
	s.tr.add("api.commit", t0, t1, 0, "")
	s.rec.commit(errors.Is(err, storage.ErrConflict))
	if err != nil {
		return err
	}
	s.rec.write(t1 - t0)
	if sink.order != 0 {
		s.t.mu.Lock()
		s.t.acked[sink.order] = sink.lines
		s.t.mu.Unlock()
	}
	return nil
}

type apiTx struct {
	sys   *apiSys
	tx    *shareddb.Tx
	order int64 // the order this transaction enters, if any
	lines int
}

func (x *apiTx) Exec(id tpcw.StmtID, params ...types.Value) error {
	switch id {
	case tpcw.StEnterOrder:
		x.order = params[0].AsInt()
	case tpcw.StAddOrderLine:
		x.lines++
	}
	t0 := x.sys.rec.now()
	err := x.tx.Exec(x.sys.t.sqls[id], toArgs(params)...)
	x.sys.tr.add("api.tx_exec", t0, x.sys.rec.now(), 0, "")
	return err
}

// countingApplier counts the rows a bulk load applies.
type countingApplier struct {
	storage.OpApplier
	rows int
}

func (c *countingApplier) ApplyOps(ops []storage.WriteOp) ([]storage.OpResult, uint64) {
	c.rows += len(ops)
	return c.OpApplier.ApplyOps(ops)
}
