package main

import (
	"encoding/binary"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"shareddb/internal/types"
	"shareddb/internal/wire"
)

// maxCapture bounds the frames kept for the codec timing pass.
const maxCapture = 400_000

// tapSet is the switch and the shared epoch of every server-side connection
// wrapper of one stack. Wrappers pass bytes straight through while the
// switch is off; it is flipped only while the engine is quiesced, so both
// byte streams sit on a frame boundary when recording starts.
type tapSet struct {
	on    atomic.Bool
	epoch time.Time
}

func (ts *tapSet) wrap(nc net.Conn, idx int) *tapConn {
	return &tapConn{Conn: nc, set: ts, idx: idx,
		pending: map[uint64]pendingReq{}, prepares: map[uint64]string{}, handles: map[uint64]string{}}
}

// residence is one request's stay in the server: from the Read that
// delivered its request frame to the Write that carried its terminal frame.
type residence struct {
	conn      int
	key       string // callKey of the request
	read, end time.Duration
	busy      bool
}

type pendingReq struct {
	key  string
	read time.Duration
}

// tapConn is the net.Conn handed to Server.ServeConn in traced runs. It
// counts the server's socket reads and writes and the time spent in
// writes, captures every frame in both directions, and stamps request and
// terminal frames to measure server residence.
type tapConn struct {
	net.Conn
	set *tapSet
	idx int

	mu         sync.Mutex // reads run on the connection's reader, writes on flushers
	rbuf, wbuf []byte     // bytes of a frame not yet complete
	reads      int
	writes     int
	writeBusy  time.Duration
	bytesIn    int
	bytesOut   int
	nframes    int
	frames     [][]byte
	res        []residence
	pending    map[uint64]pendingReq
	prepares   map[uint64]string // PREPARE request id → SQL text
	handles    map[uint64]string // statement handle → SQL text
}

func (c *tapConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 && c.set.on.Load() {
		now := time.Since(c.set.epoch)
		c.mu.Lock()
		c.reads++
		c.bytesIn += n
		c.rbuf = c.consume(append(c.rbuf, p[:n]...), now)
		c.mu.Unlock()
	}
	return n, err
}

func (c *tapConn) Write(p []byte) (int, error) {
	if !c.set.on.Load() {
		return c.Conn.Write(p)
	}
	t0 := time.Now()
	n, err := c.Conn.Write(p)
	t1 := time.Now()
	c.mu.Lock()
	c.writes++
	c.writeBusy += t1.Sub(t0)
	c.bytesOut += n
	c.wbuf = c.consume(append(c.wbuf, p[:n]...), t1.Sub(c.set.epoch))
	c.mu.Unlock()
	return n, err
}

// reset drops everything recorded so far except the statement handles.
func (c *tapConn) reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.rbuf, c.wbuf = c.rbuf[:0], c.wbuf[:0]
	c.reads, c.writes, c.writeBusy, c.bytesIn, c.bytesOut, c.nframes = 0, 0, 0, 0, 0, 0
	c.frames, c.res = nil, nil
	clear(c.pending)
}

// consume splits complete frames off buf, records them, and returns the
// incomplete rest.
func (c *tapConn) consume(buf []byte, now time.Duration) []byte {
	for len(buf) >= 5 {
		n := int(binary.LittleEndian.Uint32(buf))
		if n == 0 || n > wire.MaxFrame || len(buf) < 4+n {
			break
		}
		frame := buf[:4+n]
		c.nframes++
		if len(c.frames) < maxCapture {
			c.frames = append(c.frames, append([]byte(nil), frame...))
		}
		c.note(wire.Type(frame[4]), frame[5:], now)
		buf = buf[4+n:]
	}
	return append(buf[:0:0], buf...)
}

// note tracks statement handles and the request/terminal frame pairs.
func (c *tapConn) note(t wire.Type, payload []byte, now time.Duration) {
	switch t {
	case wire.TPrepare:
		if m, err := wire.DecodePrepare(payload); err == nil {
			c.prepares[m.ID] = m.SQL
		}
	case wire.TPrepareOK:
		if m, err := wire.DecodePrepareOK(payload); err == nil {
			c.handles[m.Stmt] = c.prepares[m.ID]
			delete(c.prepares, m.ID)
		}
	case wire.TQuery, wire.TExec:
		if m, err := wire.DecodeStmtCall(payload); err == nil {
			c.pending[m.ID] = pendingReq{key: callKey(c.handles[m.Stmt], m.Params), read: now}
		}
	case wire.TRowsDone, wire.TExecOK, wire.TErr, wire.TBusy:
		id, k := binary.Uvarint(payload)
		if k <= 0 {
			return
		}
		if p, ok := c.pending[id]; ok {
			delete(c.pending, id)
			c.res = append(c.res, residence{conn: c.idx, key: p.key, read: p.read, end: now, busy: t == wire.TBusy})
		}
	}
}

// callKey names a call by statement text and parameters; the client side
// and the server side of one call compute the same key.
func callKey(sqlText string, params []types.Value) string {
	var b strings.Builder
	b.WriteString(sqlText)
	for _, v := range params {
		b.WriteByte(0x1f)
		b.WriteString(v.String())
	}
	return b.String()
}

// tapTotals sums the wrappers' counters.
type tapTotals struct {
	reads, writes int
	writeBusy     time.Duration
	bytes         int
	nframes       int
	frames        [][]byte
	residences    []residence
}

func collectTaps(taps []*tapConn) tapTotals {
	var t tapTotals
	for _, c := range taps {
		c.mu.Lock()
		t.reads += c.reads
		t.writes += c.writes
		t.writeBusy += c.writeBusy
		t.bytes += c.bytesIn + c.bytesOut
		t.nframes += c.nframes
		t.frames = append(t.frames, c.frames...)
		t.residences = append(t.residences, c.res...)
		c.mu.Unlock()
	}
	return t
}
