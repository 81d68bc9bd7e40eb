package main

import (
	"bytes"
	"fmt"
	"io"
	"time"

	"shareddb/internal/wire"
)

// typedMsg carries a decoded message whose Append needs its frame type.
type typedMsg struct {
	t   wire.Type
	msg interface{}
}

// decodeFrame decodes a payload with the wire package's decoder for its
// frame type.
func decodeFrame(t wire.Type, p []byte) (interface{}, error) {
	switch t {
	case wire.THello:
		m, err := wire.DecodeHello(p)
		return m, err
	case wire.THelloOK:
		m, err := wire.DecodeHelloOK(p)
		return m, err
	case wire.TPrepare:
		m, err := wire.DecodePrepare(p)
		return m, err
	case wire.TPrepareOK:
		m, err := wire.DecodePrepareOK(p)
		return m, err
	case wire.TQuery, wire.TExec:
		m, err := wire.DecodeStmtCall(p)
		return typedMsg{t, m}, err
	case wire.TQuerySQL, wire.TExecSQL, wire.TSubscribe:
		m, err := wire.DecodeSQLCall(p)
		return typedMsg{t, m}, err
	case wire.TCloseStmt, wire.TUnsubscribe:
		m, err := wire.DecodeRef(p)
		return typedMsg{t, m}, err
	case wire.TStats, wire.TPing, wire.TPong:
		m, err := wire.DecodeSimple(p)
		return typedMsg{t, m}, err
	case wire.TQuit, wire.TBye:
		return typedMsg{t, nil}, wire.DecodeEmpty(p)
	case wire.TRowsHeader:
		m, err := wire.DecodeRowsHeader(p)
		return m, err
	case wire.TRowBatch:
		m, err := wire.DecodeRowBatch(p)
		return m, err
	case wire.TRowsDone:
		m, err := wire.DecodeRowsDone(p)
		return m, err
	case wire.TExecOK:
		m, err := wire.DecodeExecOK(p)
		return m, err
	case wire.TErr:
		m, err := wire.DecodeError(p)
		return m, err
	case wire.TBusy:
		m, err := wire.DecodeBusy(p)
		return m, err
	case wire.TStatsOK:
		m, err := wire.DecodeStatsOK(p)
		return m, err
	case wire.TSubOK:
		m, err := wire.DecodeSubOK(p)
		return m, err
	case wire.TSubPush:
		m, err := wire.DecodeSubPush(p)
		return m, err
	}
	return nil, fmt.Errorf("unknown frame type %v", t)
}

// encodeFrame re-encodes a decoded message with its Append method.
func encodeFrame(dst []byte, m interface{}) []byte {
	switch m := m.(type) {
	case wire.Hello:
		return m.Append(dst)
	case wire.HelloOK:
		return m.Append(dst)
	case wire.Prepare:
		return m.Append(dst)
	case wire.PrepareOK:
		return m.Append(dst)
	case wire.RowsHeader:
		return m.Append(dst)
	case wire.RowBatch:
		return m.Append(dst)
	case wire.RowsDone:
		return m.Append(dst)
	case wire.ExecOK:
		return m.Append(dst)
	case wire.Error:
		return m.Append(dst)
	case wire.Busy:
		return m.Append(dst)
	case wire.StatsOK:
		return m.Append(dst)
	case wire.SubOK:
		return m.Append(dst)
	case wire.SubPush:
		return m.Append(dst)
	case typedMsg:
		switch v := m.msg.(type) {
		case wire.StmtCall:
			return v.Append(dst, m.t)
		case wire.SQLCall:
			return v.Append(dst, m.t)
		case wire.Ref:
			return v.Append(dst, m.t)
		case wire.Simple:
			return v.Append(dst, m.t)
		case nil:
			return wire.AppendEmpty(dst, m.t)
		}
	}
	panic(fmt.Sprintf("encodeFrame: unexpected message %T", m))
}

// codecTiming replays captured frames through the wire codec: one pass
// reads and decodes the whole stream with wire.ReadFrame and the Decode
// functions, one pass re-encodes every message with its Append. It returns
// the mean time per frame of each pass, and an error if a frame fails to
// decode or does not re-encode to its original bytes.
func codecTiming(frames [][]byte) (encodeNs, decodeNs float64, err error) {
	if len(frames) == 0 {
		return 0, 0, nil
	}
	stream := bytes.Join(frames, nil)
	msgs := make([]interface{}, 0, len(frames))
	r := bytes.NewReader(stream)
	var buf []byte
	t0 := time.Now()
	for {
		var typ wire.Type
		var payload []byte
		typ, payload, buf, err = wire.ReadFrame(r, buf)
		if err == io.EOF {
			break
		}
		if err != nil {
			return 0, 0, fmt.Errorf("wire replay: read frame %d: %w", len(msgs), err)
		}
		m, err := decodeFrame(typ, payload)
		if err != nil {
			return 0, 0, fmt.Errorf("wire replay: decode frame %d (%v): %w", len(msgs), typ, err)
		}
		msgs = append(msgs, m)
	}
	decode := time.Since(t0)

	var dst []byte
	t0 = time.Now()
	for _, m := range msgs {
		dst = encodeFrame(dst[:0], m)
	}
	encode := time.Since(t0)

	for i, m := range msgs {
		if dst = encodeFrame(dst[:0], m); !bytes.Equal(dst, frames[i]) {
			return 0, 0, fmt.Errorf("wire replay: frame %d (%v) re-encodes to different bytes", i, wire.Type(frames[i][4]))
		}
	}
	n := float64(len(msgs))
	return float64(encode.Nanoseconds()) / n, float64(decode.Nanoseconds()) / n, nil
}
