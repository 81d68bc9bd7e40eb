package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"shareddb"
	"shareddb/client"
	"shareddb/internal/server"
)

// stack is the system under test: the engine and, for the workloads that go
// over the wire, the in-process server behind server.New and
// Server.ServeConn with the client connections dialled to it.
type stack struct {
	db     *shareddb.DB
	walDir string

	srv      *server.Server
	ln       net.Listener
	acceptWG sync.WaitGroup
	clients  []*client.DB

	tapMu sync.Mutex
	taps  []*tapConn // server-side connection wrappers of a traced run, in client order
}

// openStack opens the engine. cfg holds only deployment settings; every
// implementation choice is left at its default.
func openStack(cfg shareddb.Config) (*stack, error) {
	db, err := shareddb.Open(cfg)
	if err != nil {
		return nil, fmt.Errorf("open engine: %w", err)
	}
	return &stack{db: db, walDir: cfg.WALDir}, nil
}

// serve starts the server on a loopback listener and dials n client
// connections to it, one after another so that accept order is client
// order. With tap set, every server-side connection is wrapped.
func (s *stack) serve(n int, tap *tapSet) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	s.ln = ln
	s.srv = server.New(s.db, server.Options{Logf: func(string, ...interface{}) {}})
	s.acceptWG.Add(1)
	go func() {
		defer s.acceptWG.Done()
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			if tap != nil {
				s.tapMu.Lock()
				tc := tap.wrap(nc, len(s.taps))
				s.taps = append(s.taps, tc)
				s.tapMu.Unlock()
				nc = tc
			}
			s.srv.ServeConn(nc)
		}
	}()
	for i := 0; i < n; i++ {
		c, err := client.OpenConfig(client.Config{Addr: ln.Addr().String(), DialTimeout: 10 * time.Second})
		if err != nil {
			return fmt.Errorf("dial client %d: %w", i, err)
		}
		s.clients = append(s.clients, c)
	}
	return nil
}

// tapConns returns the server-side connection wrappers, in client order.
func (s *stack) tapConns() []*tapConn {
	s.tapMu.Lock()
	defer s.tapMu.Unlock()
	return append([]*tapConn(nil), s.taps...)
}

// quiesce waits until the engine has no queued submission and no
// generation in flight, as seen on several consecutive polls.
func (s *stack) quiesce() error {
	deadline := time.Now().Add(30 * time.Second)
	for idle := 0; idle < 3; {
		st := s.db.Stats()
		if st.QueueDepth == 0 && st.InFlightGenerations == 0 {
			idle++
		} else {
			idle = 0
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("engine did not quiesce: queue %d, in flight %d", st.QueueDepth, st.InFlightGenerations)
		}
		time.Sleep(2 * time.Millisecond)
	}
	return nil
}

// close stops clients, server and engine, and removes the WAL directory.
func (s *stack) close() {
	for _, c := range s.clients {
		c.Close()
	}
	if s.srv != nil {
		s.ln.Close()
		s.acceptWG.Wait()
		s.srv.Close()
	}
	s.db.Close()
	if s.walDir != "" {
		os.RemoveAll(s.walDir)
	}
}

// walBytes is the total size of the files in the WAL directory.
func (s *stack) walBytes() int64 {
	if s.walDir == "" {
		return 0
	}
	var n int64
	filepath.WalkDir(s.walDir, func(_ string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if fi, err := d.Info(); err == nil {
				n += fi.Size()
			}
		}
		return nil
	})
	return n
}
