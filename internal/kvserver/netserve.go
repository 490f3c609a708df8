package kvserver

import (
	"net"
	"sync"
	"time"

	"packetstore/internal/httpmsg"
	"packetstore/internal/pkt"
)

// NetServer serves the KV protocol over operating-system TCP sockets —
// the deployment path for running the store on a real network. It is a
// transport only: accept, the MaxConns shed, the read deadline, one
// goroutine per connection. Each goroutine wraps what it reads in a
// DRAM packet buffer and hands it to the same executor the event loops
// run (handleBuf -> beginRequest -> dispatch -> finishConn), so requests
// parse, expire, count and answer exactly as on the simulated stack's
// copy path. The Go netpoller and scheduler are this transport's event
// loop; the hand-written sched (CoDel, bursts, stealing) stays with the
// simulated stack (DESIGN.md §5.17).
type NetServer struct {
	engine
	lst net.Listener
	mu  sync.Mutex
	// conns maps each live connection to the counters its goroutine
	// counts into — one set per connection, so two cores never bump the
	// same cache line per request; gone holds closed connections' totals
	// and the accept layer's sheds.
	conns  map[net.Conn]*statsCounters
	gone   Stats
	closed bool
	wg     sync.WaitGroup
}

// NewNetServer wraps an OS listener.
func NewNetServer(lst net.Listener, backend Backend) *NetServer {
	return NewNetServerWithConfig(lst, backend, Config{})
}

// NewNetServerWithConfig wraps an OS listener with overload tuning:
// Config.MaxConns sheds connections beyond the cap with a 503,
// Config.IdleTimeout bounds every read so a stalled client cannot hold a
// serving goroutine forever, and Config.Overload.Enabled refuses
// requests whose X-Budget-Us lapsed.
func NewNetServerWithConfig(lst net.Listener, backend Backend, cfg Config) *NetServer {
	s := &NetServer{lst: lst, conns: make(map[net.Conn]*statsCounters)}
	s.init(backend, cfg, s.LoopStats)
	return s
}

// LoopStats is the counters in the per-loop shape Healer.SetLoopSource
// takes: connections come and go, so they report as one loop.
func (s *NetServer) LoopStats() []Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.gone
	for _, cs := range s.conns {
		out.merge(cs.Snapshot())
	}
	return []Stats{out}
}

// Serve accepts and services connections until Close.
func (s *NetServer) Serve() error {
	for {
		c, err := s.lst.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				s.wg.Wait()
				return nil
			}
			return err
		}
		cs := new(statsCounters)
		s.mu.Lock()
		full := s.cfg.MaxConns > 0 && len(s.conns) >= s.cfg.MaxConns
		if full {
			s.gone.Sheds++
		} else {
			s.conns[c] = cs
		}
		s.mu.Unlock()
		if full {
			c.Write(httpmsg.AppendResponseRetryAfter(nil, 503, 0, s.cfg.Overload.RetryAfter.Milliseconds()))
			c.Close()
			continue
		}
		s.wg.Add(1)
		go s.serveConn(c, cs)
	}
}

// Close stops accepting and closes live connections.
func (s *NetServer) Close() {
	s.mu.Lock()
	s.closed = true
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.lst.Close()
	s.wg.Wait()
}

// serveConn is one connection's producer of packet buffers for the
// engine. The buffer's Time is the chunk's arrival stamp: pipelined
// requests deeper in the chunk age against it while earlier ones
// execute, so a backlog on this connection shows up as lapsed budgets.
func (s *NetServer) serveConn(c net.Conn, cs *statsCounters) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, c)
		s.gone.merge(cs.Snapshot())
		s.mu.Unlock()
		c.Close()
	}()

	st := newConnState(c, nil)
	x := executor{eng: &s.engine, stats: cs, shard: -1}
	rbuf := make([]byte, 64<<10)
	for !st.dead {
		if s.cfg.IdleTimeout > 0 {
			c.SetReadDeadline(time.Now().Add(s.cfg.IdleTimeout))
		}
		n, err := c.Read(rbuf)
		if err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				cs.idleClosed.Add(1)
			}
			return
		}
		at := time.Now()
		b := pkt.NewBuf(rbuf[:n])
		b.Time = at
		x.handleBuf(st, b, false)
		x.finishConn(st)
		cs.busyNanos.Add(int64(time.Since(at)))
	}
}
