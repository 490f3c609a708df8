package kvserver

import (
	"errors"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"packetstore/internal/checksum"
	"packetstore/internal/core"
	"packetstore/internal/httpmsg"
	"packetstore/internal/kvproto"
	"packetstore/internal/pkt"
	"packetstore/internal/tcp"
)

// Config tunes the server's overload and robustness behaviour. The zero
// value imposes no connection cap and no idle timeout (the original
// trusted-testbed behaviour).
type Config struct {
	// MaxConns caps connections per event loop. A connection accepted
	// beyond the cap is shed: it gets a 503 response and is closed
	// immediately, so one loop's state stays bounded no matter how many
	// clients pile on. 0 means unlimited.
	MaxConns int
	// IdleTimeout closes a connection that has not delivered a request
	// for this long — a stalled or wedged client cannot pin an event
	// loop's resources forever. 0 disables.
	IdleTimeout time.Duration
	// MaxBatch enables group commit: an event loop drains up to MaxBatch
	// readable connections per cycle, stages their PUTs, commits them
	// under one group flush+fence, and only then sends the whole burst's
	// responses — so every ack still follows its record's fence.
	// Adaptive cutoff: a burst of one is serviced exactly like the
	// unbatched path, so unloaded latency does not regress. 0 or 1
	// disables batching.
	MaxBatch int
	// LoopNodes declares each event loop's NUMA node, indexed by RSS
	// queue: the loop's executor stamps the node onto the store it
	// drives so the PM simulator bills cross-socket lines at the remote
	// rate. Nil falls back to the NIC's per-queue interrupt nodes
	// (nic.Config.QueueNodes), which default to node 0 everywhere — the
	// single-socket no-op.
	LoopNodes []int
	// Overload configures deadline-aware admission (see
	// OverloadConfig). Disabled by default.
	Overload OverloadConfig
}

// OverloadConfig tunes deadline-aware admission (Config.Overload). Zero
// value: disabled — the server keeps the binary MaxConns shed and
// executes every parsed request.
type OverloadConfig struct {
	// Enabled turns on doomed-work elimination: a request whose
	// X-Budget-Us budget lapsed before execution is answered 503
	// instead of executed.
	Enabled bool
	// RetryAfter is the backoff hint (Retry-After-Ms) attached to
	// overload 503s — accept-cap sheds and expired-budget drops.
	// Default 25ms.
	RetryAfter time.Duration
}

func (c *Config) fill() {
	if c.Overload.RetryAfter <= 0 {
		c.Overload.RetryAfter = 25 * time.Millisecond
	}
}

// Server is the storage server application. One event-loop goroutine per
// NIC RSS queue emulates the paper's run-to-completion server cores. With
// a sharded packetstore, loop q serves the store shard whose PM partition
// backs queue q's receive pool and no other: the NIC DMAs a flow's
// payloads straight into the partition of the shard that will index
// them (DESIGN.md §5.7), and that shard's staged group is only ever
// touched by its one loop. With one queue and one shard this degenerates
// to the original single-core loop.
type Server struct {
	engine
	stk   *tcp.Stack
	lst   *tcp.Listener
	loops []*loop
	done  chan struct{}
	ret   chan struct{}
}

// engine is what the request executor reads off its server. Server (event
// loops over the simulated stack) and NetServer (one goroutine per OS
// socket) each embed one, so a request parses, dispatches, expires and
// counts the same way whichever transport carried it.
type engine struct {
	backend Backend
	sharded *core.ShardedStore // non-nil for packetstore backends
	cfg     Config
	// numaOn caches whether a multi-node placement is installed on the
	// backing store: the per-cycle node stamp is skipped entirely when
	// single-node, keeping Nodes=1 a strict no-op on the hot path.
	numaOn bool
	// maxBody is the most value bytes one shard's data area can ever hold
	// (DataSlots x DataBufSize); a PUT declaring more is refused before
	// its body is buffered. 0 (no packetstore behind the server) = no bound.
	maxBody int
	// loopStats is the embedding server's per-loop counter view, the
	// source of the health report's loops and overload sections.
	loopStats func() []Stats
	// healer, once installed (SetHealer), adds its scrub and rebuild
	// state to the health report.
	healer atomic.Pointer[Healer]
}

func (e *engine) init(backend Backend, cfg Config, loopStats func() []Stats) {
	cfg.fill()
	e.backend, e.cfg, e.loopStats = backend, cfg, loopStats
	switch b := backend.(type) {
	case PktStore:
		e.sharded = core.WrapSharded(b.S)
	case ShardedPktStore:
		e.sharded = b.S
	}
	if e.sharded != nil {
		e.numaOn = e.sharded.NUMANodes() > 1
		_, e.maxBody = e.sharded.DataAreaBounds(0)
	}
}

// SetHealer adds h's scrub and rebuild state to the GET /healthz
// report; every other section is the server's own.
func (e *engine) SetHealer(h *Healer) { e.healer.Store(h) }

// Stats aggregates every loop's counters (Server.LoopStats, or all of a
// NetServer's connections as one) into one snapshot, plus the store's
// shard-health and redundancy gauges.
func (e *engine) Stats() Stats {
	var out Stats
	for _, ls := range e.loopStats() {
		out.merge(ls)
	}
	if e.sharded == nil {
		return out
	}
	out.ShardsDown = e.sharded.DownShards()
	st := e.sharded.Stats()
	out.ParityWrites = st.ParityWrites
	out.Reconstructions = st.Reconstructions
	out.UnrecoverableSlots = st.UnrecoverableSlots
	out.SlotsHeld = st.SlotsHeld
	out.FastGets = st.FastGets
	out.FastGetRetries = st.FastGetRetries
	out.FastGetFallbacks = st.FastGetFallbacks
	return out
}

// loop is one event-loop "core": it serves the connections whose flows
// RSS to its queue and — in sharded mode — the store shard backing that
// queue's receive pool. Everything on it is touched only by the loop's
// own goroutine, except the qlen gauge that LoopStats reads from others.
type loop struct {
	srv   *Server
	q     int
	node  int // NUMA node this loop's core runs on (Config.LoopNodes)
	stats statsCounters

	// conns is the table of connections homed on this loop's queue and
	// runq those of them that are readable and waiting for a service
	// cycle (connState.queued).
	conns map[*tcp.Conn]*connState
	runq  []*connState
	// qlen mirrors len(runq) for the QueueDepth gauge.
	qlen atomic.Int32
	// accept is the shared listener queue (set by Run); every loop drains
	// it, and drain/gather poll it mid-cycle so a saturated loop cannot
	// starve handshake completion (see drainAccepts).
	accept <-chan *tcp.Conn

	// arena is the key-copy arena inside this loop's shard.
	arena keyArena
	// burst is the reusable batch list for service cycles.
	burst []*connState
	// exec is this loop's request executor. Its store is the loop's
	// shard for the zero-copy paths (nil = copy only).
	exec executor
}

// keyArena is a loop's key-copy arena: one pinned data slot of its
// shard, where small key copies land so records can reference them
// (values are never copied). epoch is the shard's rebuild epoch when the
// slot was cut (see allocKey).
type keyArena struct {
	epoch uint64
	off   int
	used  int
	unpin func()
}

// New creates a server listening on port, with one event loop per NIC
// RSS queue. If backend is PktStore or ShardedPktStore and a loop's
// receive pool is a store shard's PM pool, that loop's zero-copy paths
// activate automatically.
func New(stk *tcp.Stack, port uint16, backend Backend) (*Server, error) {
	return NewWithConfig(stk, port, backend, Config{})
}

// NewWithConfig is New with overload/robustness tuning.
func NewWithConfig(stk *tcp.Stack, port uint16, backend Backend, cfg Config) (*Server, error) {
	lst, err := stk.Listen(port)
	if err != nil {
		return nil, err
	}
	s := &Server{stk: stk, lst: lst, done: make(chan struct{}), ret: make(chan struct{})}
	s.init(backend, cfg, s.LoopStats)
	nq := stk.Queues()
	s.loops = make([]*loop, nq)
	for q := 0; q < nq; q++ {
		lp := &loop{
			srv:   s,
			q:     q,
			node:  stk.NIC().NodeOfQueue(q),
			conns: make(map[*tcp.Conn]*connState),
		}
		lp.exec = executor{eng: &s.engine, stats: &lp.stats, lp: lp, shard: -1}
		if q < len(s.cfg.LoopNodes) {
			lp.node = s.cfg.LoopNodes[q]
		}
		if s.sharded != nil {
			pool := stk.NIC().RxPoolQ(q)
			for i := 0; i < s.sharded.Shards(); i++ {
				// Shard returns nil for a quarantined shard — its queue's
				// loop then runs copy-path only, like a DRAM-pool loop.
				if sh := s.sharded.Shard(i); sh != nil && sh.Pool() == pool {
					lp.exec.store, lp.exec.shard = sh, i
					break
				}
			}
		}
		s.loops[q] = lp
	}
	return s, nil
}

// LoopStats returns each event loop's own snapshot, indexed by RSS
// queue — the per-core view of a sharded deployment. QueueDepth is
// sampled live, so persistent skew is directly observable here (and in
// GET /healthz).
func (s *Server) LoopStats() []Stats {
	out := make([]Stats, len(s.loops))
	for i, lp := range s.loops {
		out[i] = lp.stats.Snapshot()
		out[i].QueueDepth = lp.depth()
		out[i].Node = lp.node
	}
	return out
}

// Run services the event loops until Close. The caller's goroutine runs
// loop 0; loops 1..n-1 get their own goroutines — the per-core serving
// threads of the sharded deployment. Every loop drains the shared
// accept channel: an accepted connection is registered by its home loop
// or simply dropped from the queue (its home loop admits it lazily on
// first readable), so handshakes complete even while one loop is
// saturated — under placement skew the hot loop is exactly the one with
// no select bandwidth to spare for accepts.
func (s *Server) Run() {
	defer close(s.ret)
	var wg sync.WaitGroup
	for _, lp := range s.loops {
		lp.accept = s.lst.AcceptCh()
	}
	for _, lp := range s.loops[1:] {
		wg.Add(1)
		go func(lp *loop) {
			defer wg.Done()
			lp.run()
		}(lp)
	}
	s.loops[0].run()
	wg.Wait()
}

// Close stops the server loops.
func (s *Server) Close() {
	select {
	case <-s.done:
		return
	default:
	}
	close(s.done)
	<-s.ret
	s.lst.Close()
}

// ready is always receivable: run selects on it while the run queue
// still holds connections, so a drain that spent its cycle budget
// resumes as soon as accepts, shutdown and ticks have had their turn.
var ready = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

// run is one loop's event cycle.
func (lp *loop) run() {
	s := lp.srv
	rx := s.stk.ReadableQ(lp.q)
	var idleTick <-chan time.Time
	if s.cfg.IdleTimeout > 0 {
		period := s.cfg.IdleTimeout / 4
		if period < time.Millisecond {
			period = time.Millisecond
		}
		t := time.NewTicker(period)
		defer t.Stop()
		idleTick = t.C
	}
	for {
		if !lp.drainAccepts() {
			return
		}
		var more <-chan struct{}
		if len(lp.runq) > 0 {
			more = ready
		}
		select {
		case <-s.done:
			return
		case c, ok := <-lp.accept:
			if !ok {
				return
			}
			// Register only flows RSS-steered to this loop's queue; the
			// home loop picks its conns up lazily on first readable.
			if c.RxQueue() == lp.q {
				lp.register(c)
			}
		case c, ok := <-rx:
			if !ok {
				return
			}
			c.ClearReady()
			lp.noteReady(c)
			lp.drain(rx)
		case <-more:
			lp.drain(rx)
		case now := <-idleTick:
			lp.sweepIdle(now)
		}
	}
}

// register admits an accepted connection to this loop's table without
// queueing it (it becomes runnable on its first readable event), unless
// the loop is at its MaxConns cap.
func (lp *loop) register(c *tcp.Conn) {
	if lp.conns[c] != nil {
		return
	}
	if max := lp.srv.cfg.MaxConns; max > 0 && len(lp.conns) >= max {
		lp.shed(c)
		return
	}
	lp.conns[c] = newConnState(c, c)
}

// noteReady records a readable event for c: the connection is admitted
// (registered on first contact, or shed at the MaxConns cap) and pushed
// onto the run queue unless it is already there.
func (lp *loop) noteReady(c *tcp.Conn) {
	st := lp.conns[c]
	if st == nil {
		if max := lp.srv.cfg.MaxConns; max > 0 && len(lp.conns) >= max {
			lp.shed(c)
			return
		}
		st = newConnState(c, c)
		lp.conns[c] = st
	}
	if st.queued || st.dead {
		return
	}
	st.queued = true
	st.readyAt = time.Now()
	// With overload control on, anchor the queue-entry stamp at the
	// arrival time persisted in the oldest pending packet buffer rather
	// than at this wakeup: ready-channel and scheduler delays upstream of
	// the run queue are queueing too, and anchoring at wakeup would hide
	// them from the queue delay and the request deadline.
	if lp.srv.cfg.Overload.Enabled {
		if arrival := c.OldestRxTime(); !arrival.IsZero() && arrival.Before(st.readyAt) {
			st.readyAt = arrival
		}
	}
	lp.runq = append(lp.runq, st)
	lp.qlen.Store(int32(len(lp.runq)))
}

// popBatch takes up to max runnable connections off the run queue,
// appending them to out. With Config.Overload enabled it also adds each
// connection's run-queue sojourn to the QueueDelay counter.
func (lp *loop) popBatch(out []*connState, max int) []*connState {
	overload := lp.srv.cfg.Overload.Enabled
	var now time.Time
	var sumSojourn time.Duration
	q := lp.runq
	n := 0
	for n < len(q) && len(out) < max {
		st := q[n]
		n++
		st.queued = false
		if st.dead {
			continue
		}
		out = append(out, st)
		if overload {
			if now.IsZero() {
				now = time.Now()
			}
			sumSojourn += now.Sub(st.readyAt)
		}
	}
	// Shift the consumed prefix out, nilling the vacated tail so the
	// backing array does not retain dead connStates.
	copy(q, q[n:])
	for i := len(q) - n; i < len(q); i++ {
		q[i] = nil
	}
	q = q[:len(q)-n]
	if overload && !now.IsZero() {
		lp.stats.queueDelayNanos.Add(int64(sumSojourn))
	}
	lp.runq = q
	lp.qlen.Store(int32(len(q)))
	return out
}

// depth is the QueueDepth gauge: undrained stack ready events + NIC rx
// ring occupancy + queued run-queue connections on this loop.
func (lp *loop) depth() int {
	s := lp.srv
	return s.stk.ReadyLenQ(lp.q) + s.stk.NIC().RxQueueLen(lp.q) + int(lp.qlen.Load())
}

// batchMax is the batch size for one service cycle.
func (lp *loop) batchMax() int {
	m := lp.srv.cfg.MaxBatch
	if m > 1 {
		return m
	}
	return 1
}

// drainCycles bounds the service cycles one drain call may run before
// control returns to the loop's select. Without the bound a
// continuously-busy run queue (sustained load, or a retransmission storm
// feeding events faster than the two-yield gather window) starves
// accepts and the shutdown path forever — the select is the only place
// they are heard.
const drainCycles = 8

// drain runs service cycles on this loop's run queue until it is empty
// or the cycle budget runs out; in the latter case run's select comes
// straight back here (its ready case) after giving accepts, shutdown and
// ticks a chance. With batching enabled each cycle first gathers more
// readable events via a bounded busy-poll, so group-commit bursts form.
func (lp *loop) drain(rx <-chan *tcp.Conn) {
	for i := 0; i < drainCycles; i++ {
		select {
		case <-lp.srv.done:
			return
		default:
		}
		lp.drainAccepts()
		if lp.srv.cfg.MaxBatch > 1 {
			lp.gather(rx)
		}
		lp.burst = lp.popBatch(lp.burst[:0], lp.batchMax())
		if len(lp.burst) == 0 {
			return
		}
		lp.exec.runCycle(lp.burst)
	}
}

// drainAccepts empties the shared accept queue without blocking; it
// returns false when the listener has closed. Registering is a map
// insert (or a drop, for another loop's flow) — far cheaper than a
// service cycle — yet the run select picks among ready cases at random,
// so a loop saturated enough to re-enter drain through its ready case
// hears accepts rarely; worse, on a single CPU gather's scheduler yields
// are exactly when dialing clients make progress, so handshakes complete
// fastest while every loop is mid-cycle. Unchecked, the listener backlog
// overflows and resets connections whose dials already succeeded. drain
// and gather therefore poll this between cycles, bounding the queue by
// one service cycle.
func (lp *loop) drainAccepts() (open bool) {
	for {
		select {
		case c, ok := <-lp.accept:
			if !ok {
				lp.accept = nil // closed: a nil channel never selects
				return false
			}
			if c.RxQueue() == lp.q {
				lp.register(c)
			}
		default:
			return true
		}
	}
}

// gather is the burst-formation busy-poll: an empty ready queue does not
// mean no work is coming — the NIC and stack pipelines may be
// mid-delivery (on a single core the scheduler interleaves them with
// this loop at fine grain, so the queue rarely holds more than one event
// at the instant we look). Yield a few times to let deliveries land; two
// consecutive empty polls means the batch has genuinely drained, so an
// unloaded connection pays at most two scheduler yields. The overall
// poll budget keeps a stream of events that never grows the run queue
// (retransmissions for dead connections) from pinning the loop here.
func (lp *loop) gather(rx <-chan *tcp.Conn) {
	idle := 0
	target := lp.batchMax()
	budget := 4 * target
	for polls := 0; len(lp.runq) < target && idle < 2 && polls < budget; polls++ {
		select {
		case c, ok := <-rx:
			if !ok {
				return
			}
			idle = 0
			c.ClearReady()
			lp.noteReady(c)
		default:
			idle++
			lp.drainAccepts()
			runtime.Gosched()
		}
	}
}

// shed rejects a connection at the MaxConns cap: the client gets an
// immediate 503 (with the Retry-After-Ms pacing hint) and the
// connection closes, keeping per-loop state bounded under connection
// floods.
func (lp *loop) shed(c *tcp.Conn) {
	lp.stats.sheds.Add(1)
	resp := httpmsg.AppendResponseRetryAfter(nil, 503, 0, lp.srv.cfg.Overload.RetryAfter.Milliseconds())
	c.Write(resp)
	c.Close()
}

// sweepIdle closes connections that have not delivered a request within
// the idle timeout, so a stalled client cannot wedge the loop's
// resources.
func (lp *loop) sweepIdle(now time.Time) {
	for _, st := range lp.conns {
		if now.Sub(st.lastActive) > lp.srv.cfg.IdleTimeout {
			lp.stats.idleClosed.Add(1)
			lp.reap(st)
		}
	}
}

// reap tears one of this loop's connections down and releases anything
// its half-assembled request adopted.
func (lp *loop) reap(st *connState) {
	if st.cur != nil {
		for _, base := range st.cur.adopted {
			lp.exec.store.ReleaseUnused(base)
		}
		st.cur = nil
	}
	st.c.Close()
	st.dead = true
	delete(lp.conns, st.tc)
}

// connState is one connection as the request engine sees it: where its
// responses go, its parser, and the request still assembling. The
// engine never reads from a connection — its transport hands it packet
// buffers (executor.handleBuf) — so an OS socket needs nothing more.
type connState struct {
	c io.WriteCloser
	// tc is the simulated stack's connection, nil on an OS socket: the
	// receive queue the event loops drain, the loop's conns key, the
	// asynchronous EOF/error state, and the fragment transmit behind
	// zeroCopyGet (reached only with a PM receive pool, so never with a
	// socket).
	tc     *tcp.Conn
	parser *httpmsg.RequestParser
	cur    *pendingReq
	resp   []byte
	dead   bool
	// queued: sitting in the loop's run queue.
	queued bool
	// readyAt is when the connection last entered the run queue — with
	// overload control on, backdated to the arrival stamp of its oldest
	// pending packet, so delivery delays upstream of the queue count.
	// Set by noteReady: the base of the QueueDelay sum and a fallback
	// anchor for the request deadline (+ client budget).
	readyAt time.Time
	// lastActive is the last time the connection delivered bytes; the
	// idle sweep closes connections stalled past Config.IdleTimeout.
	lastActive time.Time
}

// pendingReq is a request whose body may still be arriving.
type pendingReq struct {
	req kvproto.Request
	// health marks GET /healthz, the one request the engine answers
	// itself instead of parsing as a KV operation.
	health bool
	// refuse, when nonzero, is the status this request gets instead of
	// executing, known once its header completed: 400 for an unparsable
	// method or path, 507 for a PUT whose key the shard's arena has no
	// room for or whose declared length exceeds what the shard's data
	// area can ever hold (engine.maxBody). It is answered as soon as the
	// requests ahead of it in the pipeline are — answered records that —
	// and its body is parsed past but never buffered, so a client cannot
	// make the server hold bytes it will not store.
	refuse   int
	answered bool
	// deadline is when the client's latency budget lapses (readyAt +
	// X-Budget-Us); zero when the client sent no budget or overload
	// control is off. A request past it at dispatch is answered 503
	// without executing — the client has already given up on it.
	deadline time.Time
	// Zero-copy PUT assembly.
	keyOff int
	exts   []core.Extent
	sumsOK bool
	hwtime time.Time
	vlen   int
	// Copy-path body.
	body []byte
	// adopted data-slot bases whose release is deferred until this
	// request resolves (body spans multiple packets).
	adopted []int
}

func newConnState(c io.WriteCloser, tc *tcp.Conn) *connState {
	return &connState{c: c, tc: tc, parser: httpmsg.NewRequestParser(0), lastActive: time.Now()}
}

// executor is the request engine: handleBuf -> beginRequest -> dispatch
// -> finishConn is the only path a request takes through this package.
// Each event loop owns one and runs its service cycles with it against
// the loop's own connections and shard. A NetServer connection goroutine
// owns one with no loop and no store — the copy-path executor a
// DRAM-pool loop is.
type executor struct {
	eng   *engine
	stats *statsCounters // the loop's, or the socket connection's
	lp    *loop          // nil on a socket
	store *core.Store    // the loop's shard; nil = copy path only
	shard int            // index of store within eng.sharded (-1 if none)

	// cycleEpoch is the shard's rebuild epoch (core.Store.Epoch)
	// snapshotted when the current service cycle began, before any PUT
	// was staged. cycleBad marks the cycle poisoned: an online rebuild
	// dropped staged puts whose acks are already buffered, so commitGroup
	// failed its post-commit check and every response buffered this
	// cycle is discarded (the connections close instead of acking).
	cycleEpoch uint64
	cycleBad   bool
	// stagedOps counts puts staged into the shard's group this cycle.
	// Zero means there is no group to commit: commitGroup then skips the
	// store's Commit round trip (and the acked-write gate re-check, which
	// only protects staged acks), so a GET-only cycle never takes the
	// shard mutex.
	stagedOps int
}

// runCycle services one batch. A batch of one (or batching
// disabled) takes the unbatched path — immediate per-op commits and
// responses, the adaptive cutoff that keeps unloaded latency flat.
// Larger batches run the group-commit protocol: stage every zero-copy
// PUT, one flush+fence for the whole group, then flush all the acks.
func (x *executor) runCycle(batch []*connState) {
	if len(batch) == 1 || x.eng.cfg.MaxBatch <= 1 {
		for _, st := range batch {
			x.service(st)
		}
		return
	}
	x.beginCycle()
	for _, st := range batch {
		x.serviceConn(st, true)
	}
	x.commitGroup()
	x.stats.groupCommits.Add(1)
	x.stats.groupedConns.Add(uint64(len(batch)))
	for _, st := range batch {
		x.finishConn(st)
	}
}

// service drains all pending packet buffers on one connection and
// responds immediately — the unbatched cycle.
func (x *executor) service(st *connState) {
	x.beginCycle()
	x.serviceConn(st, false)
	x.finishConn(st)
}

// beginCycle arms the acked-write gate for one service cycle: it
// snapshots the shard's rebuild epoch before anything is staged,
// so commitGroup can later prove the staged records survived to their
// fence.
func (x *executor) beginCycle() {
	x.cycleBad = false
	if x.store != nil {
		x.cycleEpoch = x.store.Epoch()
		if x.eng.numaOn {
			// Declare which socket drives this cycle: every PM charge the
			// cycle issues bills cross-socket lines at the remote rate.
			x.store.SetNUMANode(x.lp.node)
		}
	}
}

// servingSelf reports whether the loop's shard currently serves through
// the very Store object this executor's zero-copy paths use.
// ServingStore resolves the serving check and the store identity under
// one lock: a mismatch means the shard is down, rebuilding, or was
// replaced by a rebuild. Both the zero-copy PUT and GET paths gate on
// it, so a quarantined or mid-rebuild shard is never read or written
// through the stale store pointer.
func (x *executor) servingSelf() bool {
	st, err := x.eng.sharded.ServingStore(x.shard)
	return err == nil && st == x.store
}

// commitGroup commits the shard's staged group, then verifies the
// cycle's buffered acks are safe to flush: the shard must still be
// serving through the same Store object and rebuild epoch the cycle
// started with. A mismatch means an online rebuild (Store.Rehydrate)
// may have dropped staged puts whose 200s are already buffered — the
// cycle is poisoned (cycleBad) and its connections abort instead of
// acking writes that were never made durable.
func (x *executor) commitGroup() bool {
	if x.store == nil {
		return true
	}
	if x.stagedOps == 0 {
		// Nothing staged this cycle — there is no group to commit and no
		// buffered staged-PUT ack for the epoch gate to protect. Skip the
		// Commit round trip and the Epoch read (both take the shard
		// mutex, which would put every lock-free GET of a read-only
		// cycle right back behind the write path). The serving check
		// stays: it resolves at the shard map, and a cycle whose shard
		// quarantined or was replaced mid-flight must not flush its
		// buffered responses as if the shard were healthy.
		if !x.cycleBad && !x.servingSelf() {
			x.cycleBad = true
		}
		return !x.cycleBad
	}
	x.stagedOps = 0
	x.store.Commit()
	if !x.cycleBad && (!x.servingSelf() || x.store.Epoch() != x.cycleEpoch) {
		x.cycleBad = true
	}
	return !x.cycleBad
}

// serviceConn drains one connection's pending packet buffers. With
// staged set, zero-copy PUTs stage into the shard's group commit and
// their responses stay buffered until the caller commits and flushes.
func (x *executor) serviceConn(st *connState, staged bool) {
	if st.dead {
		return
	}
	t0 := time.Now()
	st.lastActive = t0
	defer func() { x.stats.busyNanos.Add(int64(time.Since(t0))) }()
	for {
		bufs := st.tc.TryReadBufs()
		if bufs == nil {
			break
		}
		for _, b := range bufs {
			x.handleBuf(st, b, staged)
		}
	}
}

// finishConn sends a connection's buffered responses and reaps it on
// death, EOF or error. In a poisoned cycle (an online rebuild dropped
// staged puts whose acks are buffered) the responses are discarded and
// the connection fails instead.
func (x *executor) finishConn(st *connState) {
	if x.cycleBad {
		x.abortConn(st)
		return
	}
	x.flushResp(st)
	if tc := st.tc; tc != nil && (tc.EOF() || tc.Err() != nil) {
		x.reap(st)
	}
}

// reap tears a connection down. An event loop's connection also leaves
// its loop's table and releases what its half-assembled request adopted;
// a socket has neither, and marking it dead ends its serving goroutine.
func (x *executor) reap(st *connState) {
	if x.lp != nil {
		x.lp.reap(st)
		return
	}
	st.c.Close()
	st.dead = true
}

// abortConn fails a connection whose buffered responses can no longer
// be trusted: the bytes are discarded and the connection closes, so the
// client sees a reset — a retryable transient per kvclient.Transient —
// instead of an ack for a write that may not exist.
func (x *executor) abortConn(st *connState) {
	st.resp = st.resp[:0]
	x.stats.ackAborts.Add(1)
	x.reap(st)
}

// bodySpan is a byte range of one packet payload belonging to a request
// body.
type bodySpan struct {
	off, n int
	pr     *pendingReq
}

// handleBuf processes one received packet buffer.
func (x *executor) handleBuf(st *connState, b *pkt.Buf, staged bool) {
	p := b.Bytes()
	zc := x.store != nil && b.PMOff() >= 0
	if zc && x.eng.sharded != nil && x.eng.sharded.ShardByOff(b.PMOff()) != x.shard {
		// The packet landed in a PM partition other than the loop's
		// shard's — the loop's rx pool is not the shard's pool.
		// Adopting it would hand one shard's data slot to another shard's
		// allocator, so fall back to the copy path and count it.
		zc = false
		x.stats.zcFallbacks.Add(1)
	}
	x.stats.bytesIn.Add(uint64(len(p)))
	t0 := time.Now()

	// Stack room for the usual one or two requests per packet buffer;
	// a deeper pipeline spills to the heap.
	var spanBuf [4]bodySpan
	var doneBuf [4]*pendingReq
	spans, completed := spanBuf[:0], doneBuf[:0]
	pos := 0
	for pos < len(p) {
		if st.cur == nil {
			st.parser.Reset()
			st.cur = &pendingReq{keyOff: -1}
		}
		res := st.parser.Feed(p[pos:])
		if res.Err != nil || (res.Consumed == 0 && !res.Done) {
			// Malformed — or stalled: the parser always progresses, but
			// never spin.
			x.protocolError(st)
			b.Release()
			return
		}
		if res.HeaderDone {
			x.beginRequest(st, b, zc)
		}
		if res.Body.Len > 0 {
			spans = append(spans, bodySpan{off: pos + res.Body.Off, n: res.Body.Len, pr: st.cur})
		}
		pos += res.Consumed
		if res.Done {
			completed = append(completed, st.cur)
			st.cur = nil
		}
	}
	x.stats.parseNanos.Add(int64(time.Since(t0)))

	adoptedBase := -1
	if len(spans) > 0 {
		// A span stores zero-copy only if its PUT's key hashes to the
		// loop's shard (keyOff >= 0); misaligned PUTs fall back to the
		// copy path so correctness never depends on client alignment.
		anyZC := false
		for _, sp := range spans {
			if sp.pr.req.Op != kvproto.OpPut || sp.pr.refuse != 0 {
				continue
			}
			if sp.pr.keyOff >= 0 {
				anyZC = true
			} else {
				sp.pr.body = append(sp.pr.body, p[sp.off:sp.off+sp.n]...)
			}
		}
		if anyZC {
			adoptedBase = x.store.AdoptBuf(b)
			x.attachSpansZeroCopy(b, p, spans)
		}
	}

	for _, pr := range completed {
		x.dispatch(st, pr, staged)
	}
	if st.cur != nil && st.cur.refuse != 0 {
		x.refuse(st, st.cur)
	}
	b.Release()
	if adoptedBase >= 0 {
		if st.cur != nil {
			// A request is still assembling across packets: its extents
			// may reference this slot, so defer the release until it
			// resolves.
			st.cur.adopted = append(st.cur.adopted, adoptedBase)
		} else {
			x.store.ReleaseUnused(adoptedBase)
		}
	}
}

// beginRequest parses the request line once headers complete.
func (x *executor) beginRequest(st *connState, b *pkt.Buf, zc bool) {
	hreq := st.parser.Request()
	pr := st.cur
	if hreq.Method == "GET" && hreq.Path == "/healthz" {
		pr.health = true
		return
	}
	req, err := kvproto.Parse(hreq.Method, hreq.Path)
	pr.vlen = hreq.ContentLength
	pr.hwtime = b.HWTime
	if err != nil {
		pr.refuse = 400
		return
	}
	pr.req = req
	if req.Op == kvproto.OpPut && x.eng.maxBody > 0 && pr.vlen > x.eng.maxBody {
		pr.refuse = 507
		return
	}
	if hreq.BudgetUs > 0 && x.eng.cfg.Overload.Enabled {
		pr.req.Budget = time.Duration(hreq.BudgetUs) * time.Microsecond
		// Anchor at the arrival stamp persisted in the packet buffer that
		// carried this request's header (NIC hardware stamp when
		// offloaded, stack software stamp otherwise): the budget then
		// covers every wait the request has suffered since it reached the
		// host — socket queues, ready channels, run queue — not just the
		// parse-to-dispatch gap.
		anchor := b.HWTime
		if anchor.IsZero() {
			anchor = b.Time
		}
		if anchor.IsZero() {
			anchor = st.readyAt
		}
		if anchor.IsZero() {
			anchor = time.Now()
		}
		pr.deadline = anchor.Add(pr.req.Budget)
	}
	if req.Op == kvproto.OpPut && zc && x.eng.sharded.ShardFor(req.Key) == x.shard {
		// The zero-copy path writes through the executor's direct store
		// pointer, so it must not ingest into a shard the sharded router
		// has quarantined — the copy path routes through the router, which
		// answers ErrShardDown (503).
		if !x.servingSelf() {
			return
		}
		// Copy the (small) key into the arena so the record can
		// reference it; values stay in place.
		off := x.allocKey(req.Key)
		if off < 0 {
			pr.refuse = 507
			return
		}
		pr.keyOff = off
		pr.sumsOK = true
	}
}

// attachSpansZeroCopy turns packet body spans into store extents,
// deriving the largest span's checksum from the NIC's whole-payload sum
// (everything else is summed in software — those are header-sized
// leftovers). Spans of misaligned PUTs participate in the checksum
// accounting but get no extents (their bodies were copied).
func (x *executor) attachSpansZeroCopy(b *pkt.Buf, p []byte, spans []bodySpan) {
	pmBase := b.PMOff()
	useNIC := b.CsumStatus == pkt.CsumComplete
	largest := -1
	if useNIC {
		for i, sp := range spans {
			if largest < 0 || sp.n > spans[largest].n {
				largest = i
			}
		}
	}
	var others uint16 // ones-complement sum of all contributions except the largest span
	if useNIC {
		// Contribution of every byte range outside the largest span, at
		// its payload parity.
		addRange := func(off, n int) {
			if n <= 0 {
				return
			}
			sum := checksum.Fold(checksum.Partial(0, p[off:off+n]))
			if off%2 == 1 {
				sum = checksum.Swap16(sum)
			}
			others = checksum.Fold(checksum.Combine(uint32(others), uint32(sum)))
		}
		prev := 0
		for i, sp := range spans {
			addRange(prev, sp.off-prev) // inter-span (header) bytes
			if i != largest {
				addRange(sp.off, sp.n)
			}
			prev = sp.off + sp.n
		}
		addRange(prev, len(p)-prev)
	}
	for i, sp := range spans {
		var sum uint32
		if useNIC && i == largest {
			contrib := checksum.Sub16(checksum.Fold(b.Csum), others)
			if sp.off%2 == 1 {
				contrib = checksum.Swap16(contrib)
			}
			sum = uint32(contrib)
			x.stats.derivedSums.Add(1)
		} else {
			sum = checksum.Partial(0, p[sp.off:sp.off+sp.n])
			x.stats.softwareSums.Add(1)
		}
		if sp.pr.req.Op != kvproto.OpPut || sp.pr.keyOff < 0 {
			continue // body on a non-PUT or a copy-path PUT: no extents
		}
		sp.pr.exts = append(sp.pr.exts, core.Extent{
			Off: pmBase + sp.off, Len: sp.n, Sum: sum,
		})
	}
}

// statusForErr maps a backend error to the KV protocol status: a
// quarantined shard is 503 (the rest of the store still serves; retry
// elsewhere is pointless, but the client learns it is not at fault),
// exhaustion is 507, an oversized key 400, anything else 500.
func statusForErr(err error) int {
	switch {
	case errors.Is(err, core.ErrShardDown):
		return 503
	case errors.Is(err, core.ErrFull):
		return 507
	case errors.Is(err, core.ErrKeyTooLong):
		return 400
	default:
		return 500
	}
}

// dispatch executes one completed request and queues its response.
// With staged set (group-commit burst), zero-copy PUTs stage into the
// shard's pending group instead of committing per-op; every other
// operation first commits the pending group, both as a read barrier and
// because ops like zeroCopyGet flush buffered responses — no staged
// PUT's ack may escape before its fence.
func (x *executor) dispatch(st *connState, pr *pendingReq, staged bool) {
	x.stats.requests.Add(1)
	defer func() {
		for _, base := range pr.adopted {
			x.store.ReleaseUnused(base)
		}
	}()
	switch {
	case pr.health:
		st.resp = appendHealth(st.resp, x.eng.Health())
		return
	case pr.refuse != 0:
		x.refuse(st, pr)
		return
	}
	// Doomed-work elimination: the client's budget lapsed while the
	// request waited — it has already timed out or retried, so executing
	// now would burn capacity on an answer nobody reads. Answer 503 with
	// the pacing hint and none of the expensive work (staging, fences,
	// store reads).
	if !pr.deadline.IsZero() && time.Now().After(pr.deadline) {
		x.stats.expired.Add(1)
		st.resp = httpmsg.AppendResponseRetryAfter(st.resp, 503, 0,
			x.eng.cfg.Overload.RetryAfter.Milliseconds())
		return
	}
	if staged && pr.req.Op != kvproto.OpPut && !x.commitGroup() {
		// Poisoned cycle: build no response — every connection in this
		// burst aborts unflushed at cycle end, so no buffered staged-PUT
		// ack (now unbacked by a durable record) can escape.
		return
	}
	switch pr.req.Op {
	case kvproto.OpPut:
		x.stats.puts.Add(1)
		var err error
		if pr.keyOff >= 0 {
			x.stats.zcPuts.Add(1)
			opt := core.PutOptions{
				Extents: pr.exts, KeyOff: pr.keyOff,
				HasSum: pr.sumsOK, HWTime: pr.hwtime,
			}
			if staged {
				err = x.store.PutExtentsStaged(pr.req.Key, pr.vlen, opt)
				if err == nil {
					x.stagedOps++
				}
			} else {
				err = x.store.PutExtents(pr.req.Key, pr.vlen, opt)
			}
		} else {
			// Copy-path PUTs may route to a shard this executor does not
			// commit — they stay per-op so their ack never precedes their
			// fence.
			err = x.eng.backend.Put(pr.req.Key, pr.body)
		}
		if err != nil {
			x.fail(st, statusForErr(err))
			return
		}
		st.resp = httpmsg.AppendResponse(st.resp, 200, 0)
	case kvproto.OpGet:
		x.stats.gets.Add(1)
		if x.store != nil && x.servingSelf() {
			x.zeroCopyGet(st, pr.req.Key)
			return
		}
		// Loop's shard down, rebuilding or replaced: fall back to the
		// backend router, which answers ErrShardDown (503) for a
		// quarantined keyspace instead of reading through the stale
		// store pointer.
		val, ok, err := x.eng.backend.Get(pr.req.Key)
		switch {
		case err != nil:
			x.fail(st, statusForErr(err))
		case !ok:
			st.resp = httpmsg.AppendResponse(st.resp, 404, 0)
		default:
			st.resp = httpmsg.AppendResponse(st.resp, 200, len(val))
			st.resp = append(st.resp, val...)
		}
	case kvproto.OpDelete:
		x.stats.deletes.Add(1)
		found, err := x.eng.backend.Delete(pr.req.Key)
		switch {
		case err != nil:
			x.fail(st, statusForErr(err))
		case !found:
			st.resp = httpmsg.AppendResponse(st.resp, 404, 0)
		default:
			st.resp = httpmsg.AppendResponse(st.resp, 204, 0)
		}
	case kvproto.OpRange:
		x.stats.ranges.Add(1)
		kvs, err := x.eng.backend.Range(pr.req.Start, pr.req.End, pr.req.Limit)
		if err != nil {
			x.fail(st, statusForErr(err))
			return
		}
		body := kvproto.AppendRangeBody(nil, kvs)
		st.resp = httpmsg.AppendResponse(st.resp, 200, len(body))
		st.resp = append(st.resp, body...)
	default:
		x.fail(st, 400)
	}
}

// refuse answers a request with its refusal status, once: from handleBuf
// when its header has completed and everything ahead of it is answered,
// or from dispatch if the whole request arrived in the same buffer.
func (x *executor) refuse(st *connState, pr *pendingReq) {
	if !pr.answered {
		pr.answered = true
		x.fail(st, pr.refuse)
	}
}

// fail counts an error and queues its bodiless response.
func (x *executor) fail(st *connState, status int) {
	x.stats.errors.Add(1)
	st.resp = httpmsg.AppendResponse(st.resp, status, 0)
}

// zeroCopyGet transmits a stored value directly from PM as packet
// fragments, pinning the data until the transport releases it
// (post-ACK). The value may live in any shard — extents are absolute
// region offsets, so cross-shard GETs stay zero-copy.
func (x *executor) zeroCopyGet(st *connState, key []byte) {
	tgt := x.eng.sharded.StoreFor(key)
	if tgt == nil {
		// Owning shard is quarantined: its keyspace is down, the rest of
		// the store keeps serving.
		x.fail(st, 503)
		return
	}
	// Lookup and pin are one atomic step: the old GetRef-then-PinExtents
	// pair left a window where a delete could recycle the extents' slots
	// before the pin landed. The common case also completes lock-free.
	ref, release, ok, err := tgt.GetRefPinned(key)
	if err != nil {
		x.fail(st, statusForErr(err))
		return
	}
	if !ok {
		st.resp = httpmsg.AppendResponse(st.resp, 404, 0)
		return
	}
	// Large values would exceed one segment without TSO; fall back to the
	// copy path rather than fail. The pins hold the bytes stable for the
	// copy, then release before buffering.
	hdr := httpmsg.AppendResponse(nil, 200, ref.VLen)
	if len(hdr)+ref.VLen > st.tc.MaxSegment() {
		val := make([]byte, 0, ref.VLen)
		for _, e := range ref.Extents {
			val = append(val, tgt.Slice(e.Off, e.Len)...)
		}
		release()
		st.resp = append(st.resp, hdr...)
		st.resp = append(st.resp, val...)
		return
	}
	x.flushResp(st) // preserve pipelined response order
	x.stats.zcGets.Add(1)
	head := pkt.NewBuf(make([]byte, tcp.HeaderRoom()+len(hdr)))
	head.Pull(tcp.HeaderRoom())
	copy(head.Bytes(), hdr)
	for i, e := range ref.Extents {
		fr := pkt.Frag{
			B: tgt.Slice(e.Off, e.Len), PMOff: e.Off,
			Sum: e.Sum, HasSum: true,
		}
		if i == 0 {
			fr.Release = release
		}
		head.AddFrag(fr)
	}
	x.stats.bytesOut.Add(uint64(len(hdr) + ref.VLen))
	if err := st.tc.WriteBufs(head); err != nil {
		release()
		st.dead = true
	}
}

// flushResp writes the batched response bytes.
func (x *executor) flushResp(st *connState) {
	if len(st.resp) == 0 || st.dead {
		return
	}
	x.stats.bytesOut.Add(uint64(len(st.resp)))
	if _, err := st.c.Write(st.resp); err != nil {
		st.dead = true
	}
	st.resp = st.resp[:0]
}

func (x *executor) protocolError(st *connState) {
	x.stats.errors.Add(1)
	// The error response flushes everything buffered on this connection,
	// which may include acks for PUTs staged earlier in a burst: commit
	// them first so no ack precedes its fence. If the post-commit check
	// finds an online rebuild dropped the staged group, the buffered
	// acks are discarded and the connection just closes.
	if x.commitGroup() {
		st.resp = httpmsg.AppendResponse(st.resp, 400, 0)
		x.flushResp(st)
	} else {
		st.resp = st.resp[:0]
	}
	x.reap(st)
}

// allocKey copies key bytes into the loop's key arena, returning their
// region offset (-1 on exhaustion). The arena is a data slot of the
// loop's shard pinned while the loop appends into it; records
// referencing the keys keep the slot alive after rotation.
func (x *executor) allocKey(key []byte) int {
	a := &x.lp.arena
	if a.unpin == nil || a.epoch != x.cycleEpoch || a.used+len(key) > x.store.DataBufSize() {
		// Rotate: the slot is full, or the shard was rebuilt since it was
		// cut and the rebuilt allocator may repurpose it. The pin survives
		// a rebuild (a rescan preserves pins), so dropping it here
		// re-admits the slot once surviving records stop referencing it.
		if a.unpin != nil {
			a.unpin()
			a.unpin = nil
		}
		base := x.store.AllocDataSlot()
		if base < 0 {
			return -1
		}
		*a = keyArena{epoch: x.cycleEpoch, off: base,
			unpin: x.store.PinExtents([]core.Extent{{Off: base, Len: 1}})}
	}
	off := a.off + a.used
	x.store.WriteData(off, key)
	a.used += len(key)
	return off
}
