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

// StealConfig tunes the work-stealing scheduler. With stealing enabled,
// an event loop whose own queue is empty picks the deepest backlogged
// peer, try-acquires that peer's shard ownership token, and runs one
// service cycle against the peer's connections on its own goroutine —
// so a skewed workload that piles onto one RSS queue is served by every
// idle core instead of collapsing onto the hot loop.
type StealConfig struct {
	// Enabled turns the steal path on. Off by default: with it off the
	// scheduler reduces exactly to the per-queue loops of the 1:1 design.
	Enabled bool
	// MinDepth is the minimum victim backlog (undrained ready events +
	// NIC ring occupancy + queued connections) worth stealing from.
	// Below it the steal costs more than the wait. Default 2.
	MinDepth int
	// Poll is the idle loop's steal-scan period. Default 200µs.
	Poll time.Duration
}

func (c *StealConfig) fill() {
	if c.MinDepth <= 0 {
		c.MinDepth = 2
	}
	if c.Poll <= 0 {
		c.Poll = 200 * time.Microsecond
	}
}

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
	// Steal configures the work-stealing scheduler.
	Steal StealConfig
	// LoopNodes declares each event loop's NUMA node, indexed by RSS
	// queue: the loop's executor stamps the node onto whatever store it
	// drives so the PM simulator bills cross-socket lines at the remote
	// rate, and the steal policy prefers same-node victims. Nil falls
	// back to the NIC's per-queue interrupt nodes (nic.Config.QueueNodes),
	// which default to node 0 everywhere — the single-socket no-op.
	LoopNodes []int
	// Overload configures deadline-aware admission and the CoDel
	// run-queue controller (see OverloadConfig). Disabled by default.
	Overload OverloadConfig
}

func (c *Config) fill() {
	c.Steal.fill()
	c.Overload.fill(c.MaxBatch)
}

// Server is the storage server application. One event-loop goroutine per
// NIC RSS queue emulates the paper's busy-polling server cores. With a
// sharded packetstore, loop q is the *home* of the store shard whose PM
// partition backs queue q's receive pool, so in the common case
// zero-copy ingest never crosses cores: the NIC DMAs a flow's payloads
// straight into the partition of the shard that will index them
// (DESIGN.md §5.7). Home is a scheduling default, not ownership: the
// right to mutate a shard is the ShardedStore ownership token, and with
// Config.Steal enabled any idle loop may acquire a busy shard's token
// and serve its queue (DESIGN.md §5.11). With one queue and one shard
// this degenerates to the original single-core loop.
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
	// source of the default health report's loops and overload sections.
	loopStats func() []Stats

	hmu    sync.Mutex
	health func() HealthReport // SetHealthSource; nil = the default report
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

// SetHealthSource installs the GET /healthz report producer — normally
// (*Healer).Health, which adds scrub and rebuild progress to what the
// default report already carries.
func (e *engine) SetHealthSource(fn func() HealthReport) {
	e.hmu.Lock()
	e.health = fn
	e.hmu.Unlock()
}

// Health is the report GET /healthz serves. Without an installed source
// it is built from the store's own shard states, so a quarantined shard
// reads down (and the endpoint 503) exactly when its keys answer 503,
// healer or not, plus this server's loop and overload counters.
func (e *engine) Health() HealthReport {
	e.hmu.Lock()
	fn := e.health
	e.hmu.Unlock()
	if fn != nil {
		return fn()
	}
	var states []core.ShardStatus
	if e.sharded != nil {
		states = e.sharded.States()
	}
	rep := healthFromStates(states, nil)
	rep.addLoops(e.loopStats())
	return rep
}

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

// sched is one loop's scheduling core: the table of connections homed on
// this loop's RSS queue plus the run queue of those that are readable
// and waiting for an executor, with the burst-formation claim flags on
// each connState. It is the only loop state a stealing peer touches, so
// it carries its own mutex; everything else on the loop stays
// single-goroutine.
type sched struct {
	mu    sync.Mutex
	conns map[*tcp.Conn]*connState
	runq  []*connState
	// qlen mirrors len(runq) so the steal path's victim scan reads a
	// single atomic instead of taking every peer's mu — depth sampling
	// at the steal poll rate must not contend with the hot loop's
	// scheduling path.
	qlen atomic.Int32
	// cd is the CoDel sojourn controller over this run queue
	// (Config.Overload); guarded by mu like the queue it watches, since
	// observations come from popBatch on home and stealer goroutines.
	cd codel
}

// loop is one event-loop "core": the home of the connections whose flows
// RSS to its queue and — in sharded mode — of the store shard backing
// that queue's receive pool. Scheduling state (sched) is shared with
// stealing peers under its mutex; stats, arenas and the executor scratch
// are touched only by this loop's goroutine.
type loop struct {
	srv   *Server
	q     int
	store *core.Store // home shard for the zero-copy paths; nil = copy only
	shard int         // index of store within srv.sharded (-1 if none)
	node  int         // NUMA node this loop's core runs on (Config.LoopNodes)
	stats statsCounters

	sched sched
	// wake is the cross-goroutine kick: a peer that reposted work onto
	// this loop's run queue (repost flag on a claimed connection) rings
	// it so the home loop re-drains without waiting for the next packet.
	wake chan struct{}
	// accept is the shared listener queue (set by Run); every loop drains
	// it, and drain/gather poll it mid-cycle so a saturated loop cannot
	// starve handshake completion (see drainAccepts).
	accept <-chan *tcp.Conn
	// theft is the victim-side single-thief guard: at most one peer
	// steals from this loop at a time. Beyond the first, thieves would
	// convoy on the shard token — and a loop parked in Acquire is a loop
	// not draining the shared accept channel.
	theft atomic.Bool
	// brownout mirrors the CoDel controller's dropping state outside
	// sched.mu: while set, batchMax returns the larger BrownoutBatch
	// (fence amortization when it buys the most), idle peers stop
	// stealing extra work onto this loop, and Server.Pressure reports
	// the loop as pressed so the Healer throttles background scrub.
	brownout atomic.Bool

	// arenas holds this goroutine's key arena per target shard. Steal
	// cycles execute on the stealer's goroutine, so arenas never need
	// locking — each executing loop appends keys into its own slot of
	// whatever shard it is currently serving.
	arenas map[int]*keyArena

	// burst is the reusable claimed-connection list for service cycles.
	burst []*connState
	// exec is the reusable executor scratch for cycles this goroutine
	// runs (against its own shard or a steal victim's).
	exec executor
}

// keyArena is one executing goroutine's private key-copy arena inside
// one shard's data area: small key copies land here so records can
// reference them (values are never copied). The (store, epoch) stamp
// detects an online rebuild of the target shard — the arena slot is then
// abandoned (its pin dropped; surviving records keep it alive) and a
// fresh slot allocated, so the goroutine never appends into a slot the
// rebuilt allocator may have repurposed.
type keyArena struct {
	store *core.Store
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
			srv:    s,
			q:      q,
			shard:  -1,
			node:   stk.NIC().NodeOfQueue(q),
			wake:   make(chan struct{}, 1),
			arenas: make(map[int]*keyArena),
		}
		if q < len(s.cfg.LoopNodes) {
			lp.node = s.cfg.LoopNodes[q]
		}
		lp.sched.conns = make(map[*tcp.Conn]*connState)
		lp.sched.cd = codel{target: s.cfg.Overload.Target, interval: s.cfg.Overload.Interval}
		if s.sharded != nil {
			pool := stk.NIC().RxPoolQ(q)
			for i := 0; i < s.sharded.Shards(); i++ {
				// Shard returns nil for a quarantined shard — its queue's
				// loop then runs copy-path only, like a DRAM-pool loop.
				if sh := s.sharded.Shard(i); sh != nil && sh.Pool() == pool {
					lp.store, lp.shard = sh, i
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
// sampled live: it is the same backlog metric the steal path uses for
// victim selection, so persistent skew is directly observable here (and
// in GET /healthz).
func (s *Server) LoopStats() []Stats {
	out := make([]Stats, len(s.loops))
	for i, lp := range s.loops {
		out[i] = lp.stats.Snapshot()
		out[i].QueueDepth = lp.depth()
		out[i].Node = lp.node
		if lp.brownout.Load() {
			out[i].BrownoutLoops = 1
		}
	}
	return out
}

// Pressure is the overload signal exported to background work (the
// Healer's scrub budget, steal admission): the fraction of event loops
// currently in brownout, 0 when fully healthy through 1 when every
// loop's queue controller is shedding.
func (s *Server) Pressure() float64 {
	if len(s.loops) == 0 {
		return 0
	}
	n := 0
	for _, lp := range s.loops {
		if lp.brownout.Load() {
			n++
		}
	}
	return float64(n) / float64(len(s.loops))
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
	var stealTick <-chan time.Time
	if s.cfg.Steal.Enabled && len(s.loops) > 1 {
		t := time.NewTicker(s.cfg.Steal.Poll)
		defer t.Stop()
		stealTick = t.C
	}
	for {
		if !lp.drainAccepts() {
			return
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
		case <-lp.wake:
			lp.drain(rx)
		case now := <-idleTick:
			lp.sweepIdle(now)
		case <-stealTick:
			// Bounded per tick: a deep victim backlog must not starve this
			// loop's own accepts and shutdown path.
			for i := 0; i < stealRounds && lp.trySteal(); i++ {
			}
		}
	}
}

// register admits an accepted connection to this loop's table without
// queueing it (it becomes runnable on its first readable event), unless
// the loop is at its MaxConns cap.
func (lp *loop) register(c *tcp.Conn) {
	lp.sched.mu.Lock()
	if lp.sched.conns[c] != nil {
		lp.sched.mu.Unlock()
		return
	}
	if max := lp.srv.cfg.MaxConns; max > 0 && len(lp.sched.conns) >= max {
		lp.sched.mu.Unlock()
		lp.shed(c)
		return
	}
	lp.sched.conns[c] = newConnState(c, c)
	lp.sched.mu.Unlock()
}

// noteReady records a readable event for c: the connection is admitted
// (registered on first contact, or shed at the MaxConns cap) and pushed
// onto the run queue — unless an executor currently holds the claim, in
// which case it is marked for reposting when the claim releases. Safe
// from any goroutine; stealers use it to queue the events they pulled
// off the victim's ready channel.
func (lp *loop) noteReady(c *tcp.Conn) {
	// With overload control on, anchor the queue-entry stamp at the
	// arrival time persisted in the oldest pending packet buffer rather
	// than at this wakeup: ready-channel and scheduler delays upstream of
	// the run queue are queueing too, and anchoring at wakeup would hide
	// them from the CoDel sojourn and the request deadline.
	var arrival time.Time
	if lp.srv.cfg.Overload.Enabled {
		arrival = c.OldestRxTime()
	}
	lp.sched.mu.Lock()
	st := lp.sched.conns[c]
	if st == nil {
		if max := lp.srv.cfg.MaxConns; max > 0 && len(lp.sched.conns) >= max {
			lp.sched.mu.Unlock()
			lp.shed(c)
			return
		}
		st = newConnState(c, c)
		lp.sched.conns[c] = st
	}
	if st.claimed {
		st.repost = true
	} else if !st.queued && !st.dead {
		st.queued = true
		st.readyAt = time.Now()
		if !arrival.IsZero() && arrival.Before(st.readyAt) {
			st.readyAt = arrival
		}
		lp.sched.runq = append(lp.sched.runq, st)
		lp.sched.qlen.Store(int32(len(lp.sched.runq)))
	}
	lp.sched.mu.Unlock()
}

// popBatch claims up to max runnable connections for an executor,
// appending them to out. A claimed connection is untouchable by every
// other goroutine until doneWith returns it.
//
// With Config.Overload enabled this is also the CoDel observation
// point: each claim's run-queue sojourn feeds the controller, and when
// the law says shed, the *newest* queued connection is claimed into the
// batch with its shed503 flag set — the executor answers its pending
// requests with 503+Retry-After-Ms instead of executing them. Shedding
// newest-over-oldest keeps the requests that have already waited (and
// whose clients have already invested their budget) while pushing back
// on fresh arrivals.
func (lp *loop) popBatch(out []*connState, max int) []*connState {
	overload := lp.srv.cfg.Overload.Enabled
	var now time.Time
	var minSojourn, sumSojourn time.Duration
	lp.sched.mu.Lock()
	q := lp.sched.runq
	n := 0
	for n < len(q) && len(out) < max {
		st := q[n]
		n++
		st.queued = false
		if st.claimed || st.dead {
			continue
		}
		st.claimed = true
		out = append(out, st)
		if overload {
			if now.IsZero() {
				now = time.Now()
				minSojourn = now.Sub(st.readyAt)
			} else if d := now.Sub(st.readyAt); d < minSojourn {
				minSojourn = d
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
		if lp.sched.cd.observe(minSojourn, now) {
			// Shed the newest queued connection (the run-queue tail).
			for len(q) > 0 {
				st := q[len(q)-1]
				q[len(q)-1] = nil
				q = q[:len(q)-1]
				st.queued = false
				if st.claimed || st.dead {
					continue
				}
				st.claimed = true
				st.shed503 = true
				out = append(out, st)
				lp.stats.codelSheds.Add(1)
				break
			}
		}
		if was := lp.brownout.Load(); was != lp.sched.cd.dropping {
			lp.brownout.Store(lp.sched.cd.dropping)
			if !was {
				lp.stats.brownouts.Add(1)
			}
		}
	}
	lp.sched.runq = q
	lp.sched.qlen.Store(int32(len(lp.sched.runq)))
	lp.sched.mu.Unlock()
	return out
}

// doneWith releases an executor's claims. A readable event that arrived
// during a claim (repost) requeues that connection and rings the home
// loop's wake channel, so data that raced with a steal is drained even
// if no further packet ever arrives on the flow.
func (lp *loop) doneWith(batch []*connState) {
	kick := false
	lp.sched.mu.Lock()
	for _, st := range batch {
		st.claimed = false
		st.shed503 = false
		if st.repost {
			st.repost = false
			if !st.dead && !st.queued {
				st.queued = true
				lp.sched.runq = append(lp.sched.runq, st)
				kick = true
			}
		}
	}
	lp.sched.qlen.Store(int32(len(lp.sched.runq)))
	lp.sched.mu.Unlock()
	if kick {
		lp.kick()
	}
}

// queuedLen reads the run-queue depth gauge — lock-free, so peers'
// victim scans cost the hot loop nothing.
func (lp *loop) queuedLen() int {
	return int(lp.sched.qlen.Load())
}

// depth is the backlog metric of the steal path's victim selection:
// undrained stack ready events + NIC rx ring occupancy + queued
// run-queue connections on this loop.
func (lp *loop) depth() int {
	s := lp.srv
	return s.stk.ReadyLenQ(lp.q) + s.stk.NIC().RxQueueLen(lp.q) + lp.queuedLen()
}

// batchMax is the claim size for one service cycle. In brownout the
// group-commit burst is forced up to BrownoutBatch: under pressure a
// bigger group amortizes its one fence over more PUTs, which is exactly
// when that trade is worth the added per-request latency.
func (lp *loop) batchMax() int {
	m := lp.srv.cfg.MaxBatch
	if m > 1 && lp.brownout.Load() {
		if b := lp.srv.cfg.Overload.BrownoutBatch; b > m {
			return b
		}
	}
	if m > 1 {
		return m
	}
	return 1
}

// drainCycles bounds the service cycles one drain call may run, and
// stealRounds bounds the steal cycles one tick may run, before control
// returns to the loop's select. Without the bound a continuously-busy
// run queue (sustained load, or a retransmission storm feeding events
// faster than the two-yield gather window) starves accepts and the
// shutdown path forever — the select is the only place they are heard.
const (
	drainCycles = 8
	stealRounds = 4
)

// drain runs service cycles on this loop's own run queue until it is
// empty or the cycle budget runs out; in the latter case it re-kicks the
// wake channel so the select re-enters drain after giving accepts,
// shutdown, and ticks a chance. With batching enabled each cycle first
// gathers more readable events via a bounded busy-poll, preserving the
// group-commit burst formation of the pre-scheduler design.
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
		x := lp.executorFor(lp)
		x.runCycle(lp.burst)
		lp.doneWith(lp.burst)
	}
	lp.kick()
}

// kick rings the loop's wake channel (non-blocking) so its select runs
// drain again: used when claims release with reposted events pending and
// when drain exhausts its cycle budget with the run queue non-empty.
func (lp *loop) kick() {
	select {
	case lp.wake <- struct{}{}:
	default:
	}
}

// drainAccepts empties the shared accept queue without blocking; it
// returns false when the listener has closed. Registering is a map
// insert (or a drop, for another loop's flow) — far cheaper than a
// service cycle — yet the run select picks among ready cases at random,
// so a loop saturated enough to re-enter drain through its own wake
// channel hears accepts rarely; worse, on a single CPU gather's
// scheduler yields are exactly when dialing clients make progress, so
// handshakes complete fastest while every loop is mid-cycle. Unchecked,
// the listener backlog overflows and resets connections whose dials
// already succeeded. drain and gather therefore poll this between
// cycles, bounding the queue by one service cycle.
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
// (retransmissions for claimed or dead connections) from pinning the
// loop here.
func (lp *loop) gather(rx <-chan *tcp.Conn) {
	idle := 0
	target := lp.batchMax()
	budget := 4 * target
	for polls := 0; lp.queuedLen() < target && idle < 2 && polls < budget; polls++ {
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

// trySteal runs one steal round: pick the deepest backlogged peer, pull
// its undrained ready events into its run queue, claim a batch, and run
// one service cycle on this goroutine under the victim shard's epoch
// snapshot — then hand everything back. Returns true if a cycle ran;
// the caller loops until the backlog is gone.
//
// Connections, not the token, are claimed up front: the thief parses
// and assembles its stolen batch while the victim is still committing
// its own, and only the first staged mutation blocks on Acquire — a
// wait bounded by one in-flight commit, which an idle loop can afford.
// (A TryAcquire admission gate was tried first; with the victim
// continuously mid-cycle its token-free windows are rarely sampled, so
// a gated thief starves even as the victim's queue grows.) A round that
// found a deep victim but no claimable connection counts as a
// StealAbort — the backlog was contended away or is all mid-service.
// pickVictim is the distance-aware victim selection: every PM line a
// stolen cycle touches lives in the victim's partition, so a
// cross-socket steal pays the remote rate per line. Same-node victims
// are drained first; only when no same-node backlog clears minDepth
// does the thief go cross-node — balance still beats locality once the
// local sockets are level. depth is a parameter so the policy is
// testable against fabricated backlogs.
func pickVictim(lp *loop, loops []*loop, minDepth int, depth func(*loop) int) *loop {
	var victim *loop
	best := minDepth
	for _, v := range loops {
		if v == lp || v.shard < 0 || v.node != lp.node {
			continue
		}
		if d := depth(v); d >= best {
			best, victim = d, v
		}
	}
	if victim == nil {
		best = minDepth
		for _, v := range loops {
			if v == lp || v.shard < 0 || v.node == lp.node {
				continue
			}
			if d := depth(v); d >= best {
				best, victim = d, v
			}
		}
	}
	return victim
}

func (lp *loop) trySteal() bool {
	s := lp.srv
	if s.sharded == nil || !s.cfg.Steal.Enabled {
		return false
	}
	// Steal only from genuine idleness — the local backlog has priority.
	// A loop still in brownout is not idle either: its controller has
	// not yet proven the standing queue drained, so taking on a peer's
	// work would feed the very pressure the brownout is shedding.
	if lp.queuedLen() > 0 || s.stk.ReadyLenQ(lp.q) > 0 || lp.brownout.Load() {
		return false
	}
	victim := pickVictim(lp, s.loops, s.cfg.Steal.MinDepth, (*loop).depth)
	if victim == nil {
		return false
	}
	if !victim.theft.CompareAndSwap(false, true) {
		return false // another thief is already on this victim
	}
	defer victim.theft.Store(false)
	// Drain the victim's ready channel into its run queue — channel
	// receives are safe from any goroutine, and ClearReady re-arms the
	// edge trigger exactly as the home loop would.
	vrx := s.stk.ReadableQ(victim.q)
pull:
	for {
		select {
		case c, ok := <-vrx:
			if !ok {
				break pull
			}
			c.ClearReady()
			victim.noteReady(c)
		default:
			break pull
		}
	}
	lp.burst = victim.popBatch(lp.burst[:0], lp.batchMax())
	if len(lp.burst) == 0 {
		lp.stats.stealAborts.Add(1)
		return false
	}
	x := lp.executorFor(victim)
	x.runCycle(lp.burst)
	lp.stats.steals.Add(1)
	lp.stats.stolenOps.Add(x.ops)
	if victim.node != lp.node {
		lp.stats.crossSteals.Add(1)
	}
	victim.doneWith(lp.burst)
	return true
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
// resources. Claimed connections are skipped — an executor is servicing
// them right now, so they are not idle.
func (lp *loop) sweepIdle(now time.Time) {
	timeout := lp.srv.cfg.IdleTimeout
	var victims []*connState
	lp.sched.mu.Lock()
	for _, st := range lp.sched.conns {
		if st.claimed || now.Sub(st.lastActive) <= timeout {
			continue
		}
		st.claimed = true // reserve against a concurrent stealer's claim
		victims = append(victims, st)
	}
	lp.sched.mu.Unlock()
	for _, st := range victims {
		lp.stats.idleClosed.Add(1)
		lp.reap(st)
	}
}

// reap tears one of this loop's connections down and releases anything
// its half-assembled request adopted. The caller must hold the claim (an
// executor) or have reserved the connection under sched.mu (idle sweep),
// so no other goroutine touches st concurrently.
func (lp *loop) reap(st *connState) {
	if st.cur != nil {
		for _, base := range st.cur.adopted {
			lp.store.ReleaseUnused(base)
		}
		st.cur = nil
	}
	st.c.Close()
	lp.sched.mu.Lock()
	st.dead = true
	delete(lp.sched.conns, st.tc)
	lp.sched.mu.Unlock()
}

// connState is one connection as the request engine sees it: where its
// responses go, its parser, and the request still assembling. The
// engine never reads from a connection — its transport hands it packet
// buffers (executor.handleBuf) — so an OS socket needs nothing more.
type connState struct {
	c io.WriteCloser
	// tc is the simulated stack's connection, nil on an OS socket: the
	// receive queue the event loops drain, the sched-table key, the
	// asynchronous EOF/error state, and the fragment transmit behind
	// zeroCopyGet (reached only with a PM receive pool, so never with a
	// socket).
	tc     *tcp.Conn
	parser *httpmsg.RequestParser
	cur    *pendingReq
	resp   []byte
	dead   bool
	// Scheduling flags, guarded by the home loop's sched.mu. queued:
	// sitting in the run queue. claimed: an executor (home or stealing)
	// holds the connection — nobody else may touch it. repost: a
	// readable event arrived while claimed; requeue on release.
	queued, claimed, repost bool
	// shed503 marks a connection claimed by a CoDel shed decision: the
	// executor parses its pending requests (cheap) but answers each
	// with 503+Retry-After-Ms instead of executing (the expensive
	// part), keeping the HTTP pipeline synchronized. Set under sched.mu
	// at claim time, read by the claiming executor, cleared at release.
	shed503 bool
	// readyAt is when the connection last entered the run queue — with
	// overload control on, backdated to the arrival stamp of its oldest
	// pending packet, so delivery delays upstream of the queue count.
	// Set under sched.mu by noteReady: the base of the CoDel sojourn
	// observation and a fallback anchor for the request deadline (+ client
	// budget).
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
// An event loop runs service cycles with it against one target loop's
// connections and shard: lp is the executing loop — stats, node and key
// arenas attribute to it; tgt is the loop whose claimed connections and
// shard are served. In the common case lp == tgt (a loop serving its
// own queue); in a steal they differ, and the executor enters holding
// tgt's shard ownership token. Either way the mutation-path invariants
// are carried by the token and the epoch snapshot, not by which
// goroutine is driving. A NetServer connection goroutine owns one with
// no loops and no store — the copy-path executor a DRAM-pool loop is.
type executor struct {
	eng   *engine
	stats *statsCounters // the executing loop's, or the socket connection's
	lp    *loop          // executing loop: node, arenas; nil on a socket
	tgt   *loop          // target loop: connections, shard; nil on a socket
	store *core.Store
	shard int

	// token records whether this executor holds the target shard's
	// ownership token (ShardedStore.Acquire) — the exclusive right to
	// stage mutations and group-commit the shard. The home path takes it
	// lazily at the first zero-copy PUT and commitGroup releases it, so
	// read-only cycles never serialise against a concurrent owner.
	token bool

	// cycleEpoch is the target shard's rebuild epoch (core.Store.Epoch)
	// snapshotted when the current service cycle began, before any PUT
	// was staged. cycleBad marks the cycle poisoned: an online rebuild
	// dropped staged puts whose acks are already buffered, so commitGroup
	// failed its post-commit check and every response buffered this
	// cycle is discarded (the connections close instead of acking).
	cycleEpoch uint64
	cycleBad   bool
	// ops counts requests this executor instance dispatched — the
	// StolenOps accounting for steal cycles.
	ops uint64
	// stagedOps counts puts staged into the shard's group this cycle.
	// Zero means there is no group to commit: commitGroup then skips the
	// store's Commit round trip (and the acked-write gate re-check, which
	// only protects staged acks), so a GET-only cycle never takes the
	// shard mutex or the ownership token — reads stop queueing behind a
	// stolen shard's drain.
	stagedOps int
}

// executorFor resets this loop's executor scratch for a cycle against
// tgt (itself, or a steal victim).
func (lp *loop) executorFor(tgt *loop) *executor {
	x := &lp.exec
	*x = executor{
		eng:   &lp.srv.engine,
		stats: &lp.stats,
		lp:    lp,
		tgt:   tgt,
		store: tgt.store,
		shard: tgt.shard,
	}
	return x
}

// ensureToken acquires the target shard's ownership token if this
// executor does not already hold it. Blocking here is fine: the holder
// is mid-cycle and cycles are bounded by MaxBatch.
func (x *executor) ensureToken() {
	if x.token || x.eng.sharded == nil || x.shard < 0 {
		return
	}
	x.eng.sharded.Acquire(x.shard)
	x.token = true
}

// releaseToken hands the shard back. Idempotent — commitGroup releases
// mid-cycle and the cycle end releases again as a safety net.
func (x *executor) releaseToken() {
	if x.token {
		x.eng.sharded.Release(x.shard)
		x.token = false
	}
}

// runCycle services one claimed batch. A batch of one (or batching
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
	x.releaseToken()
}

// service drains all pending packet buffers on one connection and
// responds immediately — the unbatched cycle.
func (x *executor) service(st *connState) {
	x.beginCycle()
	x.serviceConn(st, false)
	x.finishConn(st)
	x.releaseToken()
}

// beginCycle arms the acked-write gate for one service cycle: it
// snapshots the target shard's rebuild epoch before anything is staged,
// so commitGroup can later prove the staged records survived to their
// fence.
func (x *executor) beginCycle() {
	x.cycleBad = false
	if x.store != nil {
		x.cycleEpoch = x.store.Epoch()
		if x.eng.numaOn {
			// Declare which socket drives this cycle: the home loop's own
			// node, or the thief's on a stolen cycle — every PM charge the
			// cycle issues bills cross-socket lines at the remote rate.
			x.store.SetNUMANode(x.lp.node)
		}
	}
}

// servingSelf reports whether the target shard currently serves through
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

// commitGroup commits the target shard's staged group, then verifies the
// cycle's buffered acks are safe to flush: the shard must still be
// serving through the same Store object and rebuild epoch the cycle
// started with. A mismatch means an online rebuild (Store.Rehydrate)
// may have dropped staged puts whose 200s are already buffered — the
// cycle is poisoned (cycleBad) and its connections abort instead of
// acking writes that were never made durable. The ownership token is
// released here: the staged group it protected is resolved either way.
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
		x.releaseToken()
		return !x.cycleBad
	}
	x.stagedOps = 0
	x.store.Commit()
	if !x.cycleBad && (!x.servingSelf() || x.store.Epoch() != x.cycleEpoch) {
		x.cycleBad = true
	}
	x.releaseToken()
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
// its sched table and releases what its half-assembled request adopted;
// a socket has neither, and marking it dead ends its serving goroutine.
func (x *executor) reap(st *connState) {
	if x.tgt != nil {
		x.tgt.reap(st)
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
		// The packet landed in a PM partition other than the target
		// shard's — the executing path's rx pool is not the shard's pool.
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
		// target shard (keyOff >= 0); misaligned PUTs fall back to the
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
	if req.Op == kvproto.OpPut && zc && !st.shed503 && x.eng.sharded.ShardFor(req.Key) == x.shard {
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
// target shard's pending group instead of committing per-op; every other
// operation first commits the pending group, both as a read barrier and
// because ops like zeroCopyGet flush buffered responses — no staged
// PUT's ack may escape before its fence.
func (x *executor) dispatch(st *connState, pr *pendingReq, staged bool) {
	x.stats.requests.Add(1)
	x.ops++
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
	// Two ways to a 503 with the pacing hint and none of the expensive
	// work (staging, fences, store reads). CoDel shed: the queue
	// controller decided this connection's pending requests push the
	// standing queue past target; parsing kept the pipeline
	// synchronized. Doomed-work elimination: the client's budget lapsed
	// while the request waited — it has already timed out or retried, so
	// executing now would burn capacity on an answer nobody reads.
	expired := !st.shed503 && !pr.deadline.IsZero() && time.Now().After(pr.deadline)
	if expired {
		x.stats.expired.Add(1)
	}
	if st.shed503 || expired {
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
			// Staging is the mutation the ownership token serialises:
			// take it before touching the shard's staged group. The
			// unbatched op commits internally, so its token window closes
			// with the call; a staged op holds it to commitGroup.
			x.ensureToken()
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
				x.releaseToken()
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
		// Target shard down, rebuilding or replaced: fall back to the
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

// allocKey copies key bytes into the executing goroutine's key arena for
// the target shard, returning their region offset (-1 on exhaustion).
// The arena is a data slot of the target shard pinned while this
// goroutine appends into it; records referencing the keys keep the slot
// alive after rotation. Arenas are keyed per (executing loop, target
// shard) so steal cycles never share arena state with the home loop, and
// the (store, epoch) stamp abandons any slot whose shard was rebuilt out
// from under it.
func (x *executor) allocKey(key []byte) int {
	a := x.lp.arenas[x.shard]
	if a != nil && (a.store != x.store || a.epoch != x.cycleEpoch) {
		// The shard was rebuilt or replaced since the arena was cut: stop
		// appending into the old slot. Its pin survives the rebuild
		// (a rescan preserves pins), so dropping it here re-admits the
		// slot once surviving records stop referencing it.
		a.unpin()
		delete(x.lp.arenas, x.shard)
		a = nil
	}
	if a == nil || a.used+len(key) > x.store.DataBufSize() {
		if a != nil {
			a.unpin()
		}
		base := x.store.AllocDataSlot()
		if base < 0 {
			return -1
		}
		if a == nil {
			a = &keyArena{}
			x.lp.arenas[x.shard] = a
		}
		a.store, a.epoch = x.store, x.cycleEpoch
		a.off, a.used = base, 0
		a.unpin = x.store.PinExtents([]core.Extent{{Off: base, Len: 1}})
	}
	off := a.off + a.used
	x.store.WriteData(off, key)
	a.used += len(key)
	return off
}
