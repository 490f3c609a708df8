package kvserver

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"packetstore/internal/core"
	"packetstore/internal/httpmsg"
)

// Healer is the self-healing supervisor: a ticker goroutine that (1)
// drives the background PM scrubber — a low-priority walker re-validating
// slot CRCs and value checksums at a configurable slots-per-tick budget,
// repairing or quarantining damage in place — and (2) rebuilds
// quarantined shards online with capped exponential backoff between
// attempts, re-admitting them the moment recovery succeeds. The store
// keeps serving throughout: scrub steps bound their store-lock hold time
// by the budget, and each rebuild runs in its own goroutine outside the
// shard router's lock, so a slow rebuild stalls neither scrubbing nor
// other shards' rebuilds.
type Healer struct {
	ss  *core.ShardedStore
	cfg HealConfig

	mu      sync.Mutex
	cursors []int           // per shard: next scrub slot
	backoff []time.Duration // per shard: current rebuild retry delay
	nextTry []time.Time     // per shard: earliest next rebuild attempt
	downAt  []time.Time     // per shard: when the healer first saw it down
	busy    []bool          // per shard: a rebuild goroutine is in flight
	stats   HealStats
	rejoins []time.Duration

	// rejoinC publishes each rejoin sample the moment a rebuild
	// re-admits its shard — the event-driven wait the heal benchmarks
	// block on instead of polling counters against a wall clock. Sends
	// never block (buffered; extra samples are dropped once full, and the
	// cumulative stats still hold every sample).
	rejoinC chan time.Duration

	// wake receives shard indices from the store's quarantine
	// notification, so the first rebuild attempt starts immediately
	// instead of waiting out the scrub cadence — time-to-rejoin is
	// rebuild-time-dominated, not probe-cadence-dominated.
	wake chan int

	done      chan struct{}
	ret       chan struct{}
	closeOnce sync.Once
	// wg tracks in-flight rebuild goroutines: rebuilds run off the scrub
	// ticker so a slow one never stalls scrubbing or other shards'
	// rebuild attempts, and Close waits for them.
	wg sync.WaitGroup
}

// HealConfig tunes the supervisor. The zero value scrubs 64 slots per
// shard every 5ms and retries failed rebuilds from 10ms up to 1s
// (rebuildBackoffMax).
type HealConfig struct {
	// ScrubInterval is the tick between scrub steps. Together with
	// ScrubSlots it sets the scrub bandwidth budget:
	// shards * ScrubSlots * SlotSize / ScrubInterval bytes/sec of PM
	// read traffic, and ScrubSlots bounds the store-lock hold per step.
	ScrubInterval time.Duration
	// ScrubSlots is the number of slots re-validated per shard per tick.
	ScrubSlots int
	// RebuildBackoff is the delay before retrying a failed rebuild;
	// it doubles per consecutive failure up to rebuildBackoffMax.
	RebuildBackoff time.Duration
}

// rebuildBackoffMax caps the doubling rebuild retry delay.
const rebuildBackoffMax = time.Second

func (c *HealConfig) fill() {
	if c.ScrubInterval <= 0 {
		c.ScrubInterval = 5 * time.Millisecond
	}
	if c.ScrubSlots <= 0 {
		c.ScrubSlots = 64
	}
	if c.RebuildBackoff <= 0 {
		c.RebuildBackoff = 10 * time.Millisecond
	}
}

// HealStats counts the supervisor's work.
type HealStats struct {
	// ScrubPasses counts completed full sweeps of one shard's slot array.
	ScrubPasses uint64
	// ScrubErrorsFound counts damage discovered: bad slots (CRC, structure
	// or value checksum) and superblock failures.
	ScrubErrorsFound uint64
	// ScrubRepaired counts in-place repairs: records the scrub excised.
	ScrubRepaired uint64
	// Rebuilds counts shards rebuilt and re-admitted online;
	// RebuildFailures counts attempts that left the shard down.
	Rebuilds        uint64
	RebuildFailures uint64
	// Reconstructions counts records the scrubber repaired in place from
	// parity; UnrecoverableSlots counts scrub repair attempts that found
	// loss beyond the group's redundancy (rebuild-path reconstructions
	// are visible in the store's own counters).
	Reconstructions    uint64
	UnrecoverableSlots uint64
	// ShardsDown / ShardsRebuilding are gauges sampled at Stats time.
	ShardsDown       int
	ShardsRebuilding int
	// Rejoins holds each heal's time from quarantine observation to
	// re-admission — the time-to-rejoin distribution.
	Rejoins []time.Duration
}

// NewHealer creates a supervisor over ss. Call Run (usually in its own
// goroutine) to start it and Close to stop it.
func NewHealer(ss *core.ShardedStore, cfg HealConfig) *Healer {
	cfg.fill()
	n := ss.Shards()
	h := &Healer{
		ss: ss, cfg: cfg,
		cursors: make([]int, n),
		backoff: make([]time.Duration, n),
		nextTry: make([]time.Time, n),
		downAt:  make([]time.Time, n),
		busy:    make([]bool, n),
		wake:    make(chan int, n),
		rejoinC: make(chan time.Duration, 4*n),
		done:    make(chan struct{}),
		ret:     make(chan struct{}),
	}
	// Push, don't poll: a quarantine rings the heal loop the moment it
	// happens. The send never blocks — with the buffer full a tick is
	// already overdue and will sweep every down shard anyway.
	ss.OnQuarantine(func(shard int, _ error) {
		select {
		case h.wake <- shard:
		default:
		}
	})
	return h
}

// RejoinC returns the channel on which the supervisor publishes each
// heal's time-to-rejoin as the shard is re-admitted. Receivers get an
// event-driven signal that a rebuild completed — no counter polling, no
// wall-clock window.
func (h *Healer) RejoinC() <-chan time.Duration { return h.rejoinC }

// Run drives the heal loop until Close.
func (h *Healer) Run() {
	defer close(h.ret)
	t := time.NewTicker(h.cfg.ScrubInterval)
	defer t.Stop()
	for {
		select {
		case <-h.done:
			return
		case i := <-h.wake:
			// Quarantine notification: start the rebuild now instead of
			// on the next tick (the guard re-checks — the shard may have
			// been rebuilt by a racing attempt already).
			if h.ss.ShardErr(i) != nil {
				h.tryRebuild(i, time.Now())
			}
		case now := <-t.C:
			h.tick(now)
		}
	}
}

// Close stops the supervisor and waits for the loop and any in-flight
// rebuild to exit. Safe for concurrent and repeated callers.
func (h *Healer) Close() {
	h.closeOnce.Do(func() { close(h.done) })
	<-h.ret
	h.wg.Wait()
}

// tick is one supervisor cycle: attempt due rebuilds, then spend the
// scrub budget on every serving shard.
func (h *Healer) tick(now time.Time) {
	for i := 0; i < h.ss.Shards(); i++ {
		if h.ss.ShardErr(i) != nil {
			h.tryRebuild(i, now)
			continue
		}
		h.mu.Lock()
		h.downAt[i], h.backoff[i], h.nextTry[i] = time.Time{}, 0, time.Time{}
		h.mu.Unlock()
		h.scrubStep(i)
	}
}

// tryRebuild attempts to rebuild down shard i, honoring the capped
// exponential backoff between failed attempts. The rebuild itself runs
// in its own goroutine (at most one per shard): a slow rebuild must not
// stall scrubbing or the rebuild attempts of other down shards for the
// rest of the tick.
func (h *Healer) tryRebuild(i int, now time.Time) {
	h.mu.Lock()
	if h.downAt[i].IsZero() {
		h.downAt[i] = now
	}
	if h.busy[i] || now.Before(h.nextTry[i]) {
		h.mu.Unlock()
		return
	}
	h.busy[i] = true
	downAt := h.downAt[i]
	h.mu.Unlock()

	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		err := h.ss.Rebuild(i)
		// One clock reading feeds both the rejoin sample and the backoff
		// bookkeeping, so the two never disagree about when the attempt
		// ended.
		end := time.Now()

		h.mu.Lock()
		defer h.mu.Unlock()
		h.busy[i] = false
		if err != nil {
			h.stats.RebuildFailures++
			if h.backoff[i] <= 0 {
				h.backoff[i] = h.cfg.RebuildBackoff
			} else if h.backoff[i] < rebuildBackoffMax {
				h.backoff[i] *= 2
				if h.backoff[i] > rebuildBackoffMax {
					h.backoff[i] = rebuildBackoffMax
				}
			}
			h.nextTry[i] = end.Add(h.backoff[i])
			return
		}
		h.stats.Rebuilds++
		h.rejoins = append(h.rejoins, end.Sub(downAt))
		h.downAt[i], h.backoff[i], h.nextTry[i] = time.Time{}, 0, time.Time{}
		select {
		case h.rejoinC <- end.Sub(downAt):
		default:
		}
	}()
}

// scrubStep spends one tick's budget on serving shard i: a superblock
// probe at the start of each pass and a budgeted slot walk.
func (h *Healer) scrubStep(i int) {
	st := h.ss.Shard(i)
	if st == nil {
		return // quarantined between the health check and here
	}
	h.mu.Lock()
	cursor := h.cursors[i]
	h.mu.Unlock()
	if cursor == 0 {
		if err := st.CheckSuperblock(); err != nil {
			h.ss.Quarantine(i, err)
			h.mu.Lock()
			h.stats.ScrubErrorsFound++
			h.mu.Unlock()
			return
		}
	}
	res := st.ScrubSlots(cursor, h.cfg.ScrubSlots)
	h.mu.Lock()
	h.cursors[i] = res.Next
	h.stats.ScrubErrorsFound += uint64(res.Bad)
	h.stats.ScrubRepaired += uint64(res.Excised)
	h.stats.Reconstructions += uint64(res.Reconstructed)
	h.stats.UnrecoverableSlots += uint64(res.Unrecoverable)
	h.mu.Unlock()
	// Damage an in-place repair could not clear takes the shard through
	// the rebuild path: quarantine with a typed reason. Unrecoverable
	// loss MUST surface typed rather than as silent misses for the
	// damaged keys, and deferred/metadata damage is exactly what a group
	// rebuild (which owns the whole parity group) exists to repair.
	switch {
	case res.Unrecoverable > 0:
		h.ss.Quarantine(i, fmt.Errorf("%w: %d records beyond parity redundancy", core.ErrUnrecoverable, res.Unrecoverable))
		return
	case res.NeedsRebuild > 0:
		h.ss.Quarantine(i, fmt.Errorf("%w: %d damaged records need a group rebuild", core.ErrCorrupt, res.NeedsRebuild))
		return
	}
	if res.Next == 0 {
		h.mu.Lock()
		h.stats.ScrubPasses++
		h.mu.Unlock()
	}
}

// Stats snapshots the supervisor's counters plus the store's current
// down/rebuilding gauges.
func (h *Healer) Stats() HealStats {
	h.mu.Lock()
	out := h.stats
	out.Rejoins = append([]time.Duration(nil), h.rejoins...)
	h.mu.Unlock()
	for _, st := range h.ss.States() {
		switch st.State {
		case "down":
			out.ShardsDown++
		case "rebuilding":
			out.ShardsRebuilding++
		}
	}
	return out
}

// Health is the report GET /healthz serves: the store's shard states (a
// quarantined shard reads down, and the endpoint answers 503, exactly
// when its keys answer 503), this server's loop and overload counters,
// the read-path section, the NUMA section under a multi-node placement,
// and — with a healer installed — its scrub and rebuild state.
func (e *engine) Health() HealthReport {
	var states []core.ShardStatus
	if e.sharded != nil {
		states = e.sharded.States()
	}
	rep := healthFromStates(states)
	rep.addLoops(e.loopStats())
	if h := e.healer.Load(); h != nil {
		h.addTo(&rep)
	}
	if e.sharded == nil {
		return rep
	}
	if ss := e.sharded.Stats(); ss.Gets != 0 || ss.FastGets != 0 || ss.FastGetFallbacks != 0 {
		rep.Reads = &ReadPathHealth{
			Gets:             ss.Gets,
			Hits:             ss.Hits,
			FastGets:         ss.FastGets,
			FastGetRetries:   ss.FastGetRetries,
			FastGetFallbacks: ss.FastGetFallbacks,
		}
	}
	if nodes := e.sharded.NUMANodes(); nodes > 1 {
		rs := e.sharded.Region().Stats()
		nh := &NUMAHealth{
			Nodes:         nodes,
			LocalLines:    rs.LocalLines,
			RemoteLines:   rs.RemoteLines,
			RemoteExtraMs: float64(rs.RemoteExtra) / float64(time.Millisecond),
		}
		if total := nh.LocalLines + nh.RemoteLines; total > 0 {
			nh.RemoteShare = float64(nh.RemoteLines) / float64(total)
		}
		rep.NUMA = nh
	}
	return rep
}

// addTo fills the report's scrub section from the supervisor's counters.
func (h *Healer) addTo(rep *HealthReport) {
	st := h.Stats()
	rep.Scrub = ScrubHealth{
		Passes:          st.ScrubPasses,
		ErrorsFound:     st.ScrubErrorsFound,
		Repaired:        st.ScrubRepaired,
		Rebuilds:        st.Rebuilds,
		RebuildFailures: st.RebuildFailures,
		Reconstructions: st.Reconstructions,
		Unrecoverable:   st.UnrecoverableSlots,
	}
}

// ShardHealth is one shard's state in the healthz report.
type ShardHealth struct {
	Shard  int    `json:"shard"`
	State  string `json:"state"` // serving | rebuilding | down
	Reason string `json:"reason,omitempty"`
}

// ScrubHealth is the scrubber/rebuild progress section of the report.
type ScrubHealth struct {
	Passes          uint64 `json:"passes"`
	ErrorsFound     uint64 `json:"errors_found"`
	Repaired        uint64 `json:"repaired"`
	Rebuilds        uint64 `json:"rebuilds"`
	RebuildFailures uint64 `json:"rebuild_failures"`
	Reconstructions uint64 `json:"reconstructions"`
	Unrecoverable   uint64 `json:"unrecoverable_slots"`
}

// LoopHealth is one event loop's view in the healthz report: its live
// backlog and request count, so workload skew is observable in
// production, not just in pktbench.
type LoopHealth struct {
	Queue      int    `json:"queue"`
	QueueDepth int    `json:"queue_depth"`
	Node       int    `json:"node"`
	Requests   uint64 `json:"requests"`
	// Expired counts this loop's requests answered 503 unexecuted
	// because their X-Budget-Us lapsed.
	Expired uint64 `json:"expired"`
}

// OverloadHealth is the overload-control section of the healthz report,
// aggregated across loops: accept-cap sheds, idle reaps, expired
// budgets and the summed run-queue delay.
type OverloadHealth struct {
	Sheds        uint64  `json:"sheds"`
	IdleClosed   uint64  `json:"idle_closed"`
	Expired      uint64  `json:"expired"`
	QueueDelayMs float64 `json:"queue_delay_ms"`
}

// ReadPathHealth is the lock-free read path's section of the healthz
// report: how many GETs the seqlock fast path served without the shard
// mutex versus how many conceded to the locked slow path. A fallback
// ratio near 1 under a read-heavy workload means something is
// continuously holding mutation brackets (scrub pressure, heavy write
// churn) and the E14 speedup is not being realised.
type ReadPathHealth struct {
	Gets             uint64 `json:"gets"`
	Hits             uint64 `json:"hits"`
	FastGets         uint64 `json:"fast_gets"`
	FastGetRetries   uint64 `json:"fast_get_retries"`
	FastGetFallbacks uint64 `json:"fast_get_fallbacks"`
}

// NUMAHealth is the placement section of the healthz report, present
// only when a multi-node placement is installed: the region's node-
// attributed line counters (remote share ~0 means the placement is
// aligned) and the total modeled cross-socket surcharge.
type NUMAHealth struct {
	Nodes         int     `json:"nodes"`
	LocalLines    uint64  `json:"local_lines"`
	RemoteLines   uint64  `json:"remote_lines"`
	RemoteShare   float64 `json:"remote_share"`
	RemoteExtraMs float64 `json:"remote_extra_ms"`
}

// HealthReport is the GET /healthz body. Ready is true only when every
// shard serves — the poll-for-readiness signal the heal experiment (and
// an operator's load balancer) watches.
type HealthReport struct {
	Ready    bool            `json:"ready"`
	Shards   []ShardHealth   `json:"shards"`
	Scrub    ScrubHealth     `json:"scrub"`
	Loops    []LoopHealth    `json:"loops,omitempty"`
	Reads    *ReadPathHealth `json:"reads,omitempty"`
	Overload *OverloadHealth `json:"overload,omitempty"`
	NUMA     *NUMAHealth     `json:"numa,omitempty"`
}

// addLoops fills the report's loop and overload sections from a
// server's per-loop snapshots (Server.LoopStats, NetServer.LoopStats).
func (rep *HealthReport) addLoops(loops []Stats) {
	var ov OverloadHealth
	for q, ls := range loops {
		rep.Loops = append(rep.Loops, LoopHealth{
			Queue:      q,
			QueueDepth: ls.QueueDepth,
			Node:       ls.Node,
			Requests:   ls.Requests,
			Expired:    ls.Expired,
		})
		ov.Sheds += ls.Sheds
		ov.IdleClosed += ls.IdleClosed
		ov.Expired += ls.Expired
		ov.QueueDelayMs += float64(ls.QueueDelay) / float64(time.Millisecond)
	}
	rep.Overload = &ov
}

// appendHealth serialises a report as the GET /healthz response: 200
// when every shard serves and 503 while any is down or rebuilding — the
// JSON body is present either way so a poller can see per-shard
// progress.
func appendHealth(resp []byte, rep HealthReport) []byte {
	b, err := json.Marshal(rep)
	if err != nil {
		return httpmsg.AppendResponse(resp, 500, 0)
	}
	code := 200
	if !rep.Ready {
		code = 503
	}
	resp = httpmsg.AppendResponse(resp, code, len(b))
	return append(resp, b...)
}

func healthFromStates(states []core.ShardStatus) HealthReport {
	rep := HealthReport{Ready: true}
	for i, s := range states {
		rep.Shards = append(rep.Shards, ShardHealth{Shard: i, State: s.State, Reason: s.Reason})
		if s.State != "serving" {
			rep.Ready = false
		}
	}
	return rep
}
