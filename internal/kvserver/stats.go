package kvserver

import (
	"sync/atomic"
	"time"
)

// Stats counts server activity.
type Stats struct {
	Requests, Puts, Gets, Deletes, Ranges uint64
	Errors                                uint64
	BytesIn, BytesOut                     uint64
	ZeroCopyPuts                          uint64
	ZeroCopyGets                          uint64
	DerivedSums                           uint64 // body checksums harvested from the NIC
	SoftwareSums                          uint64 // body checksums computed in software
	// Sheds counts connections rejected with 503 at the per-loop
	// MaxConns cap; IdleClosed counts connections reaped by the idle
	// sweep (Config.IdleTimeout).
	Sheds      uint64
	IdleClosed uint64
	// Overload-control counters (Config.Overload). Expired counts
	// requests dropped unexecuted because their client budget
	// (X-Budget-Us) lapsed before dispatch — doomed work eliminated.
	// QueueDelay accumulates run-queue sojourn over every claimed
	// connection.
	Expired    uint64
	QueueDelay time.Duration
	// GroupCommits counts group-commit cycles that batched more than one
	// connection; GroupedConns counts the connections they covered, so
	// GroupedConns/GroupCommits is the achieved burst size.
	GroupCommits uint64
	GroupedConns uint64
	// AckAborts counts connections failed because an online shard rebuild
	// dropped staged puts after their acks were buffered: the responses
	// are discarded and the connection reset so no acked write is ever
	// lost (clients classify the reset as transient and retry).
	AckAborts uint64
	// Node is a gauge: the NUMA node this loop declared (per-loop
	// snapshots only; aggregation leaves it 0).
	Node int
	// ZeroCopyFallbacks counts PUT payloads that arrived in a packet
	// buffer outside the serving shard's PM partition — the loop's rx
	// pool was not the shard's pool — and fell back to the copy path.
	ZeroCopyFallbacks uint64
	// QueueDepth is a gauge sampled at snapshot time: undrained stack
	// ready events + NIC ring occupancy + queued run-queue connections
	// for this loop.
	QueueDepth int
	// ShardsDown is a gauge: store shards currently quarantined (served
	// keyspace answers 503).
	ShardsDown int
	// Redundancy counters sampled from the store at snapshot time:
	// parity lines written on the commit path, records re-materialised
	// from parity, repair attempts that exceeded the group's redundancy,
	// and data slots currently fenced for media damage.
	ParityWrites       uint64
	Reconstructions    uint64
	UnrecoverableSlots uint64
	SlotsHeld          int
	// Read-path counters sampled from the store at snapshot time:
	// lock-free GETs served without the shard mutex, optimistic attempts
	// discarded by a mid-read mutation, and reads that conceded to the
	// locked slow path (see core's fallback taxonomy).
	FastGets         uint64
	FastGetRetries   uint64
	FastGetFallbacks uint64
	ParseTime        time.Duration
	// BusyTime is the time this loop (core) spent servicing requests —
	// the serving critical path, including emulated PM stalls. Per-loop
	// snapshots (Server.LoopStats) expose how evenly sharding splits it.
	BusyTime time.Duration
}

// merge accumulates o into s (per-shard snapshot aggregation).
func (s *Stats) merge(o Stats) {
	s.Requests += o.Requests
	s.Puts += o.Puts
	s.Gets += o.Gets
	s.Deletes += o.Deletes
	s.Ranges += o.Ranges
	s.Errors += o.Errors
	s.BytesIn += o.BytesIn
	s.BytesOut += o.BytesOut
	s.ZeroCopyPuts += o.ZeroCopyPuts
	s.ZeroCopyGets += o.ZeroCopyGets
	s.DerivedSums += o.DerivedSums
	s.SoftwareSums += o.SoftwareSums
	s.Sheds += o.Sheds
	s.IdleClosed += o.IdleClosed
	s.Expired += o.Expired
	s.QueueDelay += o.QueueDelay
	s.GroupCommits += o.GroupCommits
	s.GroupedConns += o.GroupedConns
	s.AckAborts += o.AckAborts
	s.ZeroCopyFallbacks += o.ZeroCopyFallbacks
	s.QueueDepth += o.QueueDepth
	s.ShardsDown += o.ShardsDown
	s.ParityWrites += o.ParityWrites
	s.Reconstructions += o.Reconstructions
	s.UnrecoverableSlots += o.UnrecoverableSlots
	s.SlotsHeld += o.SlotsHeld
	s.FastGets += o.FastGets
	s.FastGetRetries += o.FastGetRetries
	s.FastGetFallbacks += o.FastGetFallbacks
	s.ParseTime += o.ParseTime
	s.BusyTime += o.BusyTime
}

// statsCounters is the atomic mirror of Stats: one instance per server
// loop, so counting never contends across shards and aggregation is a
// loop over Snapshot calls.
type statsCounters struct {
	requests, puts, gets, deletes, ranges atomic.Uint64
	errors                                atomic.Uint64
	bytesIn, bytesOut                     atomic.Uint64
	zcPuts, zcGets                        atomic.Uint64
	derivedSums, softwareSums             atomic.Uint64
	sheds, idleClosed                     atomic.Uint64
	expired                               atomic.Uint64
	queueDelayNanos                       atomic.Int64
	groupCommits, groupedConns            atomic.Uint64
	ackAborts                             atomic.Uint64
	zcFallbacks                           atomic.Uint64
	parseNanos                            atomic.Int64
	busyNanos                             atomic.Int64
	// A cache line of padding: NetServer allocates one set per connection,
	// back to back, and without it the last fields of one connection's
	// set share a line with the first fields of the next one's — all of
	// them bumped per request, from different cores.
	_ [64]byte
}

// Snapshot reads the counters into a Stats value.
func (c *statsCounters) Snapshot() Stats {
	return Stats{
		Requests: c.requests.Load(), Puts: c.puts.Load(), Gets: c.gets.Load(),
		Deletes: c.deletes.Load(), Ranges: c.ranges.Load(),
		Errors: c.errors.Load(), BytesIn: c.bytesIn.Load(), BytesOut: c.bytesOut.Load(),
		ZeroCopyPuts: c.zcPuts.Load(), ZeroCopyGets: c.zcGets.Load(),
		DerivedSums: c.derivedSums.Load(), SoftwareSums: c.softwareSums.Load(),
		Sheds: c.sheds.Load(), IdleClosed: c.idleClosed.Load(),
		Expired:      c.expired.Load(),
		QueueDelay:   time.Duration(c.queueDelayNanos.Load()),
		GroupCommits: c.groupCommits.Load(), GroupedConns: c.groupedConns.Load(),
		AckAborts:         c.ackAborts.Load(),
		ZeroCopyFallbacks: c.zcFallbacks.Load(),
		ParseTime:         time.Duration(c.parseNanos.Load()),
		BusyTime:          time.Duration(c.busyNanos.Load()),
	}
}
