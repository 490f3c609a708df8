// NUMA model: a Region can carry a per-line node-ownership table so
// cross-socket PM accesses are charged the remote rates from the calib
// NUMA profile. "Observations on Porting In-memory KV stores to
// Persistent Memory" measures remote-socket PM at roughly 2–3× local —
// much steeper than the DRAM NUMA ratio — which makes placement a
// first-order cost for a store whose packet buffers ARE the medium.
//
// The accessing socket is the node stamped on the Domain handle the
// access is issued through (Domain.SetNode). The design keeps Nodes=1 a
// strict no-op: without a map every access computes the exact pre-NUMA
// charge (count × local rate) and never touches the node table.
package pmem

import (
	"time"

	"packetstore/internal/calib"
)

// NodeRange assigns the cache lines covered by [Off, Off+Len) to a home
// NUMA node. Partial lines at the edges are assigned whole (ownership is
// a line property).
type NodeRange struct {
	Off, Len int
	Node     int
}

// SetNUMA installs a NUMA model: nodes sockets, the given remote-access
// rates, and a partition→node ownership table (lines not covered by any
// range default to node 0). nodes <= 1 removes the model. Zero-valued
// remote rates fall back to the local rate, so an all-zero profile (off)
// stays all-zero.
//
// SetNUMA must be called on a quiescent region (before serving starts):
// the table is read lock-free by every access afterwards.
func (r *Region) SetNUMA(nodes int, prof calib.NUMAProfile, ranges []NodeRange) {
	r.lockAll()
	defer r.unlockAll()
	if nodes <= 1 {
		r.numaNodes = 0
		r.lineNode = nil
		return
	}
	if nodes > 127 {
		panic("pmem: more than 127 NUMA nodes")
	}
	tbl := make([]int8, len(r.buf)/LineSize)
	for _, rg := range ranges {
		if rg.Len <= 0 {
			continue
		}
		r.check(rg.Off, rg.Len)
		if rg.Node < 0 || rg.Node >= nodes {
			panic("pmem: NodeRange node out of range")
		}
		first := rg.Off / LineSize
		last := (rg.Off + rg.Len - 1) / LineSize
		for l := first; l <= last; l++ {
			tbl[l] = int8(rg.Node)
		}
	}
	r.numaNodes = nodes
	r.lineNode = tbl
	r.remoteRead = orLocal(prof.RemoteReadLine, r.readLine)
	r.remoteWrite = orLocal(prof.RemoteWriteLine, r.writeLine)
	r.remoteFlush = orLocal(prof.RemoteFlushLine, r.flushLine)
	r.hopCost = prof.HopCost
	r.posted = r.posted || r.remoteWrite > 0 || r.remoteFlush > 0 || r.hopCost > 0
}

func orLocal(remote, local time.Duration) time.Duration {
	if remote == 0 {
		return local
	}
	return remote
}

// NUMANodes reports the number of nodes in the installed model (1 when
// no model is installed).
func (r *Region) NUMANodes() int {
	if r.numaNodes <= 1 {
		return 1
	}
	return r.numaNodes
}

// NodeAt reports the home node of the line containing off (0 without a
// model).
func (r *Region) NodeAt(off int) int {
	r.check(off, 1)
	if r.numaNodes <= 1 {
		return 0
	}
	return int(r.lineNode[off/LineSize])
}

// nodeAcc accumulates the node-attributed cost of a batch of lines so
// the counters are bumped once per operation (Domain.account), not once
// per line.
type nodeAcc struct {
	cost, extra time.Duration
	loc, rem    uint64
}

// accLine adds one line's node-aware cost to the accumulator: the local
// rate when the line's home node matches the accessing node, otherwise
// the remote rate plus per-hop interconnect cost beyond the first hop.
// Callers must have checked numaNodes > 1.
func (r *Region) accLine(a *nodeAcc, node, l int, local, remote time.Duration) {
	owner := int(r.lineNode[l])
	if owner == node {
		a.cost += local
		a.loc++
		return
	}
	d := owner - node
	if d < 0 {
		d = -d
	}
	c := remote + time.Duration(d-1)*r.hopCost
	a.cost += c
	a.extra += c - local
	a.rem++
}

// spanCost returns the charge for nl consecutive lines starting at the
// line containing off, accessed from node, attributing them in a.
// Without a NUMA model this is exactly nl × local — the pre-NUMA
// arithmetic, with no table walk.
func (r *Region) spanCost(a *nodeAcc, node, off, nl int, local, remote time.Duration) time.Duration {
	if r.numaNodes <= 1 || nl == 0 {
		return time.Duration(nl) * local
	}
	first := off / LineSize
	for l := first; l < first+nl; l++ {
		r.accLine(a, node, l, local, remote)
	}
	return a.cost
}
