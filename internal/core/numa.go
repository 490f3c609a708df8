package core

import (
	"fmt"

	"packetstore/internal/calib"
	"packetstore/internal/pmem"
)

// SetNUMAPlacement installs a NUMA model on the backing region and
// carves the shard partitions onto sockets. shardNode[i] names shard
// i's home node: the shard's whole partition (superblock, metadata
// slots, data area / receive pool) is owned by that node, and each
// parity partition lands on the node where most of its group's members
// live (ties go to the first member) so the parity delta of a typical
// commit stays node-local. A nil shardNode models the OS default
// first-touch-free policy instead: page-sized chunks of the whole
// region round-robin across the nodes, so every placement is equally
// mediocre — the baseline aligned placement is measured against.
//
// nodes <= 1 removes the model entirely; the region then charges the
// exact pre-NUMA costs (the Nodes=1 no-op guarantee).
//
// Must be called while the store is quiescent (after OpenSharded,
// before serving): the region's node table is read lock-free afterwards.
func (ss *ShardedStore) SetNUMAPlacement(prof calib.NUMAProfile, nodes int, shardNode []int) error {
	n := len(ss.shards)
	if nodes <= 1 {
		ss.numaNodes = 1
		ss.r.SetNUMA(1, prof, nil)
		return nil
	}
	home := make([]int, n)
	var ranges []pmem.NodeRange
	if shardNode == nil {
		// Interleaved: page-granular round-robin over the whole region,
		// parity partitions included. Shards keep a nominal home node
		// (i mod nodes) so loop placement stays well-defined.
		for i := range home {
			home[i] = i % nodes
		}
		size := ss.r.Size()
		for off := 0; off < size; off += shardAlign {
			ln := shardAlign
			if off+ln > size {
				ln = size - off
			}
			ranges = append(ranges, pmem.NodeRange{Off: off, Len: ln, Node: (off / shardAlign) % nodes})
		}
	} else {
		if len(shardNode) != n {
			return fmt.Errorf("pktstore: %d shard nodes for %d shards", len(shardNode), n)
		}
		for i, nd := range shardNode {
			if nd < 0 || nd >= nodes {
				return fmt.Errorf("pktstore: shard %d placed on node %d of %d", i, nd, nodes)
			}
			home[i] = nd
			ranges = append(ranges, pmem.NodeRange{Off: i * ss.stride, Len: ss.stride, Node: nd})
		}
		groups := parityGroups(ss.cfg, n)
		pstride := parityStride(ss.cfg)
		pbase0 := n * ss.stride
		for g, members := range groups {
			ranges = append(ranges, pmem.NodeRange{
				Off: pbase0 + g*pstride, Len: pstride,
				Node: preferredNode(members, home, nodes),
			})
		}
	}
	ss.numaNodes = nodes
	ss.r.SetNUMA(nodes, prof, ranges)
	// Stamp each store's caller-node default with its home: recovery,
	// scrub and healer work the shard drives itself is node-local until
	// a serving loop restamps it per cycle.
	ss.mu.RLock()
	for i := 0; i < n; i++ {
		if st := ss.shards[i]; st != nil {
			st.SetNUMANode(home[i])
		}
		if st := ss.parked[i]; st != nil {
			st.SetNUMANode(home[i])
		}
	}
	ss.mu.RUnlock()
	return nil
}

// preferredNode picks the node hosting the most of the given shards'
// homes; the first member breaks ties (its node was counted first).
func preferredNode(members []int, home []int, nodes int) int {
	counts := make([]int, nodes)
	best := home[members[0]]
	for _, m := range members {
		nd := home[m]
		counts[nd]++
		if counts[nd] > counts[best] {
			best = nd
		}
	}
	return best
}

// NUMANodes reports the configured socket count (1 without a model).
func (ss *ShardedStore) NUMANodes() int {
	if ss.numaNodes <= 1 {
		return 1
	}
	return ss.numaNodes
}
