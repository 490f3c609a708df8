// Package packetstore is a reproduction of "Packets as Persistent
// In-Memory Data Structures" (Michio Honda, HotNets 2021): a key-value
// store whose on-media format is persistent packet metadata.
//
// The package is a facade over the internal implementation:
//
//   - Store — the packetstore itself: persistent packet-metadata slots in
//     a (simulated) persistent-memory region, indexed by a persistent
//     skip list built out of those slots; values are stored where the NIC
//     wrote them, integrity checksums are harvested from the transport,
//     and timestamps come from NIC hardware stamps.
//   - Region — the simulated PM device (latency model + crash semantics),
//     optionally file-backed for durability across process runs.
//   - Cluster — a complete simulated deployment (client host, server
//     host, 25GbE-like fabric, storage server) for experiments and
//     examples.
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// reproduced evaluation.
package packetstore

import (
	"fmt"

	"packetstore/internal/calib"
	"packetstore/internal/core"
	"packetstore/internal/host"
	"packetstore/internal/kvclient"
	"packetstore/internal/kvserver"
	"packetstore/internal/pmem"
	"packetstore/internal/tcp"
)

// Re-exported core types: the store and its vocabulary.
type (
	// Store is the packetstore. See internal/core for the full API.
	Store = core.Store
	// StoreConfig tunes a Store's geometry and mechanisms.
	StoreConfig = core.Config
	// Extent locates value bytes in the PM data area.
	Extent = core.Extent
	// Ref is a zero-copy reference to a stored record.
	Ref = core.Ref
	// Record is an iteration result.
	Record = core.Record
	// PutOptions drives the zero-copy ingest path.
	PutOptions = core.PutOptions
	// ShardedStore partitions a region into independent store shards
	// routed by key hash (see DESIGN.md §5.7).
	ShardedStore = core.ShardedStore

	// Region is the simulated persistent-memory device.
	Region = pmem.Region
	// Profile is a hardware latency model.
	Profile = calib.Profile

	// Client is a KV-over-HTTP protocol client.
	Client = kvclient.Client
)

// Store errors.
var (
	ErrFull       = core.ErrFull
	ErrKeyTooLong = core.ErrKeyTooLong
	ErrCorrupt    = core.ErrCorrupt
	// ErrShardDown marks operations routed to a quarantined shard; the
	// rest of the store keeps serving (match with errors.Is).
	ErrShardDown = core.ErrShardDown
)

// Profiles.
var (
	// PaperProfile calibrates hardware latencies to the paper's testbed.
	PaperProfile = calib.Paper
	// NoLatencyProfile disables all hardware latency emulation.
	NoLatencyProfile = calib.Off
)

// NewRegion creates an in-memory simulated PM region.
func NewRegion(size int, p Profile) *Region { return pmem.New(size, p) }

// OpenRegionFile opens (or creates) a file-backed PM region, giving real
// durability across process restarts.
func OpenRegionFile(path string, size int, p Profile) (*Region, error) {
	return pmem.OpenFile(path, size, p)
}

// Open formats or recovers a Store over a region.
func Open(r *Region, cfg StoreConfig) (*Store, error) { return core.Open(r, cfg) }

// OpenSharded formats or recovers a ShardedStore of n partitions over a
// region (recovery scans shards in parallel). Size the region with
// ShardedRegionSize.
func OpenSharded(r *Region, cfg StoreConfig, n int) (*ShardedStore, error) {
	return core.OpenSharded(r, cfg, n)
}

// ShardedRegionSize returns the region size n shards of cfg need.
func ShardedRegionSize(cfg StoreConfig, n int) int { return core.ShardedRegionSize(cfg, n) }

// Cluster is a complete simulated deployment: a storage server running
// the packetstore over the simulated network stack, and a client host to
// connect from. It is the programmatic form of the paper's testbed.
type Cluster struct {
	// Store is shard 0 — the whole store in the default single-shard
	// deployment.
	Store  *Store
	Region *Region
	// Sharded is the full sharded view (one shard unless
	// ClusterConfig.Shards > 1).
	Sharded *ShardedStore

	tb  *host.Testbed
	srv *kvserver.Server
}

// ClusterConfig configures NewCluster.
type ClusterConfig struct {
	// Profile selects the latency model (default: no emulated latency).
	Profile Profile
	// StoreConfig shapes the store (defaults: 4096 slots of each kind,
	// checksum reuse on).
	StoreConfig StoreConfig
	// Region supplies an existing PM region (e.g. file-backed, or one
	// that survived a simulated crash); nil allocates a fresh one.
	Region *Region
	// Shards partitions the store (and the server) N ways: N store
	// shards, N NIC RSS queues each receiving into its shard's PM
	// partition, N server event loops. 0 or 1 keeps the original
	// single-core deployment bit-for-bit.
	Shards int
	// Nodes models a NUMA machine with that many sockets. Shard i's PM
	// partition, RSS queue interrupt and event loop all land on node
	// i mod Nodes (the aligned placement), and the region bills the
	// profile's remote rates on every cache line that crosses sockets.
	// 0 or 1 keeps the flat single-socket model — a strict no-op on
	// the charging path.
	Nodes int
}

// NewCluster builds and starts a simulated deployment. The server NIC
// receives directly into the store's PM packet pool (the PASTE
// configuration), so the zero-copy and checksum-reuse paths are active.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	sc := cfg.StoreConfig
	if sc.MetaSlots == 0 && sc.DataSlots == 0 {
		sc.ChecksumReuse = true
	}
	n := cfg.Shards
	if n < 1 {
		n = 1
	}
	r := cfg.Region
	if r == nil {
		r = pmem.New(core.ShardedRegionSize(sc, n), cfg.Profile)
	}
	// One shard is the original deployment: OpenSharded(r, sc, 1) lays
	// the region out and opens it exactly as core.Open does, and one
	// receive pool gives the NIC one queue and the server one loop.
	ss, err := core.OpenSharded(r, sc, n)
	if err != nil {
		return nil, err
	}
	var loopNodes, queueNodes []int
	if cfg.Nodes > 1 {
		// Aligned placement: shard i, its RSS queue and its event loop
		// all live on node i mod Nodes. Placement must be installed
		// before the server is built — the server caches whether the
		// deployment is multi-socket when it wires its loops.
		shardNode := make([]int, n)
		for i := range shardNode {
			shardNode[i] = i % cfg.Nodes
		}
		if err := ss.SetNUMAPlacement(cfg.Profile.NUMA, cfg.Nodes, shardNode); err != nil {
			return nil, err
		}
		loopNodes, queueNodes = shardNode, shardNode
	}
	if d := ss.DownShards(); d > 0 {
		// The NIC's RSS queues receive directly into each shard's PM
		// partition; a deployment cannot wire queues to a quarantined
		// shard's pool. Degraded serving is for store-level embedders —
		// a cluster needs every shard healthy.
		for i, h := range ss.Health() {
			if h != nil {
				return nil, fmt.Errorf("cluster: shard %d quarantined: %w", i, h)
			}
		}
	}
	tb := host.NewTestbed(host.Options{
		Profile:          cfg.Profile,
		ServerRxPools:    ss.Pools(),
		ServerQueueNodes: queueNodes,
	})
	srv, err := kvserver.NewWithConfig(tb.Server.Stack, 80, kvserver.ShardedPktStore{S: ss},
		kvserver.Config{LoopNodes: loopNodes})
	if err != nil {
		tb.Close()
		return nil, err
	}
	go srv.Run()
	return &Cluster{
		Store: ss.Shard(0), Region: r, Sharded: ss,
		tb: tb, srv: srv,
	}, nil
}

// Dial opens a client connection to the cluster's server and wraps it in
// a protocol client.
func (c *Cluster) Dial() (*Client, error) {
	conn, err := c.tb.Dial(80)
	if err != nil {
		return nil, err
	}
	return kvclient.New(conn), nil
}

// DialRaw opens a raw transport connection (for custom protocols or load
// generators).
func (c *Cluster) DialRaw() (*tcp.Conn, error) { return c.tb.Dial(80) }

// ServerStats reports the storage server's counters.
func (c *Cluster) ServerStats() kvserver.Stats { return c.srv.Stats() }

// Close stops the server, tears the fabric down, and syncs the region's
// durable image to its backing file (when file-backed), returning the
// sync error instead of dropping it. The Region (and the data in it)
// survives, so a new Cluster can be started over it — the programmatic
// equivalent of a reboot.
func (c *Cluster) Close() error {
	c.srv.Close()
	c.tb.Close()
	return c.Region.Sync()
}

// String identifies the library.
func String() string { return fmt.Sprintf("packetstore (HotNets'21 reproduction)") }
