// Package bench implements the experiment harness: one function per
// table/figure of the paper (plus the projection experiments the
// proposal's §4.2 quantifies), each returning a structured, printable
// result. cmd/pktbench and the repository-level benchmarks are thin
// wrappers around this package.
//
// Experiment index (see DESIGN.md):
//
//	E1 Table 1   — RTT breakdown of a 1KB write against the NoveLSM
//	               baseline: networking / data management / persistence.
//	E2 Figure 2  — latency and throughput vs concurrent connections,
//	               "Net.+persist." (rawpm) vs "Net.+data mgmt.+persist."
//	               (NoveLSM-sim).
//	E3 Table 2   — the same breakdown with the packetstore: checksum
//	               reuse, zero-copy and allocator sharing remove most of
//	               the data-management rows (ours).
//	E4 Ablation  — packetstore with individual mechanisms disabled.
//	E5 Figure 3  — Figure 2 plus the packetstore series (ours).
//	E6 Recovery  — post-crash recovery time vs record count (§5.1).
//	E7 MetaSize  — metadata slot size vs operation latency (§5.1).
package bench

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"packetstore/internal/calib"
	"packetstore/internal/core"
	"packetstore/internal/host"
	"packetstore/internal/kvclient"
	"packetstore/internal/kvserver"
	"packetstore/internal/lsm"
	"packetstore/internal/nic"
	"packetstore/internal/pmem"
	"packetstore/internal/rawpm"
	"packetstore/internal/tcp"
	"packetstore/internal/wrkgen"
)

// deployment bundles a running server + testbed.
type deployment struct {
	tb    *host.Testbed
	srv   *kvserver.Server
	store *core.Store
	ss    *core.ShardedStore // sharded pktstore deployments
	db    *lsm.DB
	pm    *pmem.Region
}

func (d *deployment) close() {
	d.srv.Close()
	d.tb.Close()
	// Deployments hold multi-hundred-MB regions; reclaim them now so GC
	// work does not bleed into the next measurement on a small host.
	d.pm, d.store, d.ss, d.db = nil, nil, nil, nil
	runtime.GC()
}

func (d *deployment) dial() (kvclient.Conn, error) { return d.tb.Dial(80) }

// align wires the hash-alignment invariant into a workload config: each
// connection learns its server RSS queue and draws keys from that
// queue's shard subspace, so every PUT arrives at the loop owning its
// shard. A no-op for unsharded deployments.
func (d *deployment) align(cfg wrkgen.Config) wrkgen.Config {
	if d.ss == nil || d.ss.Shards() == 1 {
		return cfg
	}
	n := d.ss.Shards()
	serverIP := d.tb.Server.IP
	cfg.QueueOf = func(c kvclient.Conn) int {
		tc := c.(*tcp.Conn)
		ip, port := tc.LocalAddr()
		// The server NIC hashes incoming frames: src = client, dst = server.
		return nic.RSSQueue(ip, serverIP, port, 80, n)
	}
	cfg.ShardOfKey = func(k []byte) int { return core.ShardOf(k, n) }
	return cfg
}

// backendKind selects the server configuration.
type backendKind int

const (
	kindDiscard backendKind = iota
	kindRawPM
	kindNoveLSM
	kindPktStore
)

// deployOptions tunes deployments.
type deployOptions struct {
	profile   calib.Profile
	kind      backendKind
	storeCfg  core.Config     // pktstore
	srvCfg    kvserver.Config // server knobs (group-commit MaxBatch etc.)
	shards    int             // pktstore: partitions (= RSS queues = server loops)
	zeroCopy  bool            // pktstore: PM rx pool(s)
	pmBytes   int             // region size for rawpm / novelsm
	noPersist bool            // zero the PM flush/fence latencies (Table 1 methodology)

	// NUMA shape (pktstore sharded deployments only). numaNodes <= 1
	// keeps the flat single-socket model. With a model installed,
	// numaShardNode places shard i's PM partition (nil = page-interleaved
	// across nodes), numaQueueNodes pins each RSS queue's interrupt, and
	// numaLoopNodes overrides each event loop's declared node (default:
	// its queue's interrupt node).
	numaNodes      int
	numaShardNode  []int
	numaQueueNodes []int
	numaLoopNodes  []int
}

func deploy(opt deployOptions) (*deployment, error) {
	prof := opt.profile
	pmProf := prof
	if opt.noPersist {
		pmProf.PMFlushLine = 0
		pmProf.PMFence = 0
	}
	d := &deployment{}
	var backend kvserver.Backend
	hostOpt := host.Options{Profile: prof}

	switch opt.kind {
	case kindDiscard:
		backend = kvserver.Discard{}
	case kindRawPM:
		size := opt.pmBytes
		if size == 0 {
			size = 64 << 20
		}
		d.pm = pmem.New(size, pmProf)
		backend = kvserver.RawPM{S: rawpm.New(d.pm, 0, size)}
	case kindNoveLSM:
		size := opt.pmBytes
		if size == 0 {
			size = 256 << 20
		}
		d.pm = pmem.New(size, pmProf)
		db, err := lsm.Open(lsm.Options{PM: d.pm, PMSize: size, ArenaSize: 32 << 20})
		if err != nil {
			return nil, err
		}
		d.db = db
		backend = kvserver.LSM{DB: db}
	case kindPktStore:
		cfg := opt.storeCfg
		if cfg.MetaSlots == 0 {
			cfg.MetaSlots = 1 << 16
		}
		if cfg.DataSlots == 0 {
			cfg.DataSlots = 1 << 16
		}
		// One shard (the default) is the single-core deployment: a
		// one-shard OpenSharded is core.Open bit for bit.
		shards := max(opt.shards, 1)
		d.pm = pmem.New(core.ShardedRegionSize(cfg, shards), pmProf)
		ss, err := core.OpenSharded(d.pm, cfg, shards)
		if err != nil {
			return nil, err
		}
		if opt.numaNodes > 1 {
			// Placement must precede server construction: the server
			// caches the deployment's socket count when wiring loops.
			if err := ss.SetNUMAPlacement(prof.NUMA, opt.numaNodes, opt.numaShardNode); err != nil {
				return nil, err
			}
			hostOpt.ServerQueueNodes = opt.numaQueueNodes
			opt.srvCfg.LoopNodes = opt.numaLoopNodes
		}
		d.ss = ss
		d.store = ss.Shard(0)
		backend = kvserver.ShardedPktStore{S: ss}
		if opt.zeroCopy {
			hostOpt.ServerRxPools = ss.Pools()
		}
	}

	d.tb = host.NewTestbed(hostOpt)
	srv, err := kvserver.NewWithConfig(d.tb.Server.Stack, 80, backend, opt.srvCfg)
	if err != nil {
		d.tb.Close()
		return nil, err
	}
	d.srv = srv
	go srv.Run()
	return d, nil
}

// measureRTT runs n sequential 1KB PUTs on one connection and returns the
// mean RTT (after warm-up).
func measureRTT(d *deployment, n, valueSize int) (time.Duration, error) {
	// Warm up first: fault in buffers, grow goroutine stacks, settle the
	// allocator — one-time costs that would otherwise skew the mean.
	warm := n / 5
	if warm < 100 {
		warm = 100
	}
	if _, err := wrkgen.Run(wrkgen.Config{
		Conns: 1, Requests: warm, ValueSize: valueSize,
		KeySpace: 65536, KeyDist: wrkgen.DistSeq, PutPct: 100, Seed: 2,
	}, d.dial); err != nil {
		return 0, err
	}
	res, err := wrkgen.Run(wrkgen.Config{
		Conns: 1, Requests: n, ValueSize: valueSize,
		KeySpace: 65536, KeyDist: wrkgen.DistSeq, PutPct: 100, Seed: 1,
	}, d.dial)
	if err != nil {
		return 0, err
	}
	if res.Requests == 0 {
		return 0, fmt.Errorf("bench: no requests completed")
	}
	return res.Hist.Mean(), nil
}

// measureGetRTT preloads keys (if absent) then measures GET round trips.
func measureGetRTT(d *deployment, n int) (time.Duration, error) {
	// Preload via the same sequential keyspace the PUT phase used.
	res, err := wrkgen.Run(wrkgen.Config{
		Conns: 1, Requests: n, ValueSize: 1024,
		KeySpace: 65536, KeyDist: wrkgen.DistSeq, PutPct: 0, Seed: 1,
	}, d.dial)
	if err != nil {
		return 0, err
	}
	if res.Requests == 0 {
		return 0, fmt.Errorf("bench: no GET requests completed")
	}
	return res.Hist.Mean(), nil
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

func fprintf(w io.Writer, format string, args ...any) {
	fmt.Fprintf(w, format, args...)
}
