package main

import (
	"fmt"
	"net"
	"time"

	"packetstore/internal/calib"
	"packetstore/internal/core"
	"packetstore/internal/host"
	"packetstore/internal/kvclient"
	"packetstore/internal/kvserver"
	"packetstore/internal/pkt"
	"packetstore/internal/pmem"
	"packetstore/internal/rawpm"
)

type deployKind int

const (
	kindCluster  deployKind = iota // simulated two-host fabric + kvserver event loop
	kindSocket                     // kvserver.NetServer on a kernel loopback listener
	kindEmbedded                   // core.ShardedStore called directly
	kindCrash                      // single core.Store loaded, power-cut and reopened
)

// workload is one row of the ISSUE 13 table. Names are fixed; later
// issues cite them.
type workload struct {
	name, why string
	kind      deployKind
	transport string // what the traffic crossed, for the provenance envelope
	profile   calib.Profile
	workers   int // client connections, or goroutines for embedded
	pipeline  int // requests in flight per connection
	maxBatch  int // kvserver.Config.MaxBatch
	putPct    int
	getPct    int // the rest are deletes
	zipf      bool
}

var workloads = []*workload{
	{
		name: "put1k_c1", kind: kindCluster, transport: "simulated fabric", profile: calib.Paper(),
		workers: 1, pipeline: 1, putPct: 100,
		why: "Table 2 yardstick: unloaded 1 KB PUT RTT = modelled network + core commit + pmem flush/fence, no queueing, so a commit/persist saving shows 1:1 in put_p50_us",
	},
	{
		name: "read95_zipf_c2", kind: kindCluster, transport: "simulated fabric", profile: calib.Paper(),
		workers: 2, pipeline: 1, putPct: 5, getPct: 95, zipf: true,
		why: "read path does the work (lock-free index walk, zero-copy transmit from PM); 5% writers open seqlock brackets, so a read gain that costs writes shows in the other op's latency",
	},
	{
		name: "put1k_burst_c2", kind: kindCluster, transport: "simulated fabric", profile: calib.Paper(),
		workers: 2, pipeline: 16, maxBatch: 16, putPct: 100,
		why: "32 outstanding PUTs saturate the single event loop: throughput_rps = 1 / server cost per request, group commit forms; latency here is queueing, so unloaded-RTT gains should show little",
	},
	{
		name: "sock_mix_c2", kind: kindSocket, transport: "kernel loopback", profile: calib.Off(),
		workers: 2, pipeline: 1, putPct: 50, getPct: 50,
		why: "the only path a pktstored user can run: real sockets, zero modelled time, pure Go + kernel cost; tcp/nic/netsim do no work here, so changes to them must not move it",
	},
	{
		name: "embed_mix_2shard", kind: kindEmbedded, transport: "none", profile: calib.Paper(),
		workers: 2, pipeline: 1, putPct: 50, getPct: 45,
		why: "no network: core + pmem do all the work; two goroutines on two shards meet in the region-wide pmem locks, so per-core persist domains and index work show here and network changes must not",
	},
	{
		name: "crash_recover", kind: kindCrash, transport: "none", profile: calib.Paper(),
		workers: 1, pipeline: 1, putPct: 100,
		why: "durability and restart: group-commit load of 32 768 records, power cut, recovery scan, byte-exact read-back; a denser slot or dropped tower must leave recover_ms flat and lose nothing",
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// storeConfig is the store geometry every workload uses.
func storeConfig() core.Config {
	return core.Config{MetaSlots: 1 << 16, DataSlots: 1 << 16, SlotSize: 128, ChecksumReuse: true}
}

// backendKind selects what the simulated-cluster server stores into; the
// rungs of the Table-1-style ladder differ only in this.
type backendKind int

const (
	backendPktStore     backendKind = iota // packetstore, NIC receiving into Store.Pool() (PASTE)
	backendPktStoreCopy                    // packetstore, DRAM receive pool: copy + software checksum path
	backendRawPM                           // copy + persist, no data management
	backendDiscard                         // parse and acknowledge only
)

// deployment is one running system under test.
type deployment struct {
	w     *workload
	pm    *pmem.Region
	store *core.Store        // cluster, socket, crash
	ss    *core.ShardedStore // embedded

	tb  *host.Testbed
	srv *kvserver.Server

	lst    net.Listener
	nsrv   *kvserver.NetServer
	served chan error
}

// deploy builds w's deployment with an empty store.
func deploy(w *workload) (*deployment, error) {
	switch w.kind {
	case kindCluster:
		return deployCluster(w, w.profile, backendPktStore)
	case kindEmbedded:
		cfg := storeConfig()
		d := &deployment{w: w, pm: pmem.New(core.ShardedRegionSize(cfg, w.workers), w.profile)}
		ss, err := core.OpenSharded(d.pm, cfg, w.workers)
		d.ss = ss
		return d, err
	}
	cfg := storeConfig()
	d := &deployment{w: w, pm: pmem.New(cfg.RegionSize(), w.profile)}
	store, err := core.Open(d.pm, cfg)
	if err != nil {
		return nil, err
	}
	d.store = store
	if w.kind == kindSocket {
		d.lst, err = net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		d.nsrv = kvserver.NewNetServer(d.lst, kvserver.PktStore{S: store})
		d.served = make(chan error, 1)
		go func() { d.served <- d.nsrv.Serve() }()
	}
	return d, nil
}

// deployCluster builds the simulated two-host testbed with the given
// backend behind the single-loop server.
func deployCluster(w *workload, prof calib.Profile, be backendKind) (*deployment, error) {
	d := &deployment{w: w}
	opt := host.Options{Profile: prof}
	var backend kvserver.Backend
	switch be {
	case backendDiscard:
		backend = kvserver.Discard{}
	case backendRawPM:
		const size = 64 << 20
		d.pm = pmem.New(size, prof)
		backend = kvserver.RawPM{S: rawpm.New(d.pm, 0, size)}
	default:
		cfg := storeConfig()
		d.pm = pmem.New(cfg.RegionSize(), prof)
		store, err := core.Open(d.pm, cfg)
		if err != nil {
			return nil, err
		}
		d.store = store
		backend = kvserver.PktStore{S: store}
		if be == backendPktStore {
			opt.ServerRxPool = store.Pool()
		}
	}
	d.tb = host.NewTestbed(opt)
	srv, err := kvserver.NewWithConfig(d.tb.Server.Stack, 80, backend, kvserver.Config{MaxBatch: w.maxBatch})
	if err != nil {
		d.tb.Close()
		return nil, err
	}
	d.srv = srv
	go srv.Run()
	return d, nil
}

func (d *deployment) dial() (kvclient.Conn, error) {
	if d.tb != nil {
		return d.tb.Dial(80)
	}
	return net.Dial("tcp", d.lst.Addr().String())
}

// stopNetwork stops the server and its transport and waits for both; the
// store and region stay usable for verification and the power cut.
func (d *deployment) stopNetwork() error {
	if d.srv != nil {
		d.srv.Close()
		d.tb.Close()
		d.srv, d.tb = nil, nil
	}
	if d.nsrv != nil {
		d.nsrv.Close()
		d.nsrv = nil
		return <-d.served
	}
	return nil
}

// Direct store access, whichever front-end the deployment has.

func (d *deployment) put(key, value []byte) error {
	if d.ss != nil {
		return d.ss.Put(key, value)
	}
	return d.store.Put(key, value)
}

func (d *deployment) get(key []byte) ([]byte, bool, error) {
	if d.ss != nil {
		return d.ss.Get(key)
	}
	return d.store.Get(key)
}

func (d *deployment) delete(key []byte) (bool, error) {
	if d.ss != nil {
		return d.ss.Delete(key)
	}
	return d.store.Delete(key)
}

func (d *deployment) records() int {
	if d.ss != nil {
		return d.ss.Len()
	}
	return d.store.Len()
}

func (d *deployment) verify() (bad int, err error) {
	var keys [][]byte
	if d.ss != nil {
		keys, err = d.ss.Verify()
	} else {
		keys, err = d.store.Verify()
	}
	return len(keys), err
}

func (d *deployment) coreStats() core.Stats {
	switch {
	case d.ss != nil:
		return d.ss.Stats()
	case d.store != nil:
		return d.store.Stats()
	}
	return core.Stats{}
}

// pmBytes is the persistent memory the live records occupy: one
// metadata slot each plus every data buffer the pool cannot hand out.
func (d *deployment) pmBytes() int {
	var pools []*pkt.Pool
	if d.ss != nil {
		pools = d.ss.Pools()
	} else {
		pools = []*pkt.Pool{d.store.Pool()}
	}
	n := d.records() * storeConfig().SlotSize
	for _, p := range pools {
		n += (p.Slab().Slots() - p.Slab().FreeSlots()) * p.BufSize()
	}
	return n
}

// reopen recovers the store from the region, as a restart after
// Region.Crash does, and returns how long the recovery took.
func (d *deployment) reopen() (time.Duration, error) {
	cfg := storeConfig()
	t0 := time.Now()
	var err error
	if d.ss != nil {
		d.ss, err = core.OpenSharded(d.pm, cfg, d.w.workers)
		if err == nil && d.ss.DownShards() > 0 {
			err = fmt.Errorf("%d shards quarantined after recovery", d.ss.DownShards())
		}
	} else {
		d.store, err = core.Open(d.pm, cfg)
	}
	return time.Since(t0), err
}

// preload stores version 1 of every key straight into the store, so the
// measured traffic is steady-state overwrites and every GET hits.
func (d *deployment) preload(m *model) error {
	val := make([]byte, valueSize)
	for id := 0; id < keySpace; id++ {
		v := m.nextVersion(id)
		fillValue(val, m.seed, id, v)
		if err := d.put(keyOf(id), val); err != nil {
			return fmt.Errorf("preload key %d: %w", id, err)
		}
		m.ackPut(id, v)
	}
	return nil
}
