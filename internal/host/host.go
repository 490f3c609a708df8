// Package host assembles simulated hosts — NIC, TCP/IP stack, fabric
// port — into testbeds that mirror the paper's: one storage server and
// one (or logically many) client machine on a switched 25GbE fabric,
// with latencies taken from a calibration profile.
package host

import (
	"time"

	"packetstore/internal/calib"
	"packetstore/internal/eth"
	"packetstore/internal/ipv4"
	"packetstore/internal/netsim"
	"packetstore/internal/nic"
	"packetstore/internal/pkt"
	"packetstore/internal/tcp"
)

// Host is one simulated machine.
type Host struct {
	Name  string
	MAC   eth.Addr
	IP    ipv4.Addr
	NIC   *nic.NIC
	Stack *tcp.Stack
}

// Close stops the host's stack (and NIC).
func (h *Host) Close() { h.Stack.Close() }

// Options configures a testbed.
type Options struct {
	// Profile supplies all emulated latencies (default: calib.Off).
	Profile calib.Profile
	// Offloads for both NICs (default: everything on, as on the paper's
	// XXV710s with checksum offload enabled).
	Offloads *nic.Offloads
	// ServerRxPool overrides the server NIC's receive pool — pass the
	// packetstore's PM pool for the PASTE configuration. nil uses DRAM.
	ServerRxPool *pkt.Pool
	// ServerRxPools gives the server NIC one RSS queue per pool, each
	// queue DMAing into its own pool — pass a sharded packetstore's
	// per-shard PM pools so every flow's payloads land in the partition
	// of the shard serving its queue. Overrides ServerRxPool.
	ServerRxPools []*pkt.Pool
	// ServerQueueNodes pins each server RSS queue's interrupt to a NUMA
	// node (nic.Config.QueueNodes); the serving loops read the mapping
	// to place themselves on the interrupt's socket.
	ServerQueueNodes []int
	// Loss/Reorder/Duplicate/Corrupt inject fabric impairments (tests
	// and fault-injection harnesses). Corrupt flips one random bit per
	// affected frame; the checksum path must catch it.
	Loss, Reorder, Duplicate, Corrupt float64
	// Seed for impairments.
	Seed int64
	// StackConfig tunes both TCP stacks.
	StackConfig tcp.Config
}

// rxPoolBufs sizes the DRAM receive pools.
const rxPoolBufs = 4096

// DefaultOffloads matches the testbed NICs: checksum offload both ways,
// TSO, hardware timestamps.
func DefaultOffloads() nic.Offloads {
	return nic.Offloads{RxChecksum: true, TxChecksum: true, TSO: true, HWTimestamp: true}
}

// Testbed is a two-host client/server fabric.
type Testbed struct {
	Client *Host
	Server *Host
}

// NewTestbed builds the two-host testbed.
func NewTestbed(opt Options) *Testbed {
	off := DefaultOffloads()
	if opt.Offloads != nil {
		off = *opt.Offloads
	}
	link := netsim.LinkConfig{
		Latency:   opt.Profile.WireLatency,
		Bandwidth: opt.Profile.WireBandwidth,
		Loss:      opt.Loss,
		Reorder:   opt.Reorder,
		Duplicate: opt.Duplicate,
		Corrupt:   opt.Corrupt,
		Seed:      opt.Seed,
	}
	pa, pb := netsim.NewLink(link)

	mk := func(id int, name string, port *netsim.Port, rxPool *pkt.Pool, rxPools []*pkt.Pool, queueNodes []int) *Host {
		if rxPool == nil && len(rxPools) == 0 {
			rxPool = pkt.NewPool(2048, rxPoolBufs)
		}
		h := &Host{
			Name: name,
			MAC:  eth.HostAddr(id),
			IP:   ipv4.HostAddr(id),
		}
		h.NIC = nic.New(nic.Config{
			MAC:         h.MAC,
			RxPool:      rxPool,
			RxPools:     rxPools,
			QueueNodes:  queueNodes,
			Offloads:    off,
			PerPacket:   opt.Profile.NICPerPacket,
			PerPacketSW: opt.Profile.StackPerPacket,
		}, port)
		h.Stack = tcp.NewStack(h.NIC, h.IP, opt.StackConfig)
		return h
	}
	tb := &Testbed{
		Client: mk(1, "client", pa, nil, nil, nil),
		Server: mk(2, "server", pb, opt.ServerRxPool, opt.ServerRxPools, opt.ServerQueueNodes),
	}
	tb.Client.Stack.AddNeighbor(tb.Server.IP, tb.Server.MAC)
	tb.Server.Stack.AddNeighbor(tb.Client.IP, tb.Client.MAC)
	return tb
}

// Dial opens a client connection to the server's port.
func (tb *Testbed) Dial(port uint16) (*tcp.Conn, error) {
	return tb.Client.Stack.Dial(tb.Server.IP, port)
}

// Close tears the testbed down.
func (tb *Testbed) Close() {
	tb.Client.Close()
	tb.Server.Close()
}

// Eventually polls cond until it holds or the deadline passes (test
// helper shared by integration suites).
func Eventually(d time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		time.Sleep(time.Millisecond)
	}
	return cond()
}
