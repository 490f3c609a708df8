// Package nic simulates a network interface controller: descriptor rings,
// DMA into packet-buffer pools, and the hardware offloads the paper
// proposes to re-purpose for storage — receive checksum validation with
// CHECKSUM_COMPLETE-style payload sums, transmit checksumming, TCP
// segmentation offload, and hardware receive timestamps.
//
// Offloaded work costs no emulated time: it happens in the NIC pipeline,
// concurrent with transfer. What the model charges per packet is the
// descriptor/PCIe/doorbell cost (Config.PerPacket) plus the configured
// software-stack overhead (Config.PerPacketSW) standing in for the
// softirq/syscall path of the testbed's kernel stack.
//
// The charges are modelled time, not host time. Transmit runs on the
// caller's goroutine: Tx advances the transmit engine's completion time by
// the per-packet cost, segments and checksums the frame, and hands it to
// the fabric stamped with that time — nothing waits. Receive runs on one
// goroutine per NIC, which waits once per frame, until the frame's arrival
// stamp plus the per-packet cost (or the previous frame's completion plus
// the cost, if later), and then DMAs it and runs the receive offloads.
//
// When the receive pool is PM-backed (PASTE), DMA lands packet data
// directly in persistent memory; the NIC marks the lines dirty and the
// application decides when to flush — persistence stays an explicit,
// measured cost.
package nic

import (
	"encoding/binary"
	"sync"
	"sync/atomic"
	"time"

	"packetstore/internal/checksum"
	"packetstore/internal/eth"
	"packetstore/internal/ipv4"
	"packetstore/internal/latency"
	"packetstore/internal/netsim"
	"packetstore/internal/pkt"
)

// Offloads selects which hardware offloads are active.
type Offloads struct {
	// RxChecksum verifies the TCP checksum of received segments and, when
	// valid, exports the unfolded partial sum of the TCP payload in
	// Buf.Csum with CsumComplete status.
	RxChecksum bool
	// TxChecksum fills the TCP checksum of transmitted segments whose
	// CsumStatus is CsumPartial.
	TxChecksum bool
	// TSO segments large TCP transmit buffers into MSS-sized frames in
	// the NIC, cloning headers and advancing sequence numbers.
	TSO bool
	// HWTimestamp stamps received packets with the NIC clock.
	HWTimestamp bool
}

// Config describes a NIC.
type Config struct {
	MAC    eth.Addr
	RxPool *pkt.Pool
	// RxPools, when set, gives each RSS queue its own receive pool:
	// queue q DMAs into RxPools[q]. This is the steering a sharded
	// packetstore exploits — each queue's pool is the PM data area of
	// the shard serving that queue, so a flow's packets land in the
	// partition that owns its keys. Overrides RxPool and Queues.
	RxPools []*pkt.Pool
	// Queues is the number of RSS receive queues (default 1). Flows hash
	// by 4-tuple onto queues.
	Queues int
	// RingLen bounds the tx ring and each rx ring (default 512). A
	// transmit that would start more than RingLen per-packet costs after
	// now finds the tx ring full and is dropped.
	RingLen  int
	Offloads Offloads
	// PerPacket is the emulated hardware per-packet cost in each
	// direction: a transmitted frame leaves the NIC PerPacket (plus
	// PerPacketSW) after the transmit engine is free, and a received frame
	// is processed no earlier than its arrival stamp plus the same.
	PerPacket time.Duration
	// PerPacketSW is the emulated fixed software-path cost charged with
	// each packet in each direction, as PerPacket is, standing in for
	// kernel-stack overheads the thin simulator stack does not have.
	PerPacketSW time.Duration
	// MSS is the TCP maximum segment size used by TSO (default 1460).
	MSS int
	// QueueNodes pins each RSS queue's interrupt (and therefore its rx
	// pool, when the pool is the shard's PM data area) to a NUMA node:
	// queue q fires on node QueueNodes[q]. Nil means node 0 for every
	// queue. The NIC itself charges no node-dependent cost — DMA writes
	// land wherever the pool lives — but the serving stack reads the
	// mapping (NodeOfQueue) to place each queue's event loop on the
	// interrupt's socket.
	QueueNodes []int
}

// Stats holds NIC counters.
type Stats struct {
	RxPackets   uint64
	RxBytes     uint64
	RxDropNoBuf uint64 // rx pool exhausted
	RxDropRing  uint64 // rx ring overflow
	TxPackets   uint64
	TxBytes     uint64
	TxDropRing  uint64 // tx ring overflow
	TSOSegments uint64
	RxCsumGood  uint64
	RxCsumBad   uint64
}

// NIC is a simulated adapter bound to one fabric port.
type NIC struct {
	cfg     Config
	port    *netsim.Port
	rxqs    []chan *pkt.Buf
	rxPools []*pkt.Pool // per-queue receive pools
	done    chan struct{}
	wg      sync.WaitGroup

	txMu   sync.Mutex
	txBusy time.Time // the transmit engine finishes its last frame then

	rxPackets, rxBytes, rxDropNoBuf, rxDropRing atomic.Uint64
	txPackets, txBytes, txDropRing, tsoSegments atomic.Uint64
	rxCsumGood, rxCsumBad                       atomic.Uint64
}

// New creates a NIC on port and starts its receive engine.
func New(cfg Config, port *netsim.Port) *NIC {
	if len(cfg.RxPools) > 0 {
		cfg.Queues = len(cfg.RxPools)
	}
	if cfg.Queues <= 0 {
		cfg.Queues = 1
	}
	if cfg.RingLen <= 0 {
		cfg.RingLen = 512
	}
	if cfg.MSS <= 0 {
		cfg.MSS = 1460
	}
	n := &NIC{
		cfg:  cfg,
		port: port,
		done: make(chan struct{}),
	}
	if len(cfg.RxPools) > 0 {
		n.rxPools = cfg.RxPools
	} else {
		n.rxPools = make([]*pkt.Pool, cfg.Queues)
		for i := range n.rxPools {
			n.rxPools[i] = cfg.RxPool
		}
	}
	n.rxqs = make([]chan *pkt.Buf, cfg.Queues)
	for i := range n.rxqs {
		n.rxqs[i] = make(chan *pkt.Buf, cfg.RingLen)
	}
	n.wg.Add(1)
	go n.rxLoop()
	return n
}

// MAC returns the adapter's address.
func (n *NIC) MAC() eth.Addr { return n.cfg.MAC }

// MSS returns the TSO segment size.
func (n *NIC) MSS() int { return n.cfg.MSS }

// Offloads returns the active offload set.
func (n *NIC) Offloads() Offloads { return n.cfg.Offloads }

// RxPool returns queue 0's receive buffer pool.
func (n *NIC) RxPool() *pkt.Pool { return n.rxPools[0] }

// RxPoolQ returns queue q's receive buffer pool.
func (n *NIC) RxPoolQ(q int) *pkt.Pool { return n.rxPools[q] }

// Rx returns receive queue q's channel of packets.
func (n *NIC) Rx(q int) <-chan *pkt.Buf { return n.rxqs[q] }

// RxQueueLen returns the number of received packets waiting in queue
// q's descriptor ring — the NIC-level component of a queue's occupancy,
// which work-stealing loops use to pick victims by depth.
func (n *NIC) RxQueueLen(q int) int { return len(n.rxqs[q]) }

// Queues returns the RSS queue count.
func (n *NIC) Queues() int { return len(n.rxqs) }

// NodeOfQueue reports the NUMA node queue q's interrupt fires on
// (Config.QueueNodes; node 0 when unconfigured).
func (n *NIC) NodeOfQueue(q int) int {
	if q < 0 || q >= len(n.cfg.QueueNodes) {
		return 0
	}
	return n.cfg.QueueNodes[q]
}

// Stats returns a snapshot of the counters.
func (n *NIC) Stats() Stats {
	return Stats{
		RxPackets:   n.rxPackets.Load(),
		RxBytes:     n.rxBytes.Load(),
		RxDropNoBuf: n.rxDropNoBuf.Load(),
		RxDropRing:  n.rxDropRing.Load(),
		TxPackets:   n.txPackets.Load(),
		TxBytes:     n.txBytes.Load(),
		TxDropRing:  n.txDropRing.Load(),
		TSOSegments: n.tsoSegments.Load(),
		RxCsumGood:  n.rxCsumGood.Load(),
		RxCsumBad:   n.rxCsumBad.Load(),
	}
}

// Close stops the NIC and its fabric port.
func (n *NIC) Close() {
	close(n.done)
	n.port.Close()
	n.wg.Wait()
}

// Tx hands a packet to the adapter. The buffer's view must contain the
// frame from the Ethernet header; fragments extend the payload. L3/L4/
// Payload offsets must be set for TCP offloads to apply. Tx consumes the
// buffer (linearizing it into a frame — the DMA gather), runs the transmit
// offloads and puts the result on the wire stamped with the time the
// transmit engine finishes it. It returns false if the tx ring is full, in
// which case the packet is dropped.
func (n *NIC) Tx(b *pkt.Buf) bool {
	frame := make([]byte, b.TotalLen())
	b.Linearize(frame)
	var l3, l4, payload int // offsets within frame; 0 = not TCP/IPv4
	if b.L3 > 0 {
		l3 = b.L3 - b.HeadOffset()
		l4 = b.L4 - b.HeadOffset()
		payload = b.Payload - b.HeadOffset()
	}
	csumFill := b.CsumStatus == pkt.CsumPartial && n.cfg.Offloads.TxChecksum && l4 > 0
	tso := n.cfg.Offloads.TSO && l4 > 0 && len(frame)-payload > n.cfg.MSS
	b.Release()

	cost := n.cfg.PerPacket + n.cfg.PerPacketSW
	n.txMu.Lock()
	defer n.txMu.Unlock()
	now := time.Now()
	if n.txBusy.Sub(now) > time.Duration(n.cfg.RingLen)*cost {
		n.txDropRing.Add(1)
		return false
	}
	if n.txBusy.Before(now) {
		n.txBusy = now
	}
	n.txBusy = n.txBusy.Add(cost)
	if tso {
		n.transmitTSO(frame, l3, l4, payload)
		return true
	}
	if csumFill {
		fillTCPChecksum(frame, l3, l4)
	}
	n.txPackets.Add(1)
	n.txBytes.Add(uint64(len(frame)))
	n.port.SendAt(frame, n.txBusy)
	return true
}

// transmitTSO splits one oversized TCP frame into MSS-sized segments,
// replicating headers and advancing IP ID and TCP sequence numbers — the
// hardware path of GSO. The caller holds txMu.
func (n *NIC) transmitTSO(frame []byte, l3, l4, payloadOff int) {
	hdr := frame[:payloadOff]
	payload := frame[payloadOff:]
	mss := n.cfg.MSS
	baseSeq := binary.BigEndian.Uint32(frame[l4+4 : l4+8])
	baseID := binary.BigEndian.Uint16(frame[l3+4 : l3+6])
	flags := frame[l4+13]
	for off, i := 0, 0; off < len(payload); i++ {
		seg := payload[off:]
		last := len(seg) <= mss
		if !last {
			seg = seg[:mss]
		}
		f := make([]byte, len(hdr)+len(seg))
		copy(f, hdr)
		copy(f[len(hdr):], seg)
		// IP: total length, ID, header checksum.
		binary.BigEndian.PutUint16(f[l3+2:l3+4], uint16(len(f)-l3))
		binary.BigEndian.PutUint16(f[l3+4:l3+6], baseID+uint16(i))
		f[l3+10], f[l3+11] = 0, 0
		cs := checksum.Checksum(f[l3 : l3+ipv4.HeaderLen])
		binary.BigEndian.PutUint16(f[l3+10:l3+12], cs)
		// TCP: sequence; FIN/PSH only on the last segment.
		binary.BigEndian.PutUint32(f[l4+4:l4+8], baseSeq+uint32(off))
		fl := flags
		if !last {
			fl &^= 0x09 // clear FIN|PSH
		}
		f[l4+13] = fl
		fillTCPChecksum(f, l3, l4)
		n.tsoSegments.Add(1)
		n.txPackets.Add(1)
		n.txBytes.Add(uint64(len(f)))
		n.port.SendAt(f, n.txBusy)
		off += len(seg)
	}
}

// fillTCPChecksum computes and stores the TCP checksum of the frame's
// segment, using the IPv4 pseudo header.
func fillTCPChecksum(frame []byte, l3, l4 int) {
	var src, dst [4]byte
	copy(src[:], frame[l3+12:l3+16])
	copy(dst[:], frame[l3+16:l3+20])
	seg := frame[l4:]
	frame[l4+16], frame[l4+17] = 0, 0
	sum := checksum.PseudoHeaderSum(src, dst, ipv4.ProtoTCP, len(seg))
	sum = checksum.Combine(sum, checksum.Partial(0, seg))
	cs := ^checksum.Fold(sum)
	binary.BigEndian.PutUint16(frame[l4+16:l4+18], cs)
}

// rxLoop is the receive engine. Its one wait per frame is the only place
// the fabric's modelled time (propagation, serialization, both NICs'
// per-packet costs) turns into host time: the frame is processed at its
// arrival stamp plus this NIC's per-packet cost, or that cost after the
// previous frame, whichever is later — never before.
func (n *NIC) rxLoop() {
	defer n.wg.Done()
	cost := n.cfg.PerPacket + n.cfg.PerPacketSW
	var busy time.Time
	for {
		select {
		case <-n.done:
			return
		case f := <-n.port.Recv():
			if busy.Before(f.At) {
				busy = f.At
			}
			busy = busy.Add(cost)
			latency.Spin(time.Until(busy))
			n.receive(f.B)
		}
	}
}

func (n *NIC) receive(frame []byte) {
	// RSS steering happens in the NIC pipeline before DMA: the queue
	// choice selects the descriptor ring AND its buffer pool, so with
	// per-queue PM pools the payload lands in the owning partition.
	q := n.rssQueue(frame)
	pool := n.rxPools[q]
	b := pool.Alloc(0)
	if b == nil {
		n.rxDropNoBuf.Add(1)
		return
	}
	if len(frame) > b.Tailroom() {
		// Oversized frame for the pool's buffers: drop.
		b.Release()
		n.rxDropNoBuf.Add(1)
		return
	}
	// DMA: the frame lands in the pool buffer; if the pool is PM-backed,
	// the region takes the write and the lines are dirty (DDIO leaves
	// them unflushed).
	dst := b.Append(len(frame))
	if r := pool.Region(); r != nil {
		r.DMA(b.PMOff(), frame)
	} else {
		copy(dst, frame)
	}
	if n.cfg.Offloads.HWTimestamp {
		b.HWTime = time.Now()
	}
	n.rxPackets.Add(1)
	n.rxBytes.Add(uint64(len(frame)))

	n.parseOffloads(b)

	select {
	case n.rxqs[q] <- b:
	default:
		b.Release()
		n.rxDropRing.Add(1)
	}
}

// rssQueue parses the raw frame just far enough to steer it: the RSS
// hash of the TCP/IPv4 4-tuple picks the receive queue. Non-TCP and
// short frames land on queue 0.
func (n *NIC) rssQueue(f []byte) int {
	if len(n.rxqs) == 1 {
		return 0
	}
	if len(f) < eth.HeaderLen+ipv4.HeaderLen {
		return 0
	}
	if binary.BigEndian.Uint16(f[12:14]) != eth.TypeIPv4 {
		return 0
	}
	ihl := int(f[eth.HeaderLen]&0x0f) * 4
	if f[eth.HeaderLen+9] != ipv4.ProtoTCP || len(f) < eth.HeaderLen+ihl+20 {
		return 0
	}
	srcIP := binary.BigEndian.Uint32(f[eth.HeaderLen+12 : eth.HeaderLen+16])
	dstIP := binary.BigEndian.Uint32(f[eth.HeaderLen+16 : eth.HeaderLen+20])
	ports := binary.BigEndian.Uint32(f[eth.HeaderLen+ihl : eth.HeaderLen+ihl+4])
	return rssSpread(rssHash(srcIP, dstIP, ports), len(n.rxqs))
}

// rssHash is the Toeplitz stand-in: fold the 4-tuple through a
// multiplicative hash.
func rssHash(srcIP, dstIP, ports uint32) uint32 {
	return (srcIP ^ dstIP ^ ports) * 0x9e3779b1
}

// rssSpread maps a hash onto [0, queues) through the product's HIGH bits
// (fastrange). A plain modulo would read the low bits, which a
// multiplicative hash barely perturbs: flows from one host differ only
// in the ephemeral port (bits 16+ of the input), so hash%queues would
// steer every flow of a client to the same queue.
func rssSpread(h uint32, queues int) int {
	return int((uint64(h) * uint64(queues)) >> 32)
}

// RSSQueue computes, for a frame with the given 4-tuple (as seen by the
// receiving NIC), the queue an adapter with the given queue count steers
// it to. Exported so stacks and clients can align flows with the shard
// serving a queue — the NIC-offload-to-storage-partition mapping.
func RSSQueue(srcIP, dstIP ipv4.Addr, srcPort, dstPort uint16, queues int) int {
	if queues <= 1 {
		return 0
	}
	src := binary.BigEndian.Uint32(srcIP[:])
	dst := binary.BigEndian.Uint32(dstIP[:])
	ports := uint32(srcPort)<<16 | uint32(dstPort)
	return rssSpread(rssHash(src, dst, ports), queues)
}

// parseOffloads sets layer offsets and runs the receive checksum
// offload.
func (n *NIC) parseOffloads(b *pkt.Buf) {
	f := b.Bytes()
	if len(f) < eth.HeaderLen+ipv4.HeaderLen {
		return
	}
	et := binary.BigEndian.Uint16(f[12:14])
	if et != eth.TypeIPv4 {
		return
	}
	l3 := b.HeadOffset() + eth.HeaderLen
	b.L3 = l3
	ihl := int(f[eth.HeaderLen]&0x0f) * 4
	proto := f[eth.HeaderLen+9]
	if proto != ipv4.ProtoTCP || len(f) < eth.HeaderLen+ihl+20 {
		return
	}
	l4 := l3 + ihl
	b.L4 = l4
	tcp := f[eth.HeaderLen+ihl:]
	doff := int(tcp[12]>>4) * 4
	if doff < 20 || len(tcp) < doff {
		return
	}
	b.Payload = l4 + doff

	if n.cfg.Offloads.RxChecksum {
		var src, dst [4]byte
		copy(src[:], f[eth.HeaderLen+12:eth.HeaderLen+16])
		copy(dst[:], f[eth.HeaderLen+16:eth.HeaderLen+20])
		totalLen := int(binary.BigEndian.Uint16(f[eth.HeaderLen+2 : eth.HeaderLen+4]))
		segLen := totalLen - ihl
		if segLen >= doff && eth.HeaderLen+ihl+segLen <= len(f) {
			seg := f[eth.HeaderLen+ihl : eth.HeaderLen+ihl+segLen]
			segSum := checksum.Partial(0, seg)
			sum := checksum.Combine(checksum.PseudoHeaderSum(src, dst, ipv4.ProtoTCP, segLen), segSum)
			if checksum.Fold(sum) == 0xffff {
				n.rxCsumGood.Add(1)
				b.CsumStatus = pkt.CsumComplete
				// Export the payload-only partial sum: whole-segment sum
				// minus header bytes. The header is always even-length
				// (doff is a multiple of 4), so Subtract applies.
				b.Csum = checksum.Subtract(segSum, checksum.Partial(0, seg[:doff]))
			} else {
				n.rxCsumBad.Add(1)
				b.CsumStatus = pkt.CsumNone
			}
		}
	}
}
