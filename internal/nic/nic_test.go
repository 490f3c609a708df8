package nic

import (
	"bytes"
	"encoding/binary"
	"sync"
	"testing"
	"time"

	"packetstore/internal/calib"
	"packetstore/internal/checksum"
	"packetstore/internal/eth"
	"packetstore/internal/ipv4"
	"packetstore/internal/netsim"
	"packetstore/internal/pkt"
	"packetstore/internal/pmem"
)

// buildTCPFrame assembles a valid eth+IPv4+TCP frame carrying payload.
func buildTCPFrame(payload []byte, seq uint32, goodCsum bool) []byte {
	f := make([]byte, eth.HeaderLen+ipv4.HeaderLen+20+len(payload))
	eth.Header{Dst: eth.HostAddr(2), Src: eth.HostAddr(1), Type: eth.TypeIPv4}.Encode(f)
	ih := ipv4.Header{
		TotalLen: uint16(ipv4.HeaderLen + 20 + len(payload)),
		TTL:      64, Proto: ipv4.ProtoTCP,
		Src: ipv4.HostAddr(1), Dst: ipv4.HostAddr(2),
	}
	ih.Encode(f[eth.HeaderLen:])
	tcp := f[eth.HeaderLen+ipv4.HeaderLen:]
	binary.BigEndian.PutUint16(tcp[0:2], 5555)
	binary.BigEndian.PutUint16(tcp[2:4], 80)
	binary.BigEndian.PutUint32(tcp[4:8], seq)
	tcp[12] = 5 << 4 // data offset 20
	tcp[13] = 0x18   // PSH|ACK
	binary.BigEndian.PutUint16(tcp[14:16], 65535)
	copy(tcp[20:], payload)
	fillTCPChecksum(f, eth.HeaderLen, eth.HeaderLen+ipv4.HeaderLen)
	if !goodCsum {
		tcp[16] ^= 0xff
	}
	return f
}

func send(p *netsim.Port, f []byte) bool { return p.SendAt(f, time.Now()) }

func newPair(t *testing.T, cfg Config) (*NIC, *netsim.Port) {
	t.Helper()
	return newPairOn(t, cfg, netsim.LinkConfig{})
}

func newPairOn(t *testing.T, cfg Config, link netsim.LinkConfig) (*NIC, *netsim.Port) {
	t.Helper()
	a, b := netsim.NewLink(link)
	if cfg.RxPool == nil {
		cfg.RxPool = pkt.NewPool(2048, 64)
	}
	if cfg.MAC == (eth.Addr{}) {
		cfg.MAC = eth.HostAddr(2)
	}
	n := New(cfg, a)
	t.Cleanup(n.Close)
	return n, b
}

func recvBuf(t *testing.T, n *NIC, q int) *pkt.Buf {
	t.Helper()
	select {
	case b := <-n.Rx(q):
		return b
	case <-time.After(2 * time.Second):
		t.Fatal("rx timeout")
		return nil
	}
}

func TestRxParsesAndTimestamps(t *testing.T) {
	n, peer := newPair(t, Config{Offloads: Offloads{HWTimestamp: true}})
	payload := []byte("hello tcp payload")
	send(peer, buildTCPFrame(payload, 1000, true))
	b := recvBuf(t, n, 0)
	defer b.Release()
	if b.L3 == 0 || b.L4 == 0 || b.Payload == 0 {
		t.Fatalf("layer offsets unset: %d %d %d", b.L3, b.L4, b.Payload)
	}
	if !bytes.Equal(b.PayloadBytes(), payload) {
		t.Fatalf("payload %q", b.PayloadBytes())
	}
	if b.HWTime.IsZero() {
		t.Fatal("hardware timestamp not set")
	}
	st := n.Stats()
	if st.RxPackets != 1 || st.RxBytes == 0 {
		t.Fatalf("stats %+v", st)
	}
}

func TestRxChecksumOffload(t *testing.T) {
	n, peer := newPair(t, Config{Offloads: Offloads{RxChecksum: true}})
	payload := []byte("payload to be summed!")
	send(peer, buildTCPFrame(payload, 1, true))
	b := recvBuf(t, n, 0)
	defer b.Release()
	if b.CsumStatus != pkt.CsumComplete {
		t.Fatalf("CsumStatus=%v", b.CsumStatus)
	}
	want := checksum.Fold(checksum.Partial(0, payload))
	if got := checksum.Fold(b.Csum); got != want {
		t.Fatalf("payload sum %#04x want %#04x", got, want)
	}
	if n.Stats().RxCsumGood != 1 {
		t.Fatal("good counter")
	}
}

func TestRxChecksumBad(t *testing.T) {
	n, peer := newPair(t, Config{Offloads: Offloads{RxChecksum: true}})
	send(peer, buildTCPFrame([]byte("corrupted"), 1, false))
	b := recvBuf(t, n, 0)
	defer b.Release()
	if b.CsumStatus != pkt.CsumNone {
		t.Fatalf("bad checksum marked %v", b.CsumStatus)
	}
	if n.Stats().RxCsumBad != 1 {
		t.Fatal("bad counter")
	}
}

func TestRxPoolExhaustionDrops(t *testing.T) {
	pool := pkt.NewPool(2048, 1)
	n, peer := newPair(t, Config{RxPool: pool})
	send(peer, buildTCPFrame([]byte("one"), 1, true))
	b := recvBuf(t, n, 0) // hold the only buffer
	defer b.Release()
	send(peer, buildTCPFrame([]byte("two"), 2, true))
	deadline := time.Now().Add(2 * time.Second)
	for n.Stats().RxDropNoBuf == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no-buffer drop not counted")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestRxIntoPMPoolMarksDirty(t *testing.T) {
	r := pmem.New(1<<20, calib.Off())
	pool := pkt.NewPMPool(r, 0, 2048, 16)
	n, peer := newPair(t, Config{RxPool: pool})
	send(peer, buildTCPFrame([]byte("persist-me"), 1, true))
	b := recvBuf(t, n, 0)
	defer b.Release()
	if b.PMOff() < 0 {
		t.Fatal("buffer not PM-backed")
	}
	if r.DirtyLines() == 0 {
		t.Fatal("DMA did not mark PM lines dirty")
	}
	// The frame bytes are in the region at the buffer's offset.
	if !bytes.Equal(r.Slice(b.PMOff(), b.Len()), b.Bytes()) {
		t.Fatal("region does not hold the frame")
	}
}

func TestTxEmitsFrame(t *testing.T) {
	n, peer := newPair(t, Config{})
	b := pkt.NewBuf(make([]byte, 0, 128))
	raw := buildTCPFrame([]byte("outbound"), 7, true)
	b2 := pkt.NewBuf(raw)
	if !n.Tx(b2) {
		t.Fatal("tx refused")
	}
	b.Release()
	select {
	case f := <-peer.Recv():
		if !bytes.Equal(f.B, raw) {
			t.Fatal("frame mutated in tx")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("tx timeout")
	}
	if st := n.Stats(); st.TxPackets != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestTxChecksumOffload(t *testing.T) {
	n, peer := newPair(t, Config{Offloads: Offloads{TxChecksum: true}})
	raw := buildTCPFrame([]byte("fill my checksum"), 9, true)
	// Zero the checksum and mark partial.
	raw[eth.HeaderLen+ipv4.HeaderLen+16] = 0
	raw[eth.HeaderLen+ipv4.HeaderLen+17] = 0
	b := pkt.NewBuf(raw)
	b.L3 = eth.HeaderLen
	b.L4 = eth.HeaderLen + ipv4.HeaderLen
	b.Payload = b.L4 + 20
	b.CsumStatus = pkt.CsumPartial
	n.Tx(b)
	f := (<-peer.Recv()).B
	// Verify the checksum the NIC filled.
	var src, dst [4]byte
	copy(src[:], f[eth.HeaderLen+12:])
	copy(dst[:], f[eth.HeaderLen+16:eth.HeaderLen+20])
	seg := f[eth.HeaderLen+ipv4.HeaderLen:]
	sum := checksum.PseudoHeaderSum(src, dst, ipv4.ProtoTCP, len(seg))
	sum = checksum.Combine(sum, checksum.Partial(0, seg))
	if checksum.Fold(sum) != 0xffff {
		t.Fatal("NIC-filled checksum invalid")
	}
}

func TestTSOSplitsSegments(t *testing.T) {
	n, peer := newPair(t, Config{MSS: 100, Offloads: Offloads{TSO: true, TxChecksum: true}})
	payload := make([]byte, 350)
	for i := range payload {
		payload[i] = byte(i)
	}
	raw := buildTCPFrame(payload, 1000, true)
	b := pkt.NewBuf(raw)
	b.L3 = eth.HeaderLen
	b.L4 = eth.HeaderLen + ipv4.HeaderLen
	b.Payload = b.L4 + 20
	b.CsumStatus = pkt.CsumPartial
	n.Tx(b)

	var got []byte
	seqs := []uint32{}
	for i := 0; i < 4; i++ {
		select {
		case fr := <-peer.Recv():
			f := fr.B
			ih, err := ipv4.Decode(f[eth.HeaderLen:])
			if err != nil {
				t.Fatalf("segment %d: %v", i, err)
			}
			tcp := f[eth.HeaderLen+ipv4.HeaderLen:]
			seqs = append(seqs, binary.BigEndian.Uint32(tcp[4:8]))
			seg := tcp[:ih.PayloadLen()]
			// Each segment's checksum must validate.
			sum := checksum.PseudoHeaderSum(ih.Src, ih.Dst, ipv4.ProtoTCP, len(seg))
			sum = checksum.Combine(sum, checksum.Partial(0, seg))
			if checksum.Fold(sum) != 0xffff {
				t.Fatalf("segment %d checksum invalid", i)
			}
			psh := tcp[13]&0x08 != 0
			if tcp[13]&0x10 == 0 {
				t.Fatalf("segment %d lost ACK flag", i)
			}
			if i < 3 && psh {
				t.Fatalf("segment %d has PSH before last", i)
			}
			got = append(got, seg[20:]...)
		case <-time.After(2 * time.Second):
			t.Fatalf("timeout at segment %d", i)
		}
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("reassembled payload mismatch")
	}
	for i, s := range seqs {
		if want := uint32(1000 + i*100); s != want {
			t.Fatalf("segment %d seq %d want %d", i, s, want)
		}
	}
	if n.Stats().TSOSegments != 4 {
		t.Fatalf("TSOSegments=%d", n.Stats().TSOSegments)
	}
}

func TestTxWithFrags(t *testing.T) {
	n, peer := newPair(t, Config{})
	head := pkt.NewBuf([]byte("head|"))
	head.AddFrag(pkt.Frag{B: []byte("frag1|"), PMOff: -1})
	head.AddFrag(pkt.Frag{B: []byte("frag2"), PMOff: -1})
	n.Tx(head)
	select {
	case f := <-peer.Recv():
		if string(f.B) != "head|frag1|frag2" {
			t.Fatalf("gather result %q", f.B)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("timeout")
	}
}

func TestRSSQueueSteering(t *testing.T) {
	n, peer := newPair(t, Config{Queues: 4})
	if n.Queues() != 4 {
		t.Fatal("queue count")
	}
	// Same flow must always land on the same queue.
	for i := 0; i < 5; i++ {
		send(peer, buildTCPFrame([]byte{byte(i)}, uint32(i), true))
	}
	hits := make([]int, 4)
	deadline := time.After(2 * time.Second)
	for total := 0; total < 5; {
		progressed := false
		for q := 0; q < 4; q++ {
			select {
			case b := <-n.Rx(q):
				hits[q]++
				total++
				progressed = true
				b.Release()
			default:
			}
		}
		if !progressed {
			select {
			case <-deadline:
				t.Fatalf("timeout, got %v", hits)
			case <-time.After(time.Millisecond):
			}
		}
	}
	nonzero := 0
	for _, h := range hits {
		if h > 0 {
			nonzero++
		}
	}
	if nonzero != 1 {
		t.Fatalf("one flow spread across %d queues: %v", nonzero, hits)
	}
}

func TestNonTCPFrameStillDelivered(t *testing.T) {
	n, peer := newPair(t, Config{Offloads: Offloads{RxChecksum: true}})
	// An ARP-typed frame: delivered raw on queue 0 with no offsets.
	f := make([]byte, 60)
	eth.Header{Dst: eth.Broadcast, Src: eth.HostAddr(1), Type: eth.TypeARP}.Encode(f)
	send(peer, f)
	b := recvBuf(t, n, 0)
	defer b.Release()
	if b.L4 != 0 || b.CsumStatus != pkt.CsumNone {
		t.Fatal("non-TCP frame got TCP treatment")
	}
}

func TestOversizeFrameDropped(t *testing.T) {
	pool := pkt.NewPool(256, 8)
	n, peer := newPair(t, Config{RxPool: pool})
	send(peer, make([]byte, 1000))
	deadline := time.Now().Add(2 * time.Second)
	for n.Stats().RxDropNoBuf == 0 {
		if time.Now().After(deadline) {
			t.Fatal("oversize drop not counted")
		}
		time.Sleep(time.Millisecond)
	}
	if pool.InUse() != 0 {
		t.Fatal("dropped frame leaked a buffer")
	}
}

func BenchmarkRxPath(b *testing.B) {
	a, peer := netsim.NewLink(netsim.LinkConfig{})
	pool := pkt.NewPool(2048, 1024)
	n := New(Config{MAC: eth.HostAddr(2), RxPool: pool, Offloads: Offloads{RxChecksum: true}}, a)
	defer n.Close()
	frame := buildTCPFrame(make([]byte, 1024), 1, true)
	// Lockstep send/receive: under open-loop load the rx ring legitimately
	// drops packets, which would starve a counting consumer.
	for i := 0; i < b.N; i++ {
		f := append([]byte(nil), frame...)
		for !send(peer, f) {
		}
		buf := <-n.Rx(0)
		buf.Release()
	}
}

// TestRxWaitsForStampAndCost pins the receive floor: a frame is processed
// (DMAed and hardware-timestamped) no earlier than its arrival stamp —
// ready plus propagation, or the end of its serialization — plus this
// NIC's per-packet cost, and each later frame of a burst pays the cost
// again after its predecessor. A receive loop that skips its wait fails.
func TestRxWaitsForStampAndCost(t *testing.T) {
	const (
		lat  = 300 * time.Microsecond
		hw   = 200 * time.Microsecond
		sw   = 100 * time.Microsecond
		cost = hw + sw
	)
	n, peer := newPairOn(t, Config{PerPacket: hw, PerPacketSW: sw, Offloads: Offloads{HWTimestamp: true}},
		netsim.LinkConfig{Latency: lat, Bandwidth: 8e6}) // 8 Mbit/s: 125 B serialize in 125µs
	frame := buildTCPFrame(make([]byte, 125-eth.HeaderLen-ipv4.HeaderLen-20), 1, true)
	const burst = 4
	ready := time.Now()
	for i := 0; i < burst; i++ {
		if !peer.SendAt(append([]byte(nil), frame...), ready) {
			t.Fatal("send refused")
		}
	}
	var floor time.Duration
	for i := 0; i < burst; i++ {
		b := recvBuf(t, n, 0)
		got := b.HWTime.Sub(ready)
		b.Release()
		arrive := max(lat, time.Duration(i+1)*125*time.Microsecond)
		floor = max(arrive, floor) + cost
		if got < floor {
			t.Fatalf("frame %d processed ready+%v, before its floor ready+%v", i, got, floor)
		}
	}
}

// TestTxRingBound pins the transmit ring: Tx never waits, it stamps each
// frame with the time the transmit engine finishes it, and a frame that
// would start more than RingLen per-packet costs after now is dropped and
// counted — the ring holds RingLen descriptors behind the one in service.
func TestTxRingBound(t *testing.T) {
	const (
		ring = 4
		cost = 50 * time.Millisecond
		sent = 20
	)
	n, peer := newPair(t, Config{RingLen: ring, PerPacket: cost})
	start := time.Now()
	accepted := 0
	for i := 0; i < sent; i++ {
		if n.Tx(pkt.NewBuf([]byte{byte(i)})) {
			accepted++
		}
	}
	if e := time.Since(start); e > cost {
		t.Fatalf("Tx blocked for %v", e)
	}
	if accepted != ring+1 {
		t.Fatalf("accepted %d frames behind a %v per-packet cost, want %d", accepted, cost, ring+1)
	}
	if st := n.Stats(); st.TxDropRing != sent-ring-1 || st.TxPackets != ring+1 {
		t.Fatalf("TxDropRing %d TxPackets %d, want %d and %d", st.TxDropRing, st.TxPackets, sent-ring-1, ring+1)
	}
	for i := 0; i < accepted; i++ {
		f := <-peer.Recv()
		if f.B[0] != byte(i) {
			t.Fatalf("frame %d carries %d", i, f.B[0])
		}
		if d := f.At.Sub(start); d < time.Duration(i+1)*cost {
			t.Fatalf("frame %d leaves the NIC at start+%v, want >= %v", i, d, time.Duration(i+1)*cost)
		}
	}
}

// TestTxConcurrentSenders drives one NIC's transmit from several
// goroutines at once, as two connections of one host do: every frame
// reaches the wire, and the wire sees their stamps in order, because the
// transmit engine's clock and the hand-off to the port advance together.
func TestTxConcurrentSenders(t *testing.T) {
	const senders, each = 4, 200
	n, peer := newPairOn(t, Config{PerPacket: time.Microsecond, RingLen: senders * each},
		netsim.LinkConfig{QueueLen: senders * each})
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if !n.Tx(pkt.NewBuf(buildTCPFrame([]byte{byte(s), byte(i)}, uint32(i), true))) {
					t.Error("tx refused")
					return
				}
			}
		}()
	}
	wg.Wait()
	var prev time.Time
	for i := 0; i < senders*each; i++ {
		f := <-peer.Recv()
		if f.At.Before(prev) {
			t.Fatalf("frame %d stamped %v before its predecessor", i, prev.Sub(f.At))
		}
		prev = f.At
	}
	if st := n.Stats(); st.TxPackets != senders*each || st.TxDropRing != 0 {
		t.Fatalf("stats %+v", st)
	}
}
