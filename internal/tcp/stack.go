package tcp

import (
	"errors"
	"sync"
	"time"

	"packetstore/internal/checksum"
	"packetstore/internal/eth"
	"packetstore/internal/ipv4"
	"packetstore/internal/nic"
	"packetstore/internal/pkt"
)

// Errors returned by the connection API.
var (
	ErrClosed       = errors.New("tcp: connection closed")
	ErrReset        = errors.New("tcp: connection reset by peer")
	ErrTimeout      = errors.New("tcp: operation timed out")
	ErrStackClosed  = errors.New("tcp: stack closed")
	ErrListenerUsed = errors.New("tcp: port already in use")
	ErrRefused      = errors.New("tcp: connection refused")
)

// Config tunes a Stack.
type Config struct {
	// RcvBuf is the per-connection receive budget in bytes (window
	// clamp). Default 256KB.
	RcvBuf int
	// SndBuf is the per-connection send buffer in bytes. Default 256KB.
	SndBuf int
	// MinRTO clamps the retransmission timeout. Default 20ms.
	MinRTO time.Duration
}

const (
	// delayedACK is the delayed-acknowledgement timer (busy-polling
	// testbed configuration).
	delayedACK = time.Millisecond
	// readyLen bounds each RSS queue's readable-event channel.
	readyLen = 4096
	// backlog bounds each listener's accept queue; SYNs beyond it are
	// refused (RST) instead of growing server state without bound.
	backlog = 128
)

func (c *Config) fill() {
	if c.RcvBuf == 0 {
		c.RcvBuf = 256 << 10
	}
	if c.SndBuf == 0 {
		c.SndBuf = 256 << 10
	}
	if c.MinRTO == 0 {
		c.MinRTO = 20 * time.Millisecond
	}
}

type flowKey struct {
	raddr ipv4.Addr
	rport uint16
	lport uint16
}

// Stack is a host TCP/IPv4 endpoint bound to one NIC. A single goroutine
// per NIC queue processes incoming segments; one mutex guards all
// connection state (the single-core busy-polling structure of the paper's
// server).
type Stack struct {
	mu   sync.Mutex
	cfg  Config
	nic  *nic.NIC
	addr ipv4.Addr
	mac  eth.Addr

	neighbors map[ipv4.Addr]eth.Addr
	conns     map[flowKey]*Conn
	listeners map[uint16]*Listener
	ready     []chan *Conn // readable events, partitioned by NIC RSS queue
	nextPort  uint16
	ipID      uint16
	closed    bool
	done      chan struct{}
	wg        sync.WaitGroup
}

// NewStack creates a stack on n with the given local address and starts
// its receive loops.
func NewStack(n *nic.NIC, addr ipv4.Addr, cfg Config) *Stack {
	cfg.fill()
	s := &Stack{
		cfg:       cfg,
		nic:       n,
		addr:      addr,
		mac:       n.MAC(),
		neighbors: make(map[ipv4.Addr]eth.Addr),
		conns:     make(map[flowKey]*Conn),
		listeners: make(map[uint16]*Listener),
		ready:     make([]chan *Conn, n.Queues()),
		nextPort:  32768,
		done:      make(chan struct{}),
	}
	for q := range s.ready {
		s.ready[q] = make(chan *Conn, readyLen)
	}
	for q := 0; q < n.Queues(); q++ {
		s.wg.Add(1)
		go s.rxLoop(q)
	}
	return s
}

// Addr returns the stack's IPv4 address.
func (s *Stack) Addr() ipv4.Addr { return s.addr }

// NIC returns the stack's adapter.
func (s *Stack) NIC() *nic.NIC { return s.nic }

// AddNeighbor installs a static ARP entry. The simulator uses static
// neighbor tables instead of ARP resolution.
func (s *Stack) AddNeighbor(ip ipv4.Addr, mac eth.Addr) {
	s.mu.Lock()
	s.neighbors[ip] = mac
	s.mu.Unlock()
}

// Readable returns queue 0's channel of connections that transitioned to
// having data (or EOF, or an error) pending. Each connection appears at
// most once until the application drains it — an edge-triggered epoll
// analogue for the single-threaded server loop. Multi-queue servers use
// ReadableQ per loop; a connection's events always arrive on the channel
// of the RSS queue its flow hashes to.
func (s *Stack) Readable() <-chan *Conn { return s.ready[0] }

// ReadableQ returns the readable-event channel of RSS queue q.
func (s *Stack) ReadableQ(q int) <-chan *Conn { return s.ready[q] }

// ReadyLenQ returns the number of undrained readable events on RSS
// queue q — the stack-level component of a queue's occupancy (the
// serving loop's QueueDepth gauge).
func (s *Stack) ReadyLenQ(q int) int { return len(s.ready[q]) }

// Queues returns the number of RSS queues (= readable channels).
func (s *Stack) Queues() int { return len(s.ready) }

// Close shuts the stack down: all connections error out, the NIC closes,
// and the receive loops exit.
func (s *Stack) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	conns := make([]*Conn, 0, len(s.conns))
	for _, c := range s.conns {
		conns = append(conns, c)
	}
	for _, l := range s.listeners {
		l.closeLocked(ErrStackClosed)
	}
	s.mu.Unlock()
	for _, c := range conns {
		c.abort(ErrStackClosed)
	}
	close(s.done)
	s.nic.Close()
	s.wg.Wait()
}

// Listen starts accepting connections on port.
func (s *Stack) Listen(port uint16) (*Listener, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrStackClosed
	}
	if _, busy := s.listeners[port]; busy {
		return nil, ErrListenerUsed
	}
	l := &Listener{stk: s, port: port, acceptQ: make(chan *Conn, backlog)}
	s.listeners[port] = l
	return l, nil
}

// Listener accepts inbound connections on a port.
type Listener struct {
	stk     *Stack
	port    uint16
	acceptQ chan *Conn
	closed  bool
	err     error
}

// Accept blocks until a connection completes the handshake.
func (l *Listener) Accept() (*Conn, error) {
	c, ok := <-l.acceptQ
	if !ok {
		l.stk.mu.Lock()
		err := l.err
		l.stk.mu.Unlock()
		if err == nil {
			err = ErrClosed
		}
		return nil, err
	}
	return c, nil
}

// AcceptCh exposes the accept queue for event-loop servers that select
// over accepts and readable events.
func (l *Listener) AcceptCh() <-chan *Conn { return l.acceptQ }

// Close stops the listener. Established connections are unaffected.
func (l *Listener) Close() {
	l.stk.mu.Lock()
	defer l.stk.mu.Unlock()
	l.closeLocked(ErrClosed)
	delete(l.stk.listeners, l.port)
}

func (l *Listener) closeLocked(err error) {
	if l.closed {
		return
	}
	l.closed = true
	l.err = err
	close(l.acceptQ)
}

// Dial opens a connection to raddr:rport, blocking until established or
// failed.
func (s *Stack) Dial(raddr ipv4.Addr, rport uint16) (*Conn, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrStackClosed
	}
	var key flowKey
	for i := 0; i < 65536; i++ {
		p := s.nextPort
		s.nextPort++
		if s.nextPort == 0 {
			s.nextPort = 32768
		}
		key = flowKey{raddr: raddr, rport: rport, lport: p}
		if _, busy := s.conns[key]; !busy && p != 0 {
			break
		}
	}
	c := s.newConn(key)
	c.state = stateSynSent
	s.conns[key] = c
	c.sendSegmentLocked(flagSYN, c.sndNxt, 0, nil, uint16(s.nic.MSS()))
	c.sndNxt++
	c.armRtxTimerLocked()
	for c.state != stateEstablished && c.err == nil {
		c.rcvCond.Wait()
	}
	err := c.err
	s.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return c, nil
}

// rxLoop drains one NIC queue.
func (s *Stack) rxLoop(q int) {
	defer s.wg.Done()
	rx := s.nic.Rx(q)
	for {
		select {
		case <-s.done:
			return
		case b, ok := <-rx:
			if !ok {
				return
			}
			s.handle(b)
		}
	}
}

// handle processes one received packet. It consumes the buffer reference.
func (s *Stack) handle(b *pkt.Buf) {
	// Software receive stamp (the NIC's hardware stamp, when offloaded,
	// was taken earlier): rides with the buffer into the receive queue so
	// consumers can measure true queueing delay from arrival.
	b.Time = time.Now()
	release := true
	defer func() {
		if release {
			b.Release()
		}
	}()

	f := b.Bytes()
	if len(f) < eth.HeaderLen {
		return
	}
	eh, err := eth.Decode(f)
	if err != nil || eh.Type != eth.TypeIPv4 {
		return
	}
	ih, err := ipv4.Decode(f[eth.HeaderLen:])
	if err != nil || ih.Proto != ipv4.ProtoTCP || ih.Dst != s.addr {
		return
	}
	if ih.MF || ih.FragOff != 0 {
		return // no fragment reassembly: the stack never emits fragments
	}
	// Trim Ethernet padding: the IP total length is authoritative.
	segLen := ih.PayloadLen()
	if eth.HeaderLen+ipv4.HeaderLen+segLen > len(f) {
		return
	}
	b.Trim(eth.HeaderLen + ipv4.HeaderLen + segLen)
	seg := b.Bytes()[eth.HeaderLen+ipv4.HeaderLen:]
	h, err := decodeHeader(seg)
	if err != nil {
		return
	}
	// Checksum: trust the NIC's verdict when offloaded; otherwise verify
	// in software.
	if b.CsumStatus != pkt.CsumComplete && b.CsumStatus != pkt.CsumUnnecessary {
		if !verifyChecksum(ih.Src, s.addr, seg) {
			return
		}
	}
	// Normalize layer offsets (NIC may have skipped parsing).
	b.L3 = b.HeadOffset() + eth.HeaderLen
	b.L4 = b.L3 + ipv4.HeaderLen
	b.Payload = b.L4 + h.dataOff
	payloadLen := segLen - h.dataOff

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	key := flowKey{raddr: ih.Src, rport: h.srcPort, lport: h.dstPort}
	if c, ok := s.conns[key]; ok {
		release = !c.segmentLocked(b, h, payloadLen)
		return
	}
	if l, ok := s.listeners[h.dstPort]; ok && !l.closed && h.flags&flagSYN != 0 && h.flags&flagACK == 0 {
		s.acceptSynLocked(l, key, h)
		return
	}
	// No matching endpoint: RST (unless the arriving segment is an RST).
	if h.flags&flagRST == 0 {
		s.sendRstLocked(key, h, payloadLen)
	}
}

func (s *Stack) acceptSynLocked(l *Listener, key flowKey, h header) {
	c := s.newConn(key)
	c.state = stateSynRcvd
	c.listener = l
	c.wantReady = true
	c.rcvNxt = h.seq + 1
	c.sndWnd = uint32(h.wnd)
	if h.mss != 0 && int(h.mss) < c.mss {
		c.mss = int(h.mss)
	}
	s.conns[key] = c
	c.sendSegmentLocked(flagSYN|flagACK, c.sndNxt, c.rcvNxt, nil, uint16(s.nic.MSS()))
	c.sndNxt++
	c.armRtxTimerLocked()
}

func (s *Stack) sendRstLocked(key flowKey, h header, payloadLen int) {
	seq := h.ack
	fl := uint8(flagRST)
	var ack uint32
	if h.flags&flagACK == 0 {
		seq = 0
		ack = h.seq + uint32(payloadLen)
		if h.flags&flagSYN != 0 {
			ack++
		}
		fl |= flagACK
	}
	s.xmitLocked(key, fl, seq, ack, 0, nil, 0, pkt.CsumNone, 0)
}

// xmitLocked builds and transmits one segment with a freshly allocated
// head buffer holding all headers and payload (control path; the data
// path goes through Conn.transmitLocked with zero-copy payload bufs).
func (s *Stack) xmitLocked(key flowKey, flags uint8, seq, ack uint32, wnd uint16, payload []byte, mss uint16, _ pkt.CsumStatus, _ uint32) {
	doff := headerLen
	if mss != 0 {
		doff += mssOptLen
	}
	total := eth.HeaderLen + ipv4.HeaderLen + doff + len(payload)
	buf := pkt.NewBuf(make([]byte, total))
	f := buf.Bytes()
	dstMAC, ok := s.neighbors[key.raddr]
	if !ok {
		buf.Release()
		return
	}
	eth.Header{Dst: dstMAC, Src: s.mac, Type: eth.TypeIPv4}.Encode(f)
	s.ipID++
	ipv4.Header{
		TotalLen: uint16(ipv4.HeaderLen + doff + len(payload)),
		ID:       s.ipID, DF: true, TTL: 64, Proto: ipv4.ProtoTCP,
		Src: s.addr, Dst: key.raddr,
	}.Encode(f[eth.HeaderLen:])
	h := header{
		srcPort: key.lport, dstPort: key.rport,
		seq: seq, ack: ack, flags: flags, wnd: wnd, mss: mss,
	}
	h.encode(f[eth.HeaderLen+ipv4.HeaderLen:])
	copy(f[eth.HeaderLen+ipv4.HeaderLen+doff:], payload)
	buf.L3 = eth.HeaderLen
	buf.L4 = eth.HeaderLen + ipv4.HeaderLen
	buf.Payload = buf.L4 + doff
	s.finishChecksumAndTx(buf)
}

// finishChecksumAndTx fills (or delegates) the TCP checksum and hands the
// packet to the NIC. Payload fragments carrying known partial sums let
// software checksumming skip re-reading stored data.
func (s *Stack) finishChecksumAndTx(b *pkt.Buf) {
	if s.nic.Offloads().TxChecksum {
		b.CsumStatus = pkt.CsumPartial
		s.nic.Tx(b)
		return
	}
	// Software checksum over pseudo header + TCP header + payload,
	// reusing fragment partial sums when provided.
	f := b.Bytes()
	l4 := b.L4 - b.HeadOffset()
	seg := f[l4:]
	var src, dst [4]byte
	copy(src[:], f[b.L3-b.HeadOffset()+12:])
	copy(dst[:], f[b.L3-b.HeadOffset()+16:])
	segLen := len(seg)
	for _, fr := range b.Frags() {
		segLen += len(fr.B)
	}
	seg[16], seg[17] = 0, 0
	var acc checksum.Accumulator
	acc.Add(seg)
	for _, fr := range b.Frags() {
		if fr.HasSum {
			if !acc.AddPartial(fr.Sum, len(fr.B)) {
				acc.Add(fr.B)
			}
		} else {
			acc.Add(fr.B)
		}
	}
	sum := checksum.PseudoHeaderSum(src, dst, ipv4.ProtoTCP, segLen)
	sum = checksum.Combine(sum, acc.Sum())
	cs := ^checksum.Fold(sum)
	seg[16], seg[17] = byte(cs>>8), byte(cs)
	b.CsumStatus = pkt.CsumNone
	s.nic.Tx(b)
}

// pushReadyLocked queues an edge-triggered readable event for c. Only
// connections that subscribed (accepted server-side connections do so
// automatically) receive events.
func (s *Stack) pushReadyLocked(c *Conn) {
	if !c.wantReady || c.readyQueued {
		return
	}
	select {
	case s.ready[c.rxq] <- c:
		c.readyQueued = true
	default:
		// Event queue overflow: the server loop will still find the data
		// when it next touches this connection.
	}
}

func (s *Stack) deleteConnLocked(c *Conn) {
	delete(s.conns, c.key)
}
