package tcp

import (
	"io"
	"os"
	"sync"
	"time"

	"packetstore/internal/eth"
	"packetstore/internal/ipv4"
	"packetstore/internal/nic"
	"packetstore/internal/pkt"
	"packetstore/internal/rbtree"
)

// maxRtx aborts a connection after this many consecutive retransmissions
// of one segment.
const maxRtx = 15

// maxRTO caps exponential backoff.
const maxRTO = 2 * time.Second

// timeWaitDelay is the (shortened) TIME_WAIT linger.
const timeWaitDelay = 100 * time.Millisecond

// segment is a send-queue entry: payload buffer plus bookkeeping. The
// payload buffer is held here — the clone mechanism in action — until the
// segment is cumulatively acknowledged, at which point the buffer (and
// through its fragment release hooks, any borrowed storage data) is
// released.
type segment struct {
	seq    uint32
	buf    *pkt.Buf // payload view with header headroom; nil for bare FIN
	length int      // payload bytes including fragments
	fin    bool
	sentAt time.Time
	rtx    int
	sent   bool
	psh    bool
}

func (s *segment) end() uint32 {
	e := s.seq + uint32(s.length)
	if s.fin {
		e++
	}
	return e
}

// Conn is one TCP connection. Methods are safe for concurrent use; reads
// and writes from different goroutines proceed independently.
type Conn struct {
	stk      *Stack
	key      flowKey
	rxq      int // NIC RSS queue this flow's incoming packets hash to
	state    state
	listener *Listener
	mss      int
	err      error

	// Send state.
	sndUna, sndNxt uint32
	sndQSeq        uint32 // sequence for the next queued byte
	sndWnd         uint32
	cwnd, ssthresh int
	dupAcks        int
	sndQ           []*segment
	sndBufUsed     int
	sndClosed      bool
	recovering     bool
	recoverSeq     uint32
	srtt, rttvar   time.Duration
	rto            time.Duration
	rtxTimer       *time.Timer
	handshakeRtx   int

	// Receive state.
	rcvNxt      uint32
	rcvQ        pkt.Queue
	rcvQBytes   int
	rcvHead     *pkt.Buf // partially consumed by Read
	ooo         *rbtree.Tree[uint32, *pkt.Buf]
	oooBytes    int
	finRcvd     bool
	ackPending  int
	ackNow      bool
	delackTimer *time.Timer
	lastAdvWnd  int

	// Application wakeups (conditions on the stack mutex).
	rcvCond, sndCond *sync.Cond
	wantReady        bool
	readyQueued      bool
	timeWaitTimer    *time.Timer

	// Read deadline (zero = none).
	rdDeadline time.Time
	rdTimer    *time.Timer
}

func (s *Stack) newConn(key flowKey) *Conn {
	iss := uint32(0x1000) + uint32(len(s.conns))*0x010000 + uint32(key.lport)<<4
	c := &Conn{
		stk:    s,
		key:    key,
		rxq:    nic.RSSQueue(key.raddr, s.addr, key.rport, key.lport, s.nic.Queues()),
		mss:    s.nic.MSS(),
		ooo:    rbtree.New[uint32, *pkt.Buf](seqLT),
		rto:    200 * time.Millisecond,
		cwnd:   0, // set below
		sndUna: iss, sndNxt: iss, sndQSeq: iss + 1,
	}
	c.ssthresh = 64 << 10
	c.cwnd = 10 * c.mss
	c.rcvCond = sync.NewCond(&s.mu)
	c.sndCond = sync.NewCond(&s.mu)
	c.lastAdvWnd = s.cfg.RcvBuf
	return c
}

// LocalAddr returns the local IP and port.
func (c *Conn) LocalAddr() (ipv4.Addr, uint16) { return c.stk.addr, c.key.lport }

// RemoteAddr returns the remote IP and port.
func (c *Conn) RemoteAddr() (ipv4.Addr, uint16) { return c.key.raddr, c.key.rport }

// MSS returns the effective maximum segment size.
func (c *Conn) MSS() int { return c.mss }

// RxQueue returns the NIC RSS queue (and so the Stack readable channel)
// this connection's incoming segments are steered to.
func (c *Conn) RxQueue() int { return c.rxq }

// Stack returns the owning stack.
func (c *Conn) Stack() *Stack { return c.stk }

// Unacked returns the bytes queued for sending that the peer has not
// acknowledged yet.
func (c *Conn) Unacked() int {
	c.stk.mu.Lock()
	defer c.stk.mu.Unlock()
	return c.sndBufUsed
}

// State returns the connection state name (diagnostics).
func (c *Conn) State() string {
	c.stk.mu.Lock()
	defer c.stk.mu.Unlock()
	return c.state.String()
}

// ClearReady re-arms the edge trigger after the server loop takes this
// connection off the Readable channel.
func (c *Conn) ClearReady() {
	c.stk.mu.Lock()
	c.readyQueued = false
	c.stk.mu.Unlock()
}

// sendSegmentLocked emits a control segment (SYN/ACK/FIN combinations
// without payload bufs) for this connection.
func (c *Conn) sendSegmentLocked(flags uint8, seq, ack uint32, payload []byte, mss uint16) {
	wnd := c.advWndLocked()
	c.lastAdvWnd = wnd
	if flags&flagACK != 0 {
		c.ackPending = 0
		c.ackNow = false
	}
	c.stk.xmitLocked(c.key, flags, seq, ack, uint16(wnd), payload, mss, pkt.CsumNone, 0)
}

// advWndLocked computes the receive window to advertise.
func (c *Conn) advWndLocked() int {
	w := c.stk.cfg.RcvBuf - c.rcvQBytes - c.oooBytes
	if w < 0 {
		w = 0
	}
	if w > 65535 {
		w = 65535
	}
	return w
}

// segmentLocked processes one inbound segment. It returns true when the
// packet buffer was consumed (queued in-order or out-of-order).
func (c *Conn) segmentLocked(b *pkt.Buf, h header, plen int) bool {
	s := c.stk

	if h.flags&flagRST != 0 {
		if c.state == stateSynSent && (h.flags&flagACK == 0 || h.ack != c.sndNxt) {
			return false // blind reset against our SYN
		}
		c.abortLocked(ErrReset)
		return false
	}

	switch c.state {
	case stateSynSent:
		if h.flags&(flagSYN|flagACK) == flagSYN|flagACK && h.ack == c.sndNxt {
			c.rcvNxt = h.seq + 1
			c.sndUna = h.ack
			c.sndWnd = uint32(h.wnd)
			if h.mss != 0 && int(h.mss) < c.mss {
				c.mss = int(h.mss)
			}
			c.state = stateEstablished
			c.handshakeRtx = 0
			c.stopRtxTimerLocked()
			c.sendSegmentLocked(flagACK, c.sndNxt, c.rcvNxt, nil, 0)
			c.rcvCond.Broadcast()
		}
		return false
	case stateSynRcvd:
		if h.flags&flagACK != 0 && h.ack == c.sndNxt {
			c.state = stateEstablished
			c.sndUna = h.ack
			c.sndWnd = uint32(h.wnd)
			c.stopRtxTimerLocked()
			if c.listener != nil && !c.listener.closed {
				select {
				case c.listener.acceptQ <- c:
				default:
					// Backlog overflow: reset the connection.
					c.abortLocked(ErrRefused)
					return false
				}
			}
		} else {
			return false
		}
	case stateClosed, stateListen:
		return false
	}

	consumed := false
	if h.flags&flagACK != 0 {
		c.processAckLocked(h)
		if c.state == stateClosed {
			return false
		}
	}
	if plen > 0 {
		consumed = c.processDataLocked(b, h, plen)
	}
	if h.flags&flagFIN != 0 {
		// Accept the FIN only when it is the next expected sequence.
		finSeq := h.seq + uint32(plen)
		if finSeq == c.rcvNxt && !c.finRcvd {
			c.rcvNxt++
			c.finRcvd = true
			c.ackNow = true
			switch c.state {
			case stateEstablished:
				c.state = stateCloseWait
			case stateFinWait1:
				// Our FIN not yet acked: simultaneous close.
				c.state = stateClosing
			case stateFinWait2:
				c.enterTimeWaitLocked()
			}
			c.rcvCond.Broadcast()
			s.pushReadyLocked(c)
		} else if seqLT(finSeq, c.rcvNxt) {
			c.ackNow = true // retransmitted FIN
		}
	}
	c.outputLocked()
	return consumed
}

// processAckLocked handles the acknowledgement fields of an inbound
// segment: cumulative ack, RTT sampling, congestion control, fast
// retransmit and FIN-ack state transitions.
func (c *Conn) processAckLocked(h header) {
	ack := h.ack
	if seqGT(ack, c.sndNxt) {
		c.ackNow = true
		return
	}
	prevWnd := c.sndWnd
	c.sndWnd = uint32(h.wnd)

	if seqLEQ(ack, c.sndUna) {
		// Duplicate ACK detection per RFC 5681: no data, no window
		// change, outstanding data exists.
		if ack == c.sndUna && c.sndNxt != c.sndUna && c.sndWnd == prevWnd {
			c.dupAcks++
			if c.dupAcks == 3 {
				c.enterFastRecoveryLocked()
			} else if c.dupAcks > 3 && c.recovering {
				c.cwnd += c.mss // inflation
			}
		}
		return
	}

	acked := int(ack - c.sndUna)
	// RTT sample from the oldest segment if it was never retransmitted
	// (Karn's rule).
	if len(c.sndQ) > 0 && c.sndQ[0].sent && c.sndQ[0].rtx == 0 && seqGEQ(ack, c.sndQ[0].end()) {
		c.updateRTTLocked(time.Since(c.sndQ[0].sentAt))
	}
	// Pop fully acknowledged segments.
	finAcked := false
	for len(c.sndQ) > 0 && c.sndQ[0].sent && seqGEQ(ack, c.sndQ[0].end()) {
		seg := c.sndQ[0]
		c.sndQ = c.sndQ[1:]
		c.sndBufUsed -= seg.length
		if seg.fin {
			finAcked = true
		}
		if seg.buf != nil {
			seg.buf.Release()
		}
	}
	c.sndUna = ack
	c.dupAcks = 0

	if c.recovering {
		if seqGEQ(ack, c.recoverSeq) {
			c.recovering = false
			c.cwnd = c.ssthresh
		} else {
			// Partial ack (NewReno): retransmit the next hole.
			c.retransmitFirstLocked()
		}
	} else {
		if c.cwnd < c.ssthresh {
			c.cwnd += min(acked, c.mss) // slow start
		} else {
			c.cwnd += max(1, c.mss*c.mss/c.cwnd) // congestion avoidance
		}
	}

	if c.sndUna == c.sndNxt {
		c.stopRtxTimerLocked()
	} else {
		c.armRtxTimerLocked()
	}
	c.sndCond.Broadcast()

	if finAcked {
		switch c.state {
		case stateFinWait1:
			c.state = stateFinWait2
		case stateClosing:
			c.enterTimeWaitLocked()
		case stateLastAck:
			c.teardownLocked(nil)
		}
	}
}

func (c *Conn) enterFastRecoveryLocked() {
	inflight := int(c.sndNxt - c.sndUna)
	c.ssthresh = max(inflight/2, 2*c.mss)
	c.recovering = true
	c.recoverSeq = c.sndNxt
	c.cwnd = c.ssthresh + 3*c.mss
	c.retransmitFirstLocked()
}

// retransmitFirstLocked re-sends the oldest unacknowledged segment.
func (c *Conn) retransmitFirstLocked() {
	for _, seg := range c.sndQ {
		if seg.sent {
			seg.rtx++
			c.transmitLocked(seg)
			return
		}
		break
	}
}

func (c *Conn) updateRTTLocked(m time.Duration) {
	if c.srtt == 0 {
		c.srtt = m
		c.rttvar = m / 2
	} else {
		d := c.srtt - m
		if d < 0 {
			d = -d
		}
		c.rttvar = (3*c.rttvar + d) / 4
		c.srtt = (7*c.srtt + m) / 8
	}
	c.rto = c.srtt + 4*c.rttvar
	if c.rto < c.stk.cfg.MinRTO {
		c.rto = c.stk.cfg.MinRTO
	}
	if c.rto > maxRTO {
		c.rto = maxRTO
	}
}

// processDataLocked queues in-window payload; returns true when the buffer
// was kept.
func (c *Conn) processDataLocked(b *pkt.Buf, h header, plen int) bool {
	seq := h.seq
	end := seq + uint32(plen)
	avail := c.stk.cfg.RcvBuf - c.rcvQBytes - c.oooBytes
	// Entirely old data: re-ack.
	if seqLEQ(end, c.rcvNxt) {
		c.ackNow = true
		return false
	}
	// Beyond window: drop.
	if seqGEQ(seq, c.rcvNxt+uint32(avail)) {
		c.ackNow = true
		return false
	}
	// Move the view to the payload.
	b.Pull(b.Payload - b.HeadOffset())
	// Trim leading overlap. The NIC's payload sum covered the original
	// segment, so it no longer describes the trimmed view.
	if seqLT(seq, c.rcvNxt) {
		b.Pull(int(c.rcvNxt - seq))
		seq = c.rcvNxt
		if b.CsumStatus == pkt.CsumComplete {
			b.CsumStatus = pkt.CsumUnnecessary
		}
	}
	if seq == c.rcvNxt {
		c.deliverLocked(b)
		c.drainOOOLocked()
		c.ackPending++
		if c.ackPending >= 2 {
			c.ackNow = true
		} else {
			c.armDelackLocked()
		}
		c.rcvCond.Broadcast()
		c.stk.pushReadyLocked(c)
		return true
	}
	// Out of order: stash in the tree and dup-ack.
	c.ackNow = true
	if _, dup := c.ooo.Get(seq); dup {
		return false
	}
	c.ooo.Set(seq, b)
	c.oooBytes += b.Len()
	return true
}

func (c *Conn) deliverLocked(b *pkt.Buf) {
	c.rcvQ.Push(b)
	c.rcvQBytes += b.Len()
	c.rcvNxt += uint32(b.Len())
}

func (c *Conn) drainOOOLocked() {
	for {
		seq, b, ok := c.ooo.Min()
		if !ok {
			return
		}
		if seqGT(seq, c.rcvNxt) {
			return
		}
		c.ooo.Delete(seq)
		c.oooBytes -= b.Len()
		if seqLEQ(seq+uint32(b.Len()), c.rcvNxt) {
			b.Release() // fully duplicate
			continue
		}
		if seqLT(seq, c.rcvNxt) {
			b.Pull(int(c.rcvNxt - seq))
			if b.CsumStatus == pkt.CsumComplete {
				b.CsumStatus = pkt.CsumUnnecessary
			}
		}
		c.deliverLocked(b)
	}
}

// --- Application receive API ---

// SetReadDeadline bounds blocking Read and ReadBufs calls: once t
// passes they return os.ErrDeadlineExceeded (which reports
// Timeout() == true through the net.Error interface) instead of
// blocking forever on a stalled peer — the client-side guard against a
// server that accepted a request and then went quiet. A zero t clears
// the deadline. Data already queued is still delivered first.
func (c *Conn) SetReadDeadline(t time.Time) {
	c.stk.mu.Lock()
	defer c.stk.mu.Unlock()
	c.rdDeadline = t
	if c.rdTimer != nil {
		c.rdTimer.Stop()
		c.rdTimer = nil
	}
	if t.IsZero() {
		return
	}
	d := time.Until(t)
	if d <= 0 {
		c.rcvCond.Broadcast()
		return
	}
	c.rdTimer = time.AfterFunc(d, func() {
		c.stk.mu.Lock()
		c.rcvCond.Broadcast()
		c.stk.mu.Unlock()
	})
}

func (c *Conn) readDeadlineExceededLocked() bool {
	return !c.rdDeadline.IsZero() && !time.Now().Before(c.rdDeadline)
}

// Read copies received data into p, blocking until data, EOF or error.
func (c *Conn) Read(p []byte) (int, error) {
	c.stk.mu.Lock()
	defer c.stk.mu.Unlock()
	for {
		if c.rcvHead == nil {
			c.rcvHead = c.rcvQ.Pop()
		}
		if c.rcvHead != nil {
			n := copy(p, c.rcvHead.Bytes())
			c.rcvHead.Pull(n)
			c.rcvQBytes -= n
			if c.rcvHead.Len() == 0 {
				c.rcvHead.Release()
				c.rcvHead = nil
			}
			c.maybeWindowUpdateLocked()
			return n, nil
		}
		if c.err != nil {
			return 0, c.err
		}
		if c.finRcvd {
			return 0, io.EOF
		}
		if c.readDeadlineExceededLocked() {
			return 0, os.ErrDeadlineExceeded
		}
		c.rcvCond.Wait()
	}
}

// ReadBufs removes and returns all in-order pending packet buffers —
// the zero-copy receive path. The caller owns the returned buffers
// (payload views) and must Release or adopt them. Returns io.EOF after
// the peer's FIN once the queue is drained.
func (c *Conn) ReadBufs() ([]*pkt.Buf, error) {
	c.stk.mu.Lock()
	defer c.stk.mu.Unlock()
	for {
		if bufs := c.takeBufsLocked(); bufs != nil {
			return bufs, nil
		}
		if c.err != nil {
			return nil, c.err
		}
		if c.finRcvd {
			return nil, io.EOF
		}
		if c.readDeadlineExceededLocked() {
			return nil, os.ErrDeadlineExceeded
		}
		c.rcvCond.Wait()
	}
}

// TryReadBufs is the non-blocking form of ReadBufs for event loops; it
// returns nil when nothing is pending. Drained EOF is reported via EOF().
func (c *Conn) TryReadBufs() []*pkt.Buf {
	c.stk.mu.Lock()
	defer c.stk.mu.Unlock()
	return c.takeBufsLocked()
}

func (c *Conn) takeBufsLocked() []*pkt.Buf {
	n := c.rcvQ.Len()
	if c.rcvHead != nil {
		n++
	}
	if n == 0 {
		return nil
	}
	bufs := make([]*pkt.Buf, 0, n)
	if c.rcvHead != nil {
		bufs = append(bufs, c.rcvHead)
		c.rcvQBytes -= c.rcvHead.Len()
		c.rcvHead = nil
	}
	for {
		b := c.rcvQ.Pop()
		if b == nil {
			break
		}
		c.rcvQBytes -= b.Len()
		bufs = append(bufs, b)
	}
	c.maybeWindowUpdateLocked()
	return bufs
}

// OldestRxTime returns the receive timestamp of the oldest pending
// undelivered data on the connection — the NIC hardware stamp when
// available, the stack's software stamp otherwise; zero when nothing is
// pending. Because the stamp persists with the packet buffer through
// the receive queue, a serving loop can anchor queue-delay measurement
// at packet *arrival* rather than at its own wakeup, keeping delivery
// and scheduling delays upstream of the run queue visible to overload
// control.
func (c *Conn) OldestRxTime() time.Time {
	c.stk.mu.Lock()
	defer c.stk.mu.Unlock()
	b := c.rcvHead
	if b == nil {
		b = c.rcvQ.Peek()
	}
	if b == nil {
		return time.Time{}
	}
	if !b.HWTime.IsZero() {
		return b.HWTime
	}
	return b.Time
}

// EOF reports whether the peer sent FIN and all data has been consumed.
func (c *Conn) EOF() bool {
	c.stk.mu.Lock()
	defer c.stk.mu.Unlock()
	return c.finRcvd && c.rcvQ.Empty() && c.rcvHead == nil
}

// Err returns the terminal error, if any.
func (c *Conn) Err() error {
	c.stk.mu.Lock()
	defer c.stk.mu.Unlock()
	return c.err
}

// maybeWindowUpdateLocked sends a window-update ACK when reading reopened
// the window by at least two segments relative to the last advertisement.
func (c *Conn) maybeWindowUpdateLocked() {
	if c.state != stateEstablished && c.state != stateCloseWait {
		return
	}
	if c.advWndLocked()-c.lastAdvWnd >= 2*c.mss {
		c.sendSegmentLocked(flagACK, c.sndNxt, c.rcvNxt, nil, 0)
	}
}

// --- Application send API ---

// Write queues p for transmission, copying it into segment buffers. It
// blocks while the send buffer is full and returns the bytes accepted.
func (c *Conn) Write(p []byte) (int, error) {
	c.stk.mu.Lock()
	defer c.stk.mu.Unlock()
	total := 0
	maxSeg := c.maxSegLocked()
	for len(p) > 0 {
		if err := c.waitSendSpaceLocked(); err != nil {
			return total, err
		}
		chunk := len(p)
		if chunk > maxSeg {
			chunk = maxSeg
		}
		// Cap the chunk at remaining buffer space (rounded to >0 by
		// waitSendSpaceLocked).
		if room := c.stk.cfg.SndBuf - c.sndBufUsed; chunk > room {
			chunk = room
		}
		head := make([]byte, frameHeadroom+chunk)
		copy(head[frameHeadroom:], p[:chunk])
		b := pkt.NewBuf(head)
		b.Pull(frameHeadroom)
		c.enqueueSegmentLocked(b, chunk, len(p) == chunk)
		p = p[chunk:]
		total += chunk
		// Transmit as data is queued; deferring output to the end would
		// deadlock when p exceeds the send buffer (nothing would ever
		// drain while Write waits for space).
		c.outputLocked()
	}
	return total, nil
}

// frameHeadroom is the reserved space for Ethernet+IP+TCP headers.
const frameHeadroom = eth.HeaderLen + ipv4.HeaderLen + headerLen

// HeaderRoom returns the headroom WriteBufs requires before the payload
// view.
func HeaderRoom() int { return frameHeadroom }

// WriteBufs queues a payload packet buffer for transmission without
// copying: the buffer's view (plus any fragments, whose partial checksums
// are honoured) becomes one segment. The buffer must have at least
// HeaderRoom headroom and at most MaxSegment payload. Ownership passes to
// the connection; the buffer is released — firing fragment release hooks —
// when the segment is acknowledged.
func (c *Conn) WriteBufs(b *pkt.Buf) error {
	c.stk.mu.Lock()
	defer c.stk.mu.Unlock()
	if b.Headroom() < frameHeadroom {
		b.Release()
		return errHeadroom
	}
	n := b.TotalLen()
	if n > c.maxSegLocked() {
		b.Release()
		return errSegTooBig
	}
	if err := c.waitSendSpaceLocked(); err != nil {
		b.Release()
		return err
	}
	c.enqueueSegmentLocked(b, n, true)
	c.outputLocked()
	return nil
}

var (
	errHeadroom  = errorString("tcp: WriteBufs payload lacks header headroom")
	errSegTooBig = errorString("tcp: WriteBufs payload exceeds max segment")
)

type errorString string

func (e errorString) Error() string { return string(e) }

// MaxSegment returns the largest payload WriteBufs accepts: one MSS, or
// a TSO super-segment when the NIC segments in hardware.
func (c *Conn) MaxSegment() int {
	c.stk.mu.Lock()
	defer c.stk.mu.Unlock()
	return c.maxSegLocked()
}

func (c *Conn) maxSegLocked() int {
	if c.stk.nic.Offloads().TSO {
		return 16 * c.mss
	}
	return c.mss
}

func (c *Conn) waitSendSpaceLocked() error {
	for {
		if c.err != nil {
			return c.err
		}
		if c.sndClosed {
			return ErrClosed
		}
		if c.sndBufUsed < c.stk.cfg.SndBuf {
			return nil
		}
		c.sndCond.Wait()
	}
}

func (c *Conn) enqueueSegmentLocked(b *pkt.Buf, n int, psh bool) {
	seg := &segment{seq: c.sndQSeq, buf: b, length: n, psh: psh}
	c.sndQSeq += uint32(n)
	c.sndQ = append(c.sndQ, seg)
	c.sndBufUsed += n
}

// Close queues a FIN after pending data and returns immediately (graceful
// close). Reading remains possible until the peer's FIN.
func (c *Conn) Close() error {
	c.stk.mu.Lock()
	defer c.stk.mu.Unlock()
	if c.sndClosed || c.err != nil {
		return nil
	}
	switch c.state {
	case stateEstablished:
		c.state = stateFinWait1
	case stateCloseWait:
		c.state = stateLastAck
	case stateSynSent, stateSynRcvd:
		c.teardownLocked(ErrClosed)
		return nil
	default:
		return nil
	}
	c.sndClosed = true
	fin := &segment{seq: c.sndQSeq, fin: true}
	c.sndQSeq++
	c.sndQ = append(c.sndQ, fin)
	c.outputLocked()
	return nil
}

func (c *Conn) abort(err error) {
	c.stk.mu.Lock()
	defer c.stk.mu.Unlock()
	c.abortLocked(err)
}

func (c *Conn) abortLocked(err error) {
	if c.state == stateClosed {
		return
	}
	c.stk.xmitLocked(c.key, flagRST|flagACK, c.sndNxt, c.rcvNxt, 0, nil, 0, pkt.CsumNone, 0)
	c.teardownLocked(err)
}

// teardownLocked finalizes the connection: timers stopped, buffers
// released, waiters woken, demux entry removed.
func (c *Conn) teardownLocked(err error) {
	if c.state == stateClosed {
		return
	}
	c.state = stateClosed
	if c.err == nil {
		c.err = err
	}
	c.stopRtxTimerLocked()
	if c.delackTimer != nil {
		c.delackTimer.Stop()
	}
	if c.timeWaitTimer != nil {
		c.timeWaitTimer.Stop()
	}
	if c.rdTimer != nil {
		c.rdTimer.Stop()
		c.rdTimer = nil
	}
	for _, seg := range c.sndQ {
		if seg.buf != nil {
			seg.buf.Release()
		}
	}
	c.sndQ = nil
	for {
		b := c.rcvQ.Pop()
		if b == nil {
			break
		}
		b.Release()
		// Note: rcvQBytes intentionally not maintained past teardown.
	}
	c.ooo.Ascend(func(_ uint32, b *pkt.Buf) bool {
		b.Release()
		return true
	})
	c.ooo = rbtree.New[uint32, *pkt.Buf](seqLT)
	c.stk.deleteConnLocked(c)
	c.rcvCond.Broadcast()
	c.sndCond.Broadcast()
	if c.err != nil {
		c.stk.pushReadyLocked(c)
	}
}

func (c *Conn) enterTimeWaitLocked() {
	c.state = stateTimeWait
	c.stopRtxTimerLocked()
	if c.timeWaitTimer == nil {
		c.timeWaitTimer = time.AfterFunc(timeWaitDelay, func() {
			c.stk.mu.Lock()
			defer c.stk.mu.Unlock()
			if c.state == stateTimeWait {
				c.teardownLocked(nil)
			}
		})
	} else {
		c.timeWaitTimer.Reset(timeWaitDelay)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
