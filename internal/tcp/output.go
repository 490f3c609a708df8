package tcp

import (
	"time"

	"packetstore/internal/eth"
	"packetstore/internal/ipv4"
	"packetstore/internal/pkt"
)

// outputLocked is the transmit engine: it sends queued segments allowed by
// the congestion and flow-control windows, then emits a pure ACK if one is
// due and nothing carried it.
func (c *Conn) outputLocked() {
	if c.state == stateClosed || c.state == stateSynSent || c.state == stateSynRcvd {
		return
	}
	sentData := false
	wnd := min(c.cwnd, int(c.sndWnd))
	for i := 0; i < len(c.sndQ); i++ {
		seg := c.sndQ[i]
		if seg.sent {
			continue
		}
		inFlight := int(c.sndNxt - c.sndUna)
		if seg.length > 0 {
			usable := wnd - inFlight
			if seg.length > usable {
				if inFlight > 0 {
					break // wait for acknowledgements
				}
				// Nothing in flight and the segment exceeds the usable
				// window: send what fits (at least one byte, which then
				// acts as a window probe the retransmit timer sustains).
				if usable < 1 {
					usable = 1
				}
				c.splitSegmentLocked(i, usable)
				seg = c.sndQ[i]
			}
		}
		seg.sent = true
		seg.sentAt = time.Now()
		c.transmitLocked(seg)
		c.sndNxt = seg.end()
		sentData = true
	}
	if sentData {
		c.armRtxTimerLocked()
		c.ackPending = 0
		c.ackNow = false
		return
	}
	if c.ackNow {
		c.sendSegmentLocked(flagACK, c.sndNxt, c.rcvNxt, nil, 0)
	}
}

// transmitLocked emits one data (or FIN) segment: headers are written into
// the payload buffer's headroom on a clone, so the original stays queued
// for retransmission while the clone travels down the stack — the sk_buff
// clone mechanism of §4.1.
func (c *Conn) transmitLocked(seg *segment) {
	s := c.stk
	flags := uint8(flagACK)
	if seg.fin {
		flags |= flagFIN
	}
	if seg.psh {
		flags |= flagPSH
	}
	wnd := c.advWndLocked()
	c.lastAdvWnd = wnd

	if seg.buf == nil {
		// Bare FIN.
		s.xmitLocked(c.key, flags, seg.seq, c.rcvNxt, uint16(wnd), nil, 0, 0, 0)
		return
	}

	clone := seg.buf.Clone()
	hdr := clone.Push(frameHeadroom)
	dstMAC, ok := s.neighbors[c.key.raddr]
	if !ok {
		clone.Release()
		return
	}
	eth.Header{Dst: dstMAC, Src: s.mac, Type: eth.TypeIPv4}.Encode(hdr)
	s.ipID++
	ipv4.Header{
		TotalLen: uint16(ipv4.HeaderLen + headerLen + clone.TotalLen() - frameHeadroom),
		ID:       s.ipID, DF: true, TTL: 64, Proto: ipv4.ProtoTCP,
		Src: s.addr, Dst: c.key.raddr,
	}.Encode(hdr[eth.HeaderLen:])
	h := header{
		srcPort: c.key.lport, dstPort: c.key.rport,
		seq: seg.seq, ack: c.rcvNxt, flags: flags, wnd: uint16(wnd),
	}
	h.encode(hdr[eth.HeaderLen+ipv4.HeaderLen:])
	clone.L3 = clone.HeadOffset() + eth.HeaderLen
	clone.L4 = clone.L3 + ipv4.HeaderLen
	clone.Payload = clone.L4 + headerLen
	c.ackPending = 0
	c.ackNow = false
	s.finishChecksumAndTx(clone)
}

// splitSegmentLocked splits the unsent segment at index i so its first
// part carries n payload bytes. Fragmented (zero-copy) payloads are
// flattened first — the receiver shrank its window below the segment
// size, so the copy is the price of making progress; fragment release
// hooks fire at flatten time because the data has been copied out.
func (c *Conn) splitSegmentLocked(i, n int) {
	seg := c.sndQ[i]
	if len(seg.buf.Frags()) > 0 {
		flat := make([]byte, frameHeadroom+seg.length)
		seg.buf.Linearize(flat[frameHeadroom:])
		nb := pkt.NewBuf(flat)
		nb.Pull(frameHeadroom)
		seg.buf.Release()
		seg.buf = nb
	}
	// The tail gets its own buffer (with headroom): a clone would share
	// the head buffer, and writing the tail's protocol headers would
	// land inside the first part's payload bytes.
	tail := make([]byte, frameHeadroom+seg.length-n)
	copy(tail[frameHeadroom:], seg.buf.Bytes()[n:])
	nb2 := pkt.NewBuf(tail)
	nb2.Pull(frameHeadroom)
	segB := &segment{
		seq: seg.seq + uint32(n), buf: nb2,
		length: seg.length - n, psh: seg.psh,
	}
	seg.buf.Trim(n)
	seg.length = n
	seg.psh = false
	c.sndQ = append(c.sndQ, nil)
	copy(c.sndQ[i+2:], c.sndQ[i+1:])
	c.sndQ[i+1] = segB
}

// --- Timers ---

func (c *Conn) armRtxTimerLocked() {
	d := c.rto
	if c.rtxTimer == nil {
		c.rtxTimer = time.AfterFunc(d, c.onRtxTimeout)
		return
	}
	c.rtxTimer.Stop()
	c.rtxTimer.Reset(d)
}

func (c *Conn) stopRtxTimerLocked() {
	if c.rtxTimer != nil {
		c.rtxTimer.Stop()
	}
}

func (c *Conn) onRtxTimeout() {
	c.stk.mu.Lock()
	defer c.stk.mu.Unlock()
	switch c.state {
	case stateClosed, stateTimeWait:
		return
	case stateSynSent:
		c.handshakeRtx++
		if c.handshakeRtx > 6 {
			c.teardownLocked(ErrTimeout)
			return
		}
		c.stk.xmitLocked(c.key, flagSYN, c.sndNxt-1, 0, uint16(c.advWndLocked()), nil, uint16(c.stk.nic.MSS()), 0, 0)
		c.backoffLocked()
		return
	case stateSynRcvd:
		c.handshakeRtx++
		if c.handshakeRtx > 6 {
			c.teardownLocked(ErrTimeout)
			return
		}
		c.stk.xmitLocked(c.key, flagSYN|flagACK, c.sndNxt-1, c.rcvNxt, uint16(c.advWndLocked()), nil, uint16(c.stk.nic.MSS()), 0, 0)
		c.backoffLocked()
		return
	}
	if c.sndUna == c.sndNxt {
		return // everything acked meanwhile
	}
	// Loss: collapse to one segment and retransmit the head (RFC 5681).
	var head *segment
	for _, seg := range c.sndQ {
		if seg.sent {
			head = seg
			break
		}
	}
	if head == nil {
		return
	}
	head.rtx++
	if head.rtx > maxRtx {
		c.abortLocked(ErrTimeout)
		return
	}
	inflight := int(c.sndNxt - c.sndUna)
	c.ssthresh = max(inflight/2, 2*c.mss)
	c.cwnd = c.mss
	c.recovering = false
	c.dupAcks = 0
	c.transmitLocked(head)
	c.backoffLocked()
}

func (c *Conn) backoffLocked() {
	c.rto *= 2
	if c.rto > maxRTO {
		c.rto = maxRTO
	}
	c.armRtxTimerLocked()
}

func (c *Conn) armDelackLocked() {
	if c.delackTimer == nil {
		c.delackTimer = time.AfterFunc(delayedACK, c.onDelack)
		return
	}
	c.delackTimer.Reset(delayedACK)
}

func (c *Conn) onDelack() {
	c.stk.mu.Lock()
	defer c.stk.mu.Unlock()
	if c.state == stateClosed || c.ackPending == 0 {
		return
	}
	c.sendSegmentLocked(flagACK, c.sndNxt, c.rcvNxt, nil, 0)
}
