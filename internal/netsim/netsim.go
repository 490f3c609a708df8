// Package netsim simulates the network fabric between hosts: full-duplex
// point-to-point links with propagation latency, serialization bandwidth,
// and optional loss, corruption, reordering and duplication.
//
// The wire is hardware running beside the CPUs, so it costs modelled time
// and no host time: a link runs no goroutine and never waits. SendAt runs
// on the sender's goroutine, applies the impairments, paces the frame at
// line rate and propagates it — all as arithmetic on one arrival stamp —
// and queues the stamped Frame for the peer. The receiver (the NIC's
// receive engine) must not process a frame before its stamp. Frames of one
// direction are stamped in send order against a serialization horizon, so
// several can be in flight on the wire at once, as on a real link.
package netsim

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// LinkConfig describes one link. The zero value is an ideal, instant link.
type LinkConfig struct {
	// Latency is the one-way propagation delay.
	Latency time.Duration
	// Bandwidth is the line rate in bits per second; 0 means infinite.
	Bandwidth float64
	// Loss is the independent drop probability per frame.
	Loss float64
	// Reorder is the probability that a frame is held back and emitted
	// after its successor.
	Reorder float64
	// Duplicate is the probability that a frame is delivered twice.
	Duplicate float64
	// Corrupt is the probability that a frame has one random bit flipped
	// in flight — the wire damage the transport checksum must catch.
	Corrupt float64
	// Seed seeds the impairment generator; each direction derives its own
	// stream.
	Seed int64
	// QueueLen bounds the frames queued towards each port — in flight on
	// the wire or arrived and not yet taken by the receiver; frames beyond
	// it are tail-dropped. 0 means 1024.
	QueueLen int
}

// Frame is a frame on the wire with the time it arrives at the far end.
type Frame struct {
	B []byte
	// At is the arrival stamp: the end of serialization or of propagation,
	// whichever is later. The frame must not be processed before it.
	At time.Time
}

// Port is one end of a link. Frames sent on a Port arrive on the peer's
// receive channel.
type Port struct {
	cfg    LinkConfig
	rx     chan Frame   // frames towards this port
	out    chan Frame   // the peer's rx
	closed *atomic.Bool // shared by both ports of the link

	mu         sync.Mutex // orders this direction: draws, horizon, queue
	rng        *rand.Rand
	busy       time.Time // serialization horizon: the wire is free after it
	holding    bool      // a frame is held back by the reorder impairment
	held       []byte
	heldReady  time.Time
	queueDrops uint64
	lossDrops  uint64
	corrupted  uint64
}

// NewLink creates a full-duplex link and returns its two ports.
func NewLink(cfg LinkConfig) (*Port, *Port) {
	if cfg.QueueLen == 0 {
		cfg.QueueLen = 1024
	}
	closed := new(atomic.Bool)
	a := &Port{cfg: cfg, rx: make(chan Frame, cfg.QueueLen), closed: closed, rng: rand.New(rand.NewSource(cfg.Seed*2 + 1))}
	b := &Port{cfg: cfg, rx: make(chan Frame, cfg.QueueLen), closed: closed, rng: rand.New(rand.NewSource(cfg.Seed*2 + 2))}
	a.out, b.out = b.rx, a.rx
	return a, b
}

// SendAt puts a frame on the wire towards the peer. ready is when the
// sender has finished with it (the transmit NIC's completion time); the
// frame arrives no earlier than ready plus the propagation latency, and
// no earlier than the end of its serialization behind the frames sent
// before it. SendAt reports false when the link is closed or the peer's
// queue is full (tail drop); a frame lost to the loss impairment counts as
// sent. It takes ownership of b.
func (p *Port) SendAt(b []byte, ready time.Time) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed.Load() {
		return false
	}
	// The draws happen per frame in send order, so a seed fixes every
	// impairment decision.
	if p.cfg.Loss > 0 && p.rng.Float64() < p.cfg.Loss {
		p.lossDrops++
		return true
	}
	if p.cfg.Corrupt > 0 && len(b) > 0 && p.rng.Float64() < p.cfg.Corrupt {
		// Flip one random bit in flight. The NIC's receive-side checksum
		// offload (or the stack's software verify) must catch this and
		// drop the frame, forcing retransmission.
		b[p.rng.Intn(len(b))] ^= 1 << uint(p.rng.Intn(8))
		p.corrupted++
	}
	if p.holding {
		ok := p.emit(b, ready)
		p.holding = false
		p.emit(p.held, p.heldReady)
		p.held = nil
		return ok
	}
	if p.cfg.Reorder > 0 && p.rng.Float64() < p.cfg.Reorder {
		p.holding, p.held, p.heldReady = true, b, ready
		return true
	}
	return p.emit(b, ready)
}

// emit serializes b behind the frames before it, stamps its arrival and
// queues it (and, when the duplicate impairment fires, a copy) for the
// peer.
func (p *Port) emit(b []byte, ready time.Time) bool {
	if p.busy.Before(ready) {
		p.busy = ready
	}
	if p.cfg.Bandwidth > 0 {
		p.busy = p.busy.Add(time.Duration(float64(len(b)) * 8 / p.cfg.Bandwidth * 1e9))
	}
	at := ready.Add(p.cfg.Latency)
	if at.Before(p.busy) {
		at = p.busy
	}
	ok := p.push(Frame{B: b, At: at})
	if p.cfg.Duplicate > 0 && p.rng.Float64() < p.cfg.Duplicate {
		p.push(Frame{B: append([]byte(nil), b...), At: at})
	}
	return ok
}

func (p *Port) push(f Frame) bool {
	select {
	case p.out <- f:
		return true
	default:
		// Receiver queue overflow: drop, as a NIC ring overrun would.
		p.queueDrops++
		return false
	}
}

// Recv returns the channel on which stamped frames from the peer arrive.
func (p *Port) Recv() <-chan Frame { return p.rx }

// Close shuts down both directions of the link: later sends fail.
func (p *Port) Close() { p.closed.Store(true) }

// QueueDrops reports frames sent on this port that were tail-dropped
// because the peer's queue was full.
func (p *Port) QueueDrops() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.queueDrops
}

// LossDrops reports frames dropped by the loss impairment on this port's
// transmit direction.
func (p *Port) LossDrops() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.lossDrops
}

// CorruptFrames reports frames bit-flipped by the corruption impairment
// on this port's transmit direction.
func (p *Port) CorruptFrames() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.corrupted
}
