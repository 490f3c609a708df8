package netsim

import (
	"encoding/binary"
	"math/bits"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

func send(p *Port, b []byte) bool { return p.SendAt(b, time.Now()) }

func TestLinkDelivers(t *testing.T) {
	a, b := NewLink(LinkConfig{})
	defer a.Close()
	if !send(a, []byte("ping")) {
		t.Fatal("send failed")
	}
	select {
	case f := <-b.Recv():
		if string(f.B) != "ping" {
			t.Fatalf("got %q", f.B)
		}
	case <-time.After(time.Second):
		t.Fatal("timeout")
	}
	// Reverse direction too.
	send(b, []byte("pong"))
	select {
	case f := <-a.Recv():
		if string(f.B) != "pong" {
			t.Fatalf("got %q", f.B)
		}
	case <-time.After(time.Second):
		t.Fatal("timeout")
	}
}

func TestLinkOrderPreserved(t *testing.T) {
	a, b := NewLink(LinkConfig{Latency: 10 * time.Microsecond})
	defer a.Close()
	const n = 200
	for i := 0; i < n; i++ {
		send(a, []byte{byte(i), byte(i >> 8)})
	}
	for i := 0; i < n; i++ {
		select {
		case f := <-b.Recv():
			got := int(f.B[0]) | int(f.B[1])<<8
			if got != i {
				t.Fatalf("frame %d arrived at position %d", got, i)
			}
		case <-time.After(time.Second):
			t.Fatalf("timeout at frame %d", i)
		}
	}
}

func TestLinkLatency(t *testing.T) {
	const lat = 200 * time.Microsecond
	a, b := NewLink(LinkConfig{Latency: lat})
	defer a.Close()
	ready := time.Now()
	a.SendAt([]byte("x"), ready)
	if f := <-b.Recv(); f.At.Sub(ready) < lat {
		t.Fatalf("stamped %v after ready, want >= %v", f.At.Sub(ready), lat)
	}
}

func TestLinkBandwidth(t *testing.T) {
	// 8 Mbit/s: a 1000-byte frame serializes in 1ms.
	a, b := NewLink(LinkConfig{Bandwidth: 8e6})
	defer a.Close()
	ready := time.Now()
	a.SendAt(make([]byte, 1000), ready)
	if f := <-b.Recv(); f.At.Sub(ready) < time.Millisecond {
		t.Fatalf("1000B at 8Mbit/s stamped %v after ready, want >= 1ms", f.At.Sub(ready))
	}
}

// TestStampFloors pins the arrival contract: a frame is stamped no
// earlier than its ready time plus the propagation latency, nor before
// the wire has serialized it and every frame sent before it, and a link
// starts no goroutine and never waits on the sender's.
func TestStampFloors(t *testing.T) {
	const (
		lat  = 30 * time.Microsecond
		bw   = 1e9 // 1000 B serialize in 8µs
		size = 1000
		ser  = 8 * time.Microsecond
	)
	before := runtime.NumGoroutine()
	a, b := NewLink(LinkConfig{Latency: lat, Bandwidth: bw})
	defer a.Close()
	if g := runtime.NumGoroutine(); g != before {
		t.Fatalf("NewLink started %d goroutines", g-before)
	}
	// A ready time far ahead of now: no floor can hold by accident of
	// the wall clock.
	ready := time.Now().Add(time.Second)
	start := time.Now()
	const n = 10
	for i := 0; i < n; i++ {
		if !a.SendAt(make([]byte, size), ready) {
			t.Fatal("send refused")
		}
	}
	if e := time.Since(start); e > 50*time.Millisecond {
		t.Fatalf("SendAt blocked for %v", e)
	}
	var prev time.Time
	for i := 0; i < n; i++ {
		f := <-b.Recv()
		if d := f.At.Sub(ready); d < lat || d < time.Duration(i+1)*ser {
			t.Fatalf("frame %d stamped ready+%v: below latency %v or serialization %v", i, d, lat, time.Duration(i+1)*ser)
		}
		if f.At.Before(prev) {
			t.Fatalf("frame %d stamped before frame %d", i, i-1)
		}
		prev = f.At
	}

	// With the wire, not propagation, as the bottleneck, back-to-back
	// frames arrive one serialization time apart.
	c, d := NewLink(LinkConfig{Bandwidth: bw})
	defer c.Close()
	for i := 0; i < n; i++ {
		c.SendAt(make([]byte, size), ready)
	}
	prev = ready
	for i := 0; i < n; i++ {
		f := <-d.Recv()
		if gap := f.At.Sub(prev); gap < ser {
			t.Fatalf("frame %d arrived %v after its predecessor, want >= %v", i, gap, ser)
		}
		prev = f.At
	}
}

// impairFrame is frame i of the pinned impairment sequence: its index at
// both ends (one bit flip cannot hide both) and a length that varies.
func impairFrame(i int) []byte {
	f := make([]byte, 8+i%1400)
	binary.BigEndian.PutUint32(f, uint32(i))
	for j := 4; j < len(f)-4; j++ {
		f[j] = byte(i + j)
	}
	binary.BigEndian.PutUint32(f[len(f)-4:], uint32(i))
	return f
}

// TestImpairmentDecisionsPinned sends a fixed sequence of 10 000 frames
// through every impairment and compares each frame's fate with the
// decisions recorded when the link ran as serializer and deliverer
// goroutines: one character per frame, '.' clean, 'L' lost, 'R' arrived
// after its successor, 'D' arrived twice, 'B' both, lower case when a bit
// was flipped ('c' for an otherwise clean frame). A held frame still held
// at the end counts as lost. The seed alone must fix every decision.
func TestImpairmentDecisionsPinned(t *testing.T) {
	want, err := os.ReadFile("testdata/impair_seed42.txt")
	if err != nil {
		t.Fatal(err)
	}
	const n = 10000
	a, b := NewLink(LinkConfig{Loss: 0.05, Corrupt: 0.05, Reorder: 0.05, Duplicate: 0.05, Seed: 42, QueueLen: 1 << 15})
	defer a.Close()
	ready := time.Now()
	for i := 0; i < n; i++ {
		if !a.SendAt(impairFrame(i), ready) {
			t.Fatalf("frame %d refused", i)
		}
	}
	seen := make([]int, n)
	corrupt := make([]bool, n)
	reordered := make([]bool, n)
	last := -1
	for len(b.Recv()) > 0 {
		f := (<-b.Recv()).B
		id := int(binary.BigEndian.Uint32(f))
		if id >= n || len(f) != 8+id%1400 {
			id = int(binary.BigEndian.Uint32(f[len(f)-4:]))
		}
		flipped := 0
		for j, c := range impairFrame(id) {
			flipped += bits.OnesCount8(f[j] ^ c)
		}
		if flipped > 1 {
			t.Fatalf("frame %d differs in %d bits", id, flipped)
		}
		corrupt[id] = corrupt[id] || flipped == 1
		if seen[id] == 0 && id < last {
			reordered[id] = true
		}
		last = max(last, id)
		seen[id]++
	}
	var got strings.Builder
	for i := 0; i < n; i++ {
		c := byte('.')
		switch {
		case seen[i] == 0:
			c = 'L'
		case reordered[i] && seen[i] > 1:
			c = 'B'
		case reordered[i]:
			c = 'R'
		case seen[i] > 1:
			c = 'D'
		}
		if corrupt[i] {
			c |= 0x20 // lower case
			if c == '.'|0x20 {
				c = 'c'
			}
		}
		got.WriteByte(c)
		if i%100 == 99 {
			got.WriteByte('\n')
		}
	}
	if got.String() != string(want) {
		gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := range wl {
			if gl[i] != wl[i] {
				t.Fatalf("frames %d..%d:\n got %s\nwant %s", i*100, i*100+99, gl[i], wl[i])
			}
		}
	}
}

func TestLinkLoss(t *testing.T) {
	a, b := NewLink(LinkConfig{Loss: 1.0, Seed: 1})
	defer a.Close()
	for i := 0; i < 10; i++ {
		send(a, []byte("gone"))
	}
	select {
	case f := <-b.Recv():
		t.Fatalf("frame %q survived 100%% loss", f.B)
	case <-time.After(50 * time.Millisecond):
	}
	if a.LossDrops() != 10 {
		t.Fatalf("LossDrops=%d want 10", a.LossDrops())
	}
}

func TestLinkReorder(t *testing.T) {
	a, b := NewLink(LinkConfig{Reorder: 0.5, Seed: 7})
	defer a.Close()
	const n = 100
	for i := 0; i < n; i++ {
		send(a, []byte{byte(i)})
	}
	got := make([]int, 0, n)
	deadline := time.After(2 * time.Second)
	for len(got) < n-1 { // a held frame may remain in the hold slot
		select {
		case f := <-b.Recv():
			got = append(got, int(f.B[0]))
		case <-deadline:
			t.Fatalf("timeout after %d frames", len(got))
		}
	}
	inOrder := true
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			inOrder = false
		}
	}
	if inOrder {
		t.Fatal("no reordering observed at 50% probability")
	}
}

func TestLinkDuplicate(t *testing.T) {
	a, b := NewLink(LinkConfig{Duplicate: 1.0, Seed: 3})
	defer a.Close()
	send(a, []byte("twin"))
	for i := 0; i < 2; i++ {
		select {
		case f := <-b.Recv():
			if string(f.B) != "twin" {
				t.Fatalf("got %q", f.B)
			}
		case <-time.After(time.Second):
			t.Fatalf("timeout waiting for copy %d", i)
		}
	}
}

func TestLinkQueueOverflow(t *testing.T) {
	a, _ := NewLink(LinkConfig{QueueLen: 4, Latency: 50 * time.Millisecond})
	defer a.Close()
	sent := 0
	for i := 0; i < 100; i++ {
		if send(a, []byte{1}) {
			sent++
		}
	}
	if sent >= 100 {
		t.Fatal("no tail drop on overflow")
	}
	if a.QueueDrops() == 0 {
		t.Fatal("QueueDrops not counted")
	}
}

func TestSendAfterClose(t *testing.T) {
	a, _ := NewLink(LinkConfig{})
	a.Close()
	if send(a, []byte("x")) {
		t.Fatal("send succeeded after close")
	}
}

func BenchmarkLinkThroughput(b *testing.B) {
	a, p := NewLink(LinkConfig{})
	defer a.Close()
	go func() {
		for range p.Recv() {
		}
	}()
	buf := make([]byte, 1024)
	for i := 0; i < b.N; i++ {
		for !send(a, append([]byte(nil), buf...)) {
		}
	}
}
