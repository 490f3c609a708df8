package host

import (
	"runtime"
	"testing"
	"time"

	"packetstore/internal/calib"
	"packetstore/internal/nic"
	"packetstore/internal/pkt"
)

func TestTestbedConnectivity(t *testing.T) {
	tb := NewTestbed(Options{})
	defer tb.Close()
	l, err := tb.Server.Stack.Listen(1234)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		buf := make([]byte, 16)
		n, _ := c.Read(buf)
		c.Write(buf[:n])
	}()
	c, err := tb.Dial(1234)
	if err != nil {
		t.Fatal(err)
	}
	c.Write([]byte("ping"))
	buf := make([]byte, 16)
	n, err := c.Read(buf)
	if err != nil || string(buf[:n]) != "ping" {
		t.Fatalf("echo: %q %v", buf[:n], err)
	}
}

func TestServerRxPoolOverride(t *testing.T) {
	pool := pkt.NewPool(2048, 8)
	tb := NewTestbed(Options{ServerRxPool: pool})
	defer tb.Close()
	if tb.Server.NIC.RxPool() != pool {
		t.Fatal("server rx pool not overridden")
	}
	if tb.Client.NIC.RxPool() == pool {
		t.Fatal("client got the server's pool")
	}
}

func TestOffloadOverride(t *testing.T) {
	off := nic.Offloads{}
	tb := NewTestbed(Options{Offloads: &off})
	defer tb.Close()
	if tb.Server.NIC.Offloads() != off {
		t.Fatal("offloads not applied")
	}
	if DefaultOffloads() == off {
		t.Fatal("default offloads should enable features")
	}
}

func TestProfileAppliesWireLatency(t *testing.T) {
	p := calib.Off()
	p.WireLatency = 300 * time.Microsecond
	tb := NewTestbed(Options{Profile: p})
	defer tb.Close()
	l, _ := tb.Server.Stack.Listen(80)
	go func() {
		for {
			if _, err := l.Accept(); err != nil {
				return
			}
		}
	}()
	start := time.Now()
	if _, err := tb.Dial(80); err != nil { // SYN + SYNACK = 2 wire crossings
		t.Fatal(err)
	}
	if e := time.Since(start); e < 600*time.Microsecond {
		t.Fatalf("handshake took %v, want >= 600µs of wire latency", e)
	}
}

func TestEventually(t *testing.T) {
	n := 0
	if !Eventually(time.Second, func() bool { n++; return n > 2 }) {
		t.Fatal("Eventually gave up")
	}
	if Eventually(20*time.Millisecond, func() bool { return false }) {
		t.Fatal("Eventually succeeded on false")
	}
}

// TestHandshakePaysEveryFabricCharge pins the modelled floor end to end:
// each of the SYN and SYN-ACK leaves its NIC a per-packet cost after the
// stack hands it over, crosses the wire, and is processed a per-packet
// cost after it arrives, so a handshake takes at least two of each.
func TestHandshakePaysEveryFabricCharge(t *testing.T) {
	p := calib.Off()
	p.WireLatency = 100 * time.Microsecond
	p.NICPerPacket = 60 * time.Microsecond
	p.StackPerPacket = 40 * time.Microsecond
	tb := NewTestbed(Options{Profile: p})
	defer tb.Close()
	l, _ := tb.Server.Stack.Listen(80)
	go func() {
		for {
			if _, err := l.Accept(); err != nil {
				return
			}
		}
	}()
	start := time.Now()
	if _, err := tb.Dial(80); err != nil {
		t.Fatal(err)
	}
	perPacket := p.NICPerPacket + p.StackPerPacket
	if floor := 2 * (perPacket + p.WireLatency + perPacket); time.Since(start) < floor {
		t.Fatalf("handshake took %v, want >= %v", time.Since(start), floor)
	}
}

// TestTestbedGoroutines pins what a testbed runs: each host's NIC
// receive engine and TCP stack goroutine, nothing for the wire or for
// transmit (the serializer, deliverer and NIC transmit goroutines of an
// earlier fabric made it ten), and nothing after Close.
func TestTestbedGoroutines(t *testing.T) {
	settle := func(want int) int {
		var g int
		for i := 0; i < 100; i++ {
			if g = runtime.NumGoroutine(); g == want {
				break
			}
			time.Sleep(time.Millisecond)
		}
		return g
	}
	before := runtime.NumGoroutine()
	tb := NewTestbed(Options{})
	if g := settle(before+4) - before; g != 4 {
		tb.Close()
		t.Fatalf("a testbed runs %d goroutines, want 4", g)
	}
	tb.Close()
	if g := settle(before); g != before {
		t.Fatalf("%d goroutines left running after Close", g-before)
	}
}
