package kvserver

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"testing"

	"packetstore/internal/calib"
	"packetstore/internal/core"
	"packetstore/internal/httpmsg"
	"packetstore/internal/kvclient"
	"packetstore/internal/pmem"
)

func TestNetServerOverOSSockets(t *testing.T) {
	cfg := core.Config{MetaSlots: 1024, DataSlots: 1024, VerifyOnGet: true}
	r := pmem.New(cfg.RegionSize(), calib.Off())
	store, err := core.Open(r, cfg)
	if err != nil {
		t.Fatal(err)
	}
	lst, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewNetServer(lst, PktStore{S: store})
	done := make(chan error, 1)
	go func() { done <- srv.Serve() }()

	conn, err := net.Dial("tcp", lst.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	cl := kvclient.New(conn)
	val := bytes.Repeat([]byte("x"), 2000)
	if err := cl.Put([]byte("net-key"), val); err != nil {
		t.Fatal(err)
	}
	got, ok, err := cl.Get([]byte("net-key"))
	if err != nil || !ok || !bytes.Equal(got, val) {
		t.Fatalf("get over OS sockets: %v %v", ok, err)
	}
	if _, ok, _ := cl.Get([]byte("missing")); ok {
		t.Fatal("missing key found")
	}
	if found, err := cl.Delete([]byte("net-key")); err != nil || !found {
		t.Fatalf("delete: %v %v", found, err)
	}
	// Range with some records.
	for _, k := range []string{"a", "b", "c"} {
		cl.Put([]byte(k), []byte("v-"+k))
	}
	kvs, err := cl.Range([]byte("a"), []byte("c"), 0)
	if err != nil || len(kvs) != 2 {
		t.Fatalf("range: %d %v", len(kvs), err)
	}
	cl.Close()

	// Malformed request: server answers 400 and closes.
	conn2, _ := net.Dial("tcp", lst.Addr().String())
	conn2.Write([]byte("JUNK\r\n\r\n"))
	buf := make([]byte, 256)
	n, _ := conn2.Read(buf)
	if !bytes.Contains(buf[:n], []byte("400")) {
		t.Fatalf("want 400, got %q", buf[:n])
	}
	conn2.Close()

	srv.Close()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// readResponse parses exactly one HTTP response (plus body) off the
// connection.
func readResponse(t *testing.T, c net.Conn) (httpmsg.Response, []byte) {
	t.Helper()
	p := httpmsg.NewResponseParser()
	buf := make([]byte, 4096)
	var body []byte
	for {
		n, err := c.Read(buf)
		if err != nil {
			t.Fatalf("read response: %v", err)
		}
		chunk := buf[:n]
		for len(chunk) > 0 {
			res := p.Feed(chunk)
			if res.Err != nil {
				t.Fatalf("parse response: %v", res.Err)
			}
			body = append(body, chunk[res.Body.Off:res.Body.Off+res.Body.Len]...)
			chunk = chunk[res.Consumed:]
			if res.Done {
				return p.Response(), body
			}
		}
	}
}

// TestNetServerAcceptStorm dials well past MaxConns at once: every
// over-cap connection must receive a parseable 503 with a Retry-After-Ms
// hint before being closed (never a silent RST or hang), the in-cap
// connections must keep serving, and Sheds() must count the rejects
// exactly.
func TestNetServerAcceptStorm(t *testing.T) {
	const maxConns, storm = 4, 12
	lst, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewNetServerWithConfig(lst, Discard{}, Config{MaxConns: maxConns})
	done := make(chan error, 1)
	go func() { done <- srv.Serve() }()

	// Fill the cap and prove each in-cap connection is registered by
	// completing a request on it (accept order, not dial order, decides
	// who is over cap — a round trip pins each one as accepted).
	inCap := make([]net.Conn, 0, maxConns)
	for i := 0; i < maxConns; i++ {
		c, err := net.Dial("tcp", lst.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(c, "PUT /k/warm-%d HTTP/1.1\r\nContent-Length: 1\r\n\r\nx", i)
		if r, _ := readResponse(t, c); r.Status != 200 {
			t.Fatalf("in-cap conn %d: status %d", i, r.Status)
		}
		inCap = append(inCap, c)
	}

	// The storm: every extra connection gets a clean 503.
	for i := 0; i < storm; i++ {
		c, err := net.Dial("tcp", lst.Addr().String())
		if err != nil {
			t.Fatalf("storm dial %d: %v", i, err)
		}
		r, _ := readResponse(t, c)
		if r.Status != 503 {
			t.Fatalf("storm conn %d: status %d, want 503", i, r.Status)
		}
		if r.RetryAfterMs <= 0 {
			t.Fatalf("storm conn %d: no Retry-After-Ms hint", i)
		}
		// The server hangs up after the 503.
		if _, err := c.Read(make([]byte, 1)); err != io.EOF {
			t.Fatalf("storm conn %d: want EOF after 503, got %v", i, err)
		}
		c.Close()
	}
	if got := srv.Stats().Sheds; got != storm {
		t.Fatalf("Sheds() = %d, want %d", got, storm)
	}

	// In-cap connections survived the storm.
	for i, c := range inCap {
		fmt.Fprintf(c, "PUT /k/after-%d HTTP/1.1\r\nContent-Length: 1\r\n\r\ny", i)
		if r, _ := readResponse(t, c); r.Status != 200 {
			t.Fatalf("in-cap conn %d after storm: status %d", i, r.Status)
		}
		c.Close()
	}
	srv.Close()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestNetServerExpiredBudget sends a request whose X-Budget-Us lapsed
// before execution: the server must answer 503 without executing, count
// it in Expired(), and surface the tally in /healthz.
func TestNetServerExpiredBudget(t *testing.T) {
	lst, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewNetServerWithConfig(lst, Discard{}, Config{Overload: OverloadConfig{Enabled: true}})
	done := make(chan error, 1)
	go func() { done <- srv.Serve() }()

	c, err := net.Dial("tcp", lst.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	// A 1µs budget has always lapsed by dispatch time.
	fmt.Fprintf(c, "PUT /k/doomed HTTP/1.1\r\nX-Budget-Us: 1\r\nContent-Length: 1\r\n\r\nz")
	r, _ := readResponse(t, c)
	if r.Status != 503 || r.RetryAfterMs <= 0 {
		t.Fatalf("expired budget: status %d retry-after %d", r.Status, r.RetryAfterMs)
	}
	if got := srv.Stats().Expired; got != 1 {
		t.Fatalf("Expired() = %d, want 1", got)
	}
	// A generous budget executes normally on the same connection.
	fmt.Fprintf(c, "PUT /k/alive HTTP/1.1\r\nX-Budget-Us: 10000000\r\nContent-Length: 1\r\n\r\nz")
	if r, _ := readResponse(t, c); r.Status != 200 {
		t.Fatalf("live budget: status %d", r.Status)
	}

	// /healthz carries the overload section even without a healer wired.
	fmt.Fprintf(c, "GET /healthz HTTP/1.1\r\n\r\n")
	hr, hbody := readResponse(t, c)
	if hr.Status != 200 {
		t.Fatalf("healthz status %d", hr.Status)
	}
	var rep HealthReport
	if err := json.Unmarshal(hbody, &rep); err != nil {
		t.Fatalf("healthz body: %v", err)
	}
	if rep.Overload == nil || rep.Overload.Expired != 1 {
		t.Fatalf("healthz overload section = %+v, want expired=1", rep.Overload)
	}
	c.Close()
	srv.Close()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}
