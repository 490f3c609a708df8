package kvserver

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"packetstore/internal/calib"
	"packetstore/internal/core"
	"packetstore/internal/host"
	"packetstore/internal/httpmsg"
	"packetstore/internal/kvclient"
	"packetstore/internal/pkt"
	"packetstore/internal/pmem"
	"packetstore/internal/tcp"
)

// served is a running server as a test sees it, whichever transport
// carries the bytes.
type served struct {
	dial  func() (kvclient.Conn, error)
	stats func() Stats
	// quiet, when set, reports that nothing c sent is still in flight:
	// every byte acknowledged and no frame waiting on the link or in a
	// NIC ring in either direction. Only the simulated fabric keeps
	// that state in the Go heap.
	quiet func(c kvclient.Conn) bool
}

// transports is the transport dimension of the end-to-end tests: the
// simulated two-host stack (event loops; zero-copy when rxPool is the
// store's PM pool, copy path when nil) and a kernel loopback socket
// (NetServer). Both feed the same request engine.
var transports = []struct {
	name  string
	serve func(t *testing.T, backend Backend, cfg Config, rxPool *pkt.Pool) served
}{
	{"simulated", func(t *testing.T, backend Backend, cfg Config, rxPool *pkt.Pool) served {
		tb := host.NewTestbed(host.Options{ServerRxPool: rxPool})
		srv, err := NewWithConfig(tb.Server.Stack, 80, backend, cfg)
		if err != nil {
			t.Fatal(err)
		}
		go srv.Run()
		t.Cleanup(func() { srv.Close(); tb.Close() })
		return served{
			dial:  func() (kvclient.Conn, error) { return tb.Dial(80) },
			stats: srv.Stats,
			quiet: func(c kvclient.Conn) bool {
				return c.(*tcp.Conn).Unacked() == 0 && tb.Client.NIC.Backlog() == 0 && tb.Server.NIC.Backlog() == 0
			},
		}
	}},
	{"loopback", func(t *testing.T, backend Backend, cfg Config, _ *pkt.Pool) served {
		lst, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv := NewNetServerWithConfig(lst, backend, cfg)
		done := make(chan error, 1)
		go func() { done <- srv.Serve() }()
		t.Cleanup(func() {
			srv.Close()
			if err := <-done; err != nil {
				t.Error(err)
			}
		})
		return served{
			dial:  func() (kvclient.Conn, error) { return net.Dial("tcp", lst.Addr().String()) },
			stats: srv.Stats,
		}
	}},
}

func openStore(t *testing.T, cfg core.Config) *core.Store {
	t.Helper()
	store, err := core.Open(pmem.New(cfg.RegionSize(), calib.Off()), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return store
}

func mustDial(t *testing.T, sv served) kvclient.Conn {
	t.Helper()
	c, err := sv.dial()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// readResponses reads exactly n complete HTTP responses off c and returns
// their raw bytes. It assumes the caller sends in lockstep, so nothing
// beyond the n-th response is in flight.
func readResponses(t *testing.T, c io.Reader, n int) []byte {
	t.Helper()
	type result struct {
		raw []byte
		err error
	}
	ch := make(chan result, 1)
	go func() {
		var raw []byte
		p := httpmsg.NewResponseParser()
		buf := make([]byte, 4096)
		for n > 0 {
			m, err := c.Read(buf)
			if err != nil {
				ch <- result{raw, err}
				return
			}
			raw = append(raw, buf[:m]...)
			for chunk := buf[:m]; len(chunk) > 0 && n > 0; {
				res := p.Feed(chunk)
				if res.Err != nil {
					ch <- result{raw, res.Err}
					return
				}
				chunk = chunk[res.Consumed:]
				if res.Done {
					n--
					p = httpmsg.NewResponseParser()
				}
			}
		}
		ch <- result{raw, nil}
	}()
	select {
	case r := <-ch:
		if r.err != nil {
			t.Fatalf("reading responses: %v (got %q)", r.err, r.raw)
		}
		return r.raw
	case <-time.After(5 * time.Second):
		t.Fatalf("timeout waiting for %d more responses", n)
		return nil
	}
}

// TestTransportsAnswerIdentically feeds one scripted byte stream to a
// copy-path simulated server (DRAM receive pool) and to NetServer. There
// is one request engine, so the response bytes must be equal step by
// step and the request counters must agree.
func TestTransportsAnswerIdentically(t *testing.T) {
	put := func(key, val string, hdrs ...string) string {
		return fmt.Sprintf("PUT /k/%s HTTP/1.1\r\n%sContent-Length: %d\r\n\r\n%s",
			key, strings.Join(hdrs, ""), len(val), val)
	}
	big := strings.Repeat("0123456789abcdef", 300) // 4800 B: several segments on the simulated stack
	// Each step is a list of writes followed by the number of responses
	// to wait for before the next step.
	script := []struct {
		writes []string
		want   int
	}{
		{[]string{put("a", "v1")}, 1},
		{[]string{put("a", "v2-overwrites")}, 1},
		{[]string{"GET /k/a HTTP/1.1\r\n\r\n"}, 1},
		{[]string{"GET /k/missing HTTP/1.1\r\n\r\n"}, 1},
		{[]string{"DELETE /k/a HTTP/1.1\r\n\r\n"}, 1},
		{[]string{"DELETE /k/a HTTP/1.1\r\n\r\n"}, 1},
		{[]string{put("b", "vb") + put("c", "vc") + put("d", "vd") +
			"GET /range?start=b&end=d HTTP/1.1\r\n\r\n"}, 4},
		// One body split across three reads.
		{[]string{put("split", big)[:100], put("split", big)[100:2000], put("split", big)[2000:]}, 1},
		{[]string{"GET /k/split HTTP/1.1\r\n\r\n"}, 1},
		{[]string{"GET /unknown/path HTTP/1.1\r\n\r\n"}, 1},
		{[]string{put("doomed", "z", "X-Budget-Us: 1\r\n")}, 1},
		{[]string{"GET /k/doomed HTTP/1.1\r\n\r\n"}, 1},
		{[]string{"GET /healthz HTTP/1.1\r\n\r\n"}, 1},
		// Last: a malformed header is answered 400 and the connection closed.
		{[]string{"NONSENSE GARBAGE\r\n\r\n"}, 1},
	}

	var outs [][][]byte // per transport, per step
	var stats []Stats
	for _, tr := range transports {
		store := openStore(t, core.Config{MetaSlots: 256, DataSlots: 256})
		sv := tr.serve(t, PktStore{S: store}, Config{Overload: OverloadConfig{Enabled: true}}, nil)
		c := mustDial(t, sv)
		var out [][]byte
		for _, step := range script {
			for i, w := range step.writes {
				if i > 0 {
					time.Sleep(2 * time.Millisecond) // let the previous piece be read on its own
				}
				if _, err := c.Write([]byte(w)); err != nil {
					t.Fatalf("%s: write: %v", tr.name, err)
				}
			}
			out = append(out, readResponses(t, c, step.want))
		}
		if n, err := c.Read(make([]byte, 1)); n != 0 || err == nil {
			t.Fatalf("%s: connection still open after a malformed header (%d, %v)", tr.name, n, err)
		}
		outs = append(outs, out)
		stats = append(stats, sv.stats())
	}
	const healthStep = 12
	for i := range script {
		a, b := outs[0][i], outs[1][i]
		if i == healthStep {
			// The health report carries the one time-valued field in the
			// script: run-queue sojourn, which only event loops have.
			a, b = healthSansQueueDelay(t, a), healthSansQueueDelay(t, b)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("step %d (%.40q): responses differ\n%s: %.300q\n%s: %.300q",
				i, script[i].writes[0], transports[0].name, a, transports[1].name, b)
		}
	}
	all := bytes.Join(outs[0], nil)
	for _, want := range []string{"v2-overwrites", big, "HTTP/1.1 404", "HTTP/1.1 204", "HTTP/1.1 503", "HTTP/1.1 400", `"ready":true`} {
		if !bytes.Contains(all, []byte(want)) {
			t.Errorf("script output lacks %.40q", want)
		}
	}
	a, b := stats[0], stats[1]
	if a.Requests != b.Requests || a.Puts != b.Puts || a.Gets != b.Gets || a.Deletes != b.Deletes ||
		a.Ranges != b.Ranges || a.Errors != b.Errors || a.Expired != b.Expired {
		t.Fatalf("counters differ:\n%s: %+v\n%s: %+v", transports[0].name, a, transports[1].name, b)
	}
	if a.Requests != 16 || a.Puts != 6 || a.Gets != 4 || a.Deletes != 2 || a.Ranges != 1 || a.Errors != 2 || a.Expired != 1 {
		t.Fatalf("counters off the script: %+v", a)
	}
}

// healthSansQueueDelay re-renders a /healthz response with its
// queue_delay_ms zeroed.
func healthSansQueueDelay(t *testing.T, resp []byte) []byte {
	t.Helper()
	_, body, ok := bytes.Cut(resp, []byte("\r\n\r\n"))
	var rep HealthReport
	if !ok || json.Unmarshal(body, &rep) != nil || rep.Overload == nil {
		t.Fatalf("not a health report with an overload section: %.300q", resp)
	}
	rep.Overload.QueueDelayMs = 0
	return appendHealth(nil, rep)
}

// TestBodyBoundRefusesOversizedPut: a PUT declaring more than a shard's
// data area can ever hold is answered 507 when its header completes, its
// body is never buffered, and the pipeline stays in sync behind it.
func TestBodyBoundRefusesOversizedPut(t *testing.T) {
	for _, tr := range transports {
		t.Run(tr.name, func(t *testing.T) {
			store := openStore(t, core.Config{MetaSlots: 256, DataSlots: 256}) // 256 x 2048 B = 512 KiB of data area
			// Measure the server, not the simulator: on the simulated stack
			// a body lands in PM receive buffers, and pmem keeps a saved
			// durable copy of every line DMA'd and not yet fenced. Take
			// those copies for the whole (still empty) receive area before
			// the first frame arrives.
			slab := store.Pool().Slab()
			store.Region().DMA(slab.Base(), make([]byte, slab.Slots()*slab.SlotSize()))
			sv := tr.serve(t, PktStore{S: store}, Config{}, store.Pool())

			// 1 GiB declared, 1 MiB sent: the answer does not wait for the
			// body, and the server consumes what arrives without keeping it.
			c := mustDial(t, sv)
			req := append([]byte("PUT /k/huge HTTP/1.1\r\nContent-Length: 1073741824\r\n\r\n"), make([]byte, 1<<20)...)
			heap := func() uint64 {
				var m runtime.MemStats
				runtime.GC()
				runtime.ReadMemStats(&m)
				return m.HeapAlloc
			}
			before := heap()
			go c.Write(req)
			if resp := readResponses(t, c, 1); !bytes.HasPrefix(resp, []byte("HTTP/1.1 507")) {
				t.Fatalf("want 507, got %q", resp)
			}
			waitFor(t, "the sent body to be consumed", func() bool { return sv.stats().BytesIn >= uint64(len(req)) })
			// The server consumes the body before the fabric drains: the
			// client's unacknowledged segments, and the retransmissions
			// that receive-pool overruns cause, are simulator heap, not
			// the server's.
			if sv.quiet != nil {
				waitFor(t, "the simulated fabric to drain", func() bool { return sv.quiet(c) })
			}
			after := heap()
			runtime.KeepAlive(req) // live on both sides of the comparison
			if after > before+uint64(len(req))/4 {
				t.Errorf("live heap grew %d B while consuming a %d B refused body", after-before, len(req))
			}

			// Just over the bound and sent in full, with requests pipelined
			// behind it: 507, then the next requests answered in order.
			c2 := mustDial(t, sv)
			over := make([]byte, 512<<10+1)
			pipe := fmt.Sprintf("PUT /k/over HTTP/1.1\r\nContent-Length: %d\r\n\r\n%s", len(over), over)
			pipe += "PUT /k/fits HTTP/1.1\r\nContent-Length: 2\r\n\r\nok" + "GET /k/fits HTTP/1.1\r\n\r\n" + "GET /k/over HTTP/1.1\r\n\r\n"
			go c2.Write([]byte(pipe))
			resp := readResponses(t, c2, 4)
			want := "HTTP/1.1 507 .*HTTP/1.1 200 .*HTTP/1.1 200 .*\r\n\r\nokHTTP/1.1 404 "
			if !regexp.MustCompile("(?s)^" + want).Match(resp) {
				t.Fatalf("pipeline out of sync behind a refused body: %q", resp)
			}
			if st := sv.stats(); st.Puts != 1 || st.Errors != 2 {
				t.Errorf("stats %+v: want 1 put stored, 2 refused", st)
			}
		})
	}
}

// TestHealthzWithoutHealer: with no healer installed, /healthz is the
// server's own report. It is built from the store's shard states — a
// quarantined shard makes it 503 with that shard down, exactly when its
// keys answer 503 — and still carries the read-path section after a GET
// and the numa section under a 2-node placement.
func TestHealthzWithoutHealer(t *testing.T) {
	for _, tr := range transports {
		t.Run(tr.name, func(t *testing.T) {
			r, ss, keys := healShardedSetup(t)
			if err := ss.SetNUMAPlacement(calib.Off().NUMA, 2, []int{0, 1, 0, 1}); err != nil {
				t.Fatal(err)
			}
			sv := tr.serve(t, ShardedPktStore{S: ss}, Config{}, nil)
			c := mustDial(t, sv)
			c.Write([]byte("GET /k/" + keys[1] + " HTTP/1.1\r\n\r\n"))
			if resp := readResponses(t, c, 1); !bytes.HasPrefix(resp, []byte("HTTP/1.1 200")) {
				t.Fatalf("GET %s: %q", keys[1], resp)
			}
			c.Write([]byte("GET /healthz HTTP/1.1\r\n\r\n"))
			resp := readResponses(t, c, 1)
			if !bytes.HasPrefix(resp, []byte("HTTP/1.1 200")) || !bytes.Contains(resp, []byte(`"ready":true`)) {
				t.Fatalf("all shards serving: %q", resp)
			}
			var rep HealthReport
			if err := json.Unmarshal(resp[bytes.Index(resp, []byte("\r\n\r\n"))+4:], &rep); err != nil {
				t.Fatalf("healthz body not JSON: %v in %q", err, resp)
			}
			if rep.Reads == nil || rep.Reads.Gets != 1 || rep.Reads.Hits != 1 {
				t.Errorf("reads section after one GET hit: %+v", rep.Reads)
			}
			rs := r.Stats()
			if rep.NUMA == nil || rep.NUMA.Nodes != 2 ||
				rep.NUMA.LocalLines != rs.LocalLines || rep.NUMA.RemoteLines != rs.RemoteLines {
				t.Errorf("numa section %+v, want 2 nodes and the region's %d/%d local/remote lines",
					rep.NUMA, rs.LocalLines, rs.RemoteLines)
			}
			ss.Quarantine(2, fmt.Errorf("injected"))
			c.Write([]byte("GET /healthz HTTP/1.1\r\n\r\n"))
			resp = readResponses(t, c, 1)
			if !bytes.HasPrefix(resp, []byte("HTTP/1.1 503")) ||
				!bytes.Contains(resp, []byte(`{"shard":2,"state":"down","reason":"injected"}`)) {
				t.Fatalf("shard 2 quarantined, no healer: %q", resp)
			}
		})
	}
}

// TestHealthzOverloadSchema pins the key sets of /healthz's overload
// section and of a loops[] entry on both transports. Both report only
// the server's own state: accept-cap sheds, idle reaps, expired budgets
// and queue delay, whatever the counters read.
func TestHealthzOverloadSchema(t *testing.T) {
	keys := func(m map[string]any) string {
		var ks []string
		for k := range m {
			ks = append(ks, k)
		}
		sort.Strings(ks)
		return strings.Join(ks, ",")
	}
	for _, tr := range transports {
		t.Run(tr.name, func(t *testing.T) {
			sv := tr.serve(t, Discard{}, Config{Overload: OverloadConfig{Enabled: true}}, nil)
			c := mustDial(t, sv)
			c.Write([]byte("GET /healthz HTTP/1.1\r\n\r\n"))
			resp := readResponses(t, c, 1)
			var rep struct {
				Overload map[string]any   `json:"overload"`
				Loops    []map[string]any `json:"loops"`
			}
			if err := json.Unmarshal(resp[bytes.Index(resp, []byte("\r\n\r\n"))+4:], &rep); err != nil {
				t.Fatalf("healthz body not JSON: %v in %q", err, resp)
			}
			if got, want := keys(rep.Overload), "expired,idle_closed,queue_delay_ms,sheds"; got != want {
				t.Errorf("overload keys %s, want %s", got, want)
			}
			if len(rep.Loops) == 0 {
				t.Fatalf("no loops in %q", resp)
			}
			if got, want := keys(rep.Loops[0]), "expired,node,queue,queue_depth,requests"; got != want {
				t.Errorf("loops[0] keys %s, want %s", got, want)
			}
		})
	}
}
