package kvserver

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"packetstore/internal/calib"
	"packetstore/internal/core"
	"packetstore/internal/host"
	"packetstore/internal/kvclient"
	"packetstore/internal/lsm"
	"packetstore/internal/pmem"
	"packetstore/internal/rawpm"
	"packetstore/internal/tcp"
	"packetstore/internal/wrkgen"
)

// env is one end-to-end deployment: testbed + server + client dialer.
type env struct {
	tb  *host.Testbed
	srv *Server
}

func (e *env) dial(t *testing.T) *kvclient.Client {
	t.Helper()
	c, err := e.tb.Dial(80)
	if err != nil {
		t.Fatal(err)
	}
	return kvclient.New(c)
}

func (e *env) close() {
	e.srv.Close()
	e.tb.Close()
}

func newEnv(t *testing.T, backend func(tb *host.Testbed) Backend, opt host.Options) *env {
	t.Helper()
	tb := host.NewTestbed(opt)
	srv, err := New(tb.Server.Stack, 80, backend(tb))
	if err != nil {
		t.Fatal(err)
	}
	go srv.Run()
	e := &env{tb: tb, srv: srv}
	t.Cleanup(e.close)
	return e
}

func pktStoreEnv(t *testing.T, cfg core.Config) (*env, *core.Store) {
	t.Helper()
	cfg.ChecksumReuse = true
	r := pmem.New(cfg.RegionSize(), calib.Off())
	store, err := core.Open(r, cfg)
	if err != nil {
		t.Fatal(err)
	}
	e := newEnv(t, func(*host.Testbed) Backend { return PktStore{S: store} },
		host.Options{ServerRxPool: store.Pool()})
	return e, store
}

func TestEndToEndDiscard(t *testing.T) {
	e := newEnv(t, func(*host.Testbed) Backend { return Discard{} }, host.Options{})
	cl := e.dial(t)
	if err := cl.Put([]byte("k"), bytes.Repeat([]byte("x"), 1024)); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := cl.Get([]byte("k")); err != nil || ok {
		t.Fatalf("discard backend returned data: %v %v", ok, err)
	}
	if st := e.srv.Stats(); st.Requests != 2 || st.Puts != 1 || st.Gets != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestEndToEndRawPM(t *testing.T) {
	r := pmem.New(1<<20, calib.Off())
	rp := rawpm.New(r, 0, 1<<20)
	e := newEnv(t, func(*host.Testbed) Backend { return RawPM{S: rp} }, host.Options{})
	cl := e.dial(t)
	for i := 0; i < 10; i++ {
		if err := cl.Put([]byte("k"), make([]byte, 1024)); err != nil {
			t.Fatal(err)
		}
	}
	if rp.Puts() != 10 {
		t.Fatalf("rawpm persisted %d values", rp.Puts())
	}
}

func TestEndToEndLSM(t *testing.T) {
	r := pmem.New(64<<20, calib.Off())
	db, err := lsm.Open(lsm.Options{PM: r, PMSize: r.Size(), ArenaSize: 4 << 20})
	if err != nil {
		t.Fatal(err)
	}
	e := newEnv(t, func(*host.Testbed) Backend { return LSM{DB: db} }, host.Options{})
	cl := e.dial(t)
	val := bytes.Repeat([]byte("v"), 1024)
	for i := 0; i < 50; i++ {
		if err := cl.Put([]byte(fmt.Sprintf("key%03d", i)), val); err != nil {
			t.Fatal(err)
		}
	}
	got, ok, err := cl.Get([]byte("key025"))
	if err != nil || !ok || !bytes.Equal(got, val) {
		t.Fatalf("get: %v %v (%d bytes)", ok, err, len(got))
	}
	if _, ok, _ := cl.Get([]byte("missing")); ok {
		t.Fatal("missing key found")
	}
	if found, err := cl.Delete([]byte("key025")); err != nil || !found {
		t.Fatalf("delete: %v %v", found, err)
	}
	if _, ok, _ := cl.Get([]byte("key025")); ok {
		t.Fatal("deleted key visible")
	}
	kvs, err := cl.Range([]byte("key010"), []byte("key020"), 0)
	if err != nil || len(kvs) != 10 {
		t.Fatalf("range: %d, %v", len(kvs), err)
	}
}

func TestEndToEndPktStoreZeroCopy(t *testing.T) {
	e, store := pktStoreEnv(t, core.Config{VerifyOnGet: true})
	cl := e.dial(t)
	val := make([]byte, 1024)
	rand.New(rand.NewSource(1)).Read(val)
	for i := 0; i < 100; i++ {
		if err := cl.Put([]byte(fmt.Sprintf("key%04d", i)), val); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	got, ok, err := cl.Get([]byte("key0042"))
	if err != nil || !ok || !bytes.Equal(got, val) {
		t.Fatalf("get: ok=%v err=%v len=%d", ok, err, len(got))
	}
	st := e.srv.Stats()
	if st.ZeroCopyPuts != 100 {
		t.Fatalf("zero-copy puts %d, want 100 (stats %+v)", st.ZeroCopyPuts, st)
	}
	if st.ZeroCopyGets == 0 {
		t.Fatal("GET did not use zero-copy egress")
	}
	if st.DerivedSums == 0 {
		t.Fatal("no NIC checksum harvesting happened")
	}
	// The store really reused sums rather than recomputing.
	ss := store.Stats()
	if ss.ChecksumReused != 100 || ss.ChecksumComputed != 0 {
		t.Fatalf("store checksum stats %+v", ss)
	}
	// Every stored record passes an integrity scrub: the derived NIC
	// sums equal direct computation over the stored bytes.
	if bad, _ := store.Verify(); len(bad) != 0 {
		t.Fatalf("verify failed for %q", bad)
	}
	// Range through the server.
	kvs, err := cl.Range([]byte("key0010"), []byte("key0015"), 0)
	if err != nil || len(kvs) != 5 {
		t.Fatalf("range: %d %v", len(kvs), err)
	}
	// Deletes work end to end.
	if found, err := cl.Delete([]byte("key0042")); err != nil || !found {
		t.Fatalf("delete: %v %v", found, err)
	}
	if _, ok, _ := cl.Get([]byte("key0042")); ok {
		t.Fatal("deleted key visible")
	}
}

func TestPktStoreValueLargerThanMSS(t *testing.T) {
	// Values above one MSS arrive as multiple segments -> multi-extent
	// records with combined NIC checksums.
	e, store := pktStoreEnv(t, core.Config{VerifyOnGet: true})
	cl := e.dial(t)
	val := make([]byte, 5000)
	rand.New(rand.NewSource(2)).Read(val)
	if err := cl.Put([]byte("big"), val); err != nil {
		t.Fatal(err)
	}
	got, ok, err := cl.Get([]byte("big"))
	if err != nil || !ok || !bytes.Equal(got, val) {
		t.Fatalf("big value: ok=%v err=%v len=%d", ok, err, len(got))
	}
	ref, _, _ := store.GetRef([]byte("big"))
	if len(ref.Extents) < 2 {
		t.Fatalf("expected multiple extents, got %d", len(ref.Extents))
	}
	if bad, _ := store.Verify(); len(bad) != 0 {
		t.Fatal("verify failed on multi-extent record")
	}
}

func TestPktStoreOverwriteAndChurn(t *testing.T) {
	e, store := pktStoreEnv(t, core.Config{
		MetaSlots: 256, DataSlots: 256, VerifyOnGet: true,
	})
	cl := e.dial(t)
	// Overwrite far more times than there are slots: recycling must work
	// end to end (acknowledged packets' slots return to the NIC pool).
	val := make([]byte, 512)
	for i := 0; i < 2000; i++ {
		copy(val, fmt.Sprintf("generation-%06d", i))
		if err := cl.Put([]byte("churn-key"), val); err != nil {
			t.Fatalf("put %d: %v (slot exhaustion => leak)", i, err)
		}
	}
	got, ok, err := cl.Get([]byte("churn-key"))
	if err != nil || !ok || !bytes.HasPrefix(got, []byte("generation-001999")) {
		t.Fatalf("final value: %q %v %v", got[:20], ok, err)
	}
	if store.Len() != 1 {
		t.Fatalf("store has %d records", store.Len())
	}
}

func TestPktStoreCrashRecoveryEndToEnd(t *testing.T) {
	for _, tr := range transports {
		t.Run(tr.name, func(t *testing.T) {
			cfg := core.Config{ChecksumReuse: true, VerifyOnGet: true}
			r := pmem.New(cfg.RegionSize(), calib.Off())
			store, err := core.Open(r, cfg)
			if err != nil {
				t.Fatal(err)
			}
			val := make([]byte, 1024)
			rand.New(rand.NewSource(3)).Read(val)
			// Serve in a subtest so its cleanup stops the first server
			// before the power cut.
			t.Run("load", func(t *testing.T) {
				cl := kvclient.New(mustDial(t, tr.serve(t, PktStore{S: store}, Config{}, store.Pool())))
				for i := 0; i < 200; i++ {
					if err := cl.Put([]byte(fmt.Sprintf("key%04d", i)), val); err != nil {
						t.Fatal(err)
					}
				}
			})

			// Power failure.
			r.Crash(4)

			// Reboot: recover and serve again.
			store2, err := core.Open(r, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if store2.Len() != 200 {
				t.Fatalf("recovered %d records, want 200", store2.Len())
			}
			if bad, _ := store2.Verify(); len(bad) != 0 {
				t.Fatalf("post-crash verify failed: %q", bad)
			}
			cl2 := kvclient.New(mustDial(t, tr.serve(t, PktStore{S: store2}, Config{}, store2.Pool())))
			got, ok, err := cl2.Get([]byte("key0111"))
			if err != nil || !ok || !bytes.Equal(got, val) {
				t.Fatalf("post-crash get: %v %v", ok, err)
			}
			// And writable.
			if err := cl2.Put([]byte("post-crash"), val); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestPipelinedRequests(t *testing.T) {
	for _, tr := range transports {
		t.Run(tr.name, func(t *testing.T) {
			store := openStore(t, core.Config{ChecksumReuse: true})
			c := mustDial(t, tr.serve(t, PktStore{S: store}, Config{}, store.Pool()))
			// Two PUTs and a GET written back-to-back in one burst.
			var burst []byte
			v1, v2 := []byte("value-one"), []byte("value-two")
			burst = appendPut(burst, "pipe1", v1)
			burst = appendPut(burst, "pipe2", v2)
			burst = append(burst, "GET /k/pipe1 HTTP/1.1\r\n\r\n"...)
			if _, err := c.Write(burst); err != nil {
				t.Fatal(err)
			}
			// Read three responses.
			resp := readAll(t, c, []byte("value-one"))
			if !bytes.Contains(resp, []byte("value-one")) {
				t.Fatalf("pipelined GET missing value: %q", resp)
			}
			if n := bytes.Count(resp, []byte("HTTP/1.1 200")); n != 3 {
				t.Fatalf("%d 200-responses, want 3: %q", n, resp)
			}
		})
	}
}
func appendPut(dst []byte, key string, val []byte) []byte {
	dst = append(dst, fmt.Sprintf("PUT /k/%s HTTP/1.1\r\nContent-Length: %d\r\n\r\n", key, len(val))...)
	return append(dst, val...)
}

// readOKs reads from c until n 200-responses have arrived.
func readOKs(t *testing.T, c interface{ Read([]byte) (int, error) }, n int) {
	t.Helper()
	var out []byte
	buf := make([]byte, 4096)
	deadline := time.Now().Add(5 * time.Second)
	for bytes.Count(out, []byte("HTTP/1.1 200")) < n {
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %d responses; got %q", n, out)
		}
		m, err := c.Read(buf)
		if err != nil {
			t.Fatalf("read: %v (got %q)", err, out)
		}
		out = append(out, buf[:m]...)
	}
}

func readAll(t *testing.T, c interface{ Read([]byte) (int, error) }, until []byte) []byte {
	t.Helper()
	var out []byte
	buf := make([]byte, 4096)
	deadline := time.Now().Add(5 * time.Second)
	for !bytes.Contains(out, until) {
		if time.Now().After(deadline) {
			t.Fatalf("timeout; got %q", out)
		}
		n, err := c.Read(buf)
		if err != nil {
			t.Fatalf("read: %v (got %q)", err, out)
		}
		out = append(out, buf[:n]...)
	}
	return out
}

func TestMalformedRequestGets400(t *testing.T) {
	for _, tr := range transports {
		t.Run(tr.name, func(t *testing.T) {
			c := mustDial(t, tr.serve(t, Discard{}, Config{}, nil))
			c.Write([]byte("NONSENSE GARBAGE\r\n\r\n"))
			resp := readAll(t, c, []byte("400"))
			if !bytes.Contains(resp, []byte("400")) {
				t.Fatalf("no 400: %q", resp)
			}
		})
	}
}

func TestUnknownPathGets400(t *testing.T) {
	for _, tr := range transports {
		t.Run(tr.name, func(t *testing.T) {
			c := mustDial(t, tr.serve(t, Discard{}, Config{}, nil))
			c.Write([]byte("GET /unknown/path HTTP/1.1\r\n\r\n"))
			resp := readAll(t, c, []byte("HTTP/1.1"))
			if !bytes.Contains(resp, []byte("400")) {
				t.Fatalf("want 400, got %q", resp)
			}
		})
	}
}

func TestConcurrentConnectionsMixedWorkload(t *testing.T) {
	for _, tr := range transports {
		t.Run(tr.name, func(t *testing.T) {
			store := openStore(t, core.Config{MetaSlots: 1 << 14, DataSlots: 1 << 14, ChecksumReuse: true})
			sv := tr.serve(t, PktStore{S: store}, Config{}, store.Pool())
			res, err := wrkgen.Run(wrkgen.Config{
				Conns: 8, Requests: 800, ValueSize: 512,
				KeySpace: 200, KeyDist: wrkgen.DistUniform,
				PutPct: 60, DeletePct: 10, Seed: 42,
			}, sv.dial)
			if err != nil {
				t.Fatal(err)
			}
			if res.Errors != 0 {
				t.Fatalf("%d errors", res.Errors)
			}
			if res.Requests < 800 {
				t.Fatalf("only %d requests", res.Requests)
			}
			if bad, _ := store.Verify(); len(bad) != 0 {
				t.Fatalf("verify after churn: %q", bad)
			}
		})
	}
}

func TestLossyFabricEndToEnd(t *testing.T) {
	cfg := core.Config{ChecksumReuse: true, VerifyOnGet: true}
	r := pmem.New(cfg.RegionSize(), calib.Off())
	store, _ := core.Open(r, cfg)
	tb := host.NewTestbed(host.Options{
		ServerRxPool: store.Pool(),
		Loss:         0.01, Reorder: 0.02, Seed: 99,
		StackConfig: tcp.Config{MinRTO: 5 * time.Millisecond},
	})
	defer tb.Close()
	srv, err := New(tb.Server.Stack, 80, PktStore{S: store})
	if err != nil {
		t.Fatal(err)
	}
	go srv.Run()
	defer srv.Close()
	c, err := tb.Dial(80)
	if err != nil {
		t.Fatal(err)
	}
	cl := kvclient.New(c)
	val := make([]byte, 1024)
	rand.New(rand.NewSource(5)).Read(val)
	for i := 0; i < 100; i++ {
		if err := cl.Put([]byte(fmt.Sprintf("lossy%03d", i)), val); err != nil {
			t.Fatalf("put %d over lossy fabric: %v", i, err)
		}
	}
	for i := 0; i < 100; i++ {
		got, ok, err := cl.Get([]byte(fmt.Sprintf("lossy%03d", i)))
		if err != nil || !ok || !bytes.Equal(got, val) {
			t.Fatalf("get %d over lossy fabric: ok=%v err=%v", i, ok, err)
		}
	}
	// Retransmission-trimmed segments must never poison checksums.
	if bad, _ := store.Verify(); len(bad) != 0 {
		t.Fatalf("verify after lossy ingest: %q", bad)
	}
}

// TestEndToEndGroupCommit drives many concurrent connections at a server
// with MaxBatch enabled: bursts must actually form (GroupCommits > 0),
// every grouped PUT must still be durable and correct, and group commit
// must spend fewer fences than one-fence-per-op would.
func TestEndToEndGroupCommit(t *testing.T) {
	cfg := core.Config{MetaSlots: 1 << 14, DataSlots: 1 << 14, ChecksumReuse: true}
	// The paper PM latency profile (not Off) matters here: with free PM
	// the loop services each request the instant it arrives, bursts stay
	// at one conn, and the adaptive cutoff routes everything down the
	// unbatched path. Realistic persist cost lets arrivals pile up.
	r := pmem.New(cfg.RegionSize(), calib.Paper())
	store, err := core.Open(r, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tb := host.NewTestbed(host.Options{ServerRxPool: store.Pool()})
	defer tb.Close()
	srv, err := NewWithConfig(tb.Server.Stack, 80, PktStore{S: store}, Config{MaxBatch: 8})
	if err != nil {
		t.Fatal(err)
	}
	go srv.Run()
	defer srv.Close()

	// Pure-PUT phase first: with no reads forcing mid-burst commit
	// barriers, fence amortization must be visible in the PM counters.
	// Every conn pipelines its whole round before anyone reads a
	// response, so several connections are readable at once and bursts
	// form regardless of scheduler timing.
	const conns, rounds, perRound = 8, 4, 8
	val := bytes.Repeat([]byte("b"), 512)
	cs := make([]kvclient.Conn, conns)
	for i := range cs {
		c, err := tb.Dial(80)
		if err != nil {
			t.Fatal(err)
		}
		cs[i] = c
	}
	for r := 0; r < rounds; r++ {
		for i, c := range cs {
			var burst []byte
			for j := 0; j < perRound; j++ {
				key := fmt.Sprintf("g%03d", (i*perRound+j+r*13)%50)
				burst = appendPut(burst, key, val)
			}
			if _, err := c.Write(burst); err != nil {
				t.Fatal(err)
			}
		}
		for _, c := range cs {
			readOKs(t, c, perRound)
		}
	}
	st := srv.Stats()
	if st.GroupCommits == 0 {
		t.Fatal("no group commits formed under 8 concurrent connections")
	}
	if st.GroupedConns < 2*st.GroupCommits {
		t.Fatalf("groups averaged <2 conns: %d commits, %d conns",
			st.GroupCommits, st.GroupedConns)
	}
	// An unbatched overwrite-heavy PUT run spends ~3 fences per op
	// (flush, seq, retire); grouping must land below 2.
	pm := r.Stats()
	puts := store.Stats().Puts
	if pm.Fences >= 2*puts {
		t.Fatalf("fences %d for %d puts: batching bought nothing", pm.Fences, puts)
	}

	// Mixed phase: interleaved GETs and DELETEs force commit barriers
	// mid-burst; correctness must survive the churn.
	res, err := wrkgen.Run(wrkgen.Config{
		Conns: 8, Requests: 800, ValueSize: 512,
		KeySpace: 200, KeyDist: wrkgen.DistUniform,
		PutPct: 60, DeletePct: 10, Seed: 44,
	}, func() (kvclient.Conn, error) { return tb.Dial(80) })
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Fatalf("mixed phase: %d errors", res.Errors)
	}
	if bad, _ := store.Verify(); len(bad) != 0 {
		t.Fatalf("verify after grouped churn: %q", bad)
	}
}
