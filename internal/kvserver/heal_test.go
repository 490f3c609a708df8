package kvserver

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"packetstore/internal/calib"
	"packetstore/internal/core"
	"packetstore/internal/pmem"
)

func healShardedSetup(t *testing.T) (*pmem.Region, *core.ShardedStore, []string) {
	t.Helper()
	cfg := core.Config{MetaSlots: 64, SlotSize: 128, DataSlots: 64, DataBufSize: 512, VerifyOnGet: true}
	const shards = 4
	r := pmem.New(core.ShardedRegionSize(cfg, shards), calib.Off())
	ss, err := core.OpenSharded(r, cfg, shards)
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	for i := 0; i < 32; i++ {
		k := fmt.Sprintf("key-%03d", i)
		keys = append(keys, k)
		if err := ss.Put([]byte(k), []byte("value of "+k)); err != nil {
			t.Fatal(err)
		}
	}
	return r, ss, keys
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// waitRejoin blocks on the healer's rejoin channel — the event-driven
// wait for "a rebuild just re-admitted its shard", replacing wall-clock
// polls that flake when the scheduler stalls the heal goroutine.
func waitRejoin(t *testing.T, h *Healer) time.Duration {
	t.Helper()
	select {
	case d := <-h.RejoinC():
		return d
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for a rejoin event")
		return 0
	}
}

// TestHealerRebuildsQuarantinedShard exercises the supervisor end to
// end: a quarantined shard is rebuilt and re-admitted automatically
// while the other shards keep serving, and no acked write is lost.
func TestHealerRebuildsQuarantinedShard(t *testing.T) {
	_, ss, keys := healShardedSetup(t)
	h := NewHealer(ss, HealConfig{ScrubInterval: time.Millisecond, ScrubSlots: 16})
	go h.Run()
	defer h.Close()

	victim := 1
	ss.Quarantine(victim, fmt.Errorf("injected"))
	waitRejoin(t, h)
	if err := ss.ShardErr(victim); err != nil {
		t.Fatalf("rejoin event fired but victim still down: %v", err)
	}

	st := h.Stats()
	if st.Rebuilds == 0 {
		t.Fatal("healer recorded no rebuild")
	}
	if len(st.Rejoins) == 0 {
		t.Fatal("healer recorded no time-to-rejoin sample")
	}
	for _, k := range keys {
		v, ok, err := ss.Get([]byte(k))
		if err != nil || !ok || string(v) != "value of "+k {
			t.Fatalf("after heal, %q: ok=%v err=%v v=%q", k, ok, err, v)
		}
	}
}

// TestHealerScrubFindsInjectedFlip verifies the background scrubber
// detects a latent CRC-covered bit flip and repairs the store in place.
func TestHealerScrubFindsInjectedFlip(t *testing.T) {
	_, ss, keys := healShardedSetup(t)
	// Damage a record in its own shard's store, directly.
	victimKey := keys[7]
	shard := core.ShardOf([]byte(victimKey), ss.Shards())
	if off := ss.Shard(shard).CorruptRecord([]byte(victimKey), core.FlipSlotField, 1, 0x10); off < 0 {
		t.Fatal("CorruptRecord found no slot")
	}
	h := NewHealer(ss, HealConfig{ScrubInterval: time.Millisecond, ScrubSlots: 16})
	go h.Run()
	defer h.Close()

	waitFor(t, "scrub detection", func() bool { return h.Stats().ScrubErrorsFound > 0 })
	waitFor(t, "scrub pass", func() bool { return h.Stats().ScrubPasses > 0 })
	st := h.Stats()
	if st.ScrubRepaired == 0 {
		t.Fatal("scrub detected damage but repaired nothing")
	}
	// Every undamaged key still serves exact bytes.
	for _, k := range keys {
		if k == victimKey {
			continue
		}
		v, ok, err := ss.Get([]byte(k))
		if err != nil || !ok || string(v) != "value of "+k {
			t.Fatalf("after scrub repair, %q: ok=%v err=%v v=%q", k, ok, err, v)
		}
	}
	// The damaged record must never serve wrong bytes.
	if v, ok, err := ss.Get([]byte(victimKey)); err == nil && ok {
		t.Fatalf("damaged key still serving: %q", v)
	}
}

// TestHealerRecoversSuperblockLoss drives the full loss flavor: the
// scrubber's superblock probe quarantines the shard, then the rebuild
// repairs the superblock from configuration and rejoins it.
func TestHealerRecoversSuperblockLoss(t *testing.T) {
	r, ss, keys := healShardedSetup(t)
	h := NewHealer(ss, HealConfig{ScrubInterval: time.Millisecond, ScrubSlots: 16})
	go h.Run()
	defer h.Close()

	victim := 2
	stride := core.ShardedRegionSize(core.Config{MetaSlots: 64, SlotSize: 128, DataSlots: 64, DataBufSize: 512, VerifyOnGet: true}, ss.Shards()) / ss.Shards()
	r.CorruptByte(victim*stride, 0xff)

	waitRejoin(t, h)
	if h.Stats().Rebuilds == 0 {
		t.Fatal("rejoin event fired without a rebuild on record")
	}
	if err := ss.ShardErr(victim); err != nil {
		t.Fatalf("rejoin event fired but victim still down: %v", err)
	}
	for _, k := range keys {
		v, ok, err := ss.Get([]byte(k))
		if err != nil || !ok || string(v) != "value of "+k {
			t.Fatalf("after superblock heal, %q: ok=%v err=%v v=%q", k, ok, err, v)
		}
	}
	if h.Stats().ScrubErrorsFound == 0 {
		t.Fatal("superblock loss not counted as a scrub error")
	}
}

// rawHTTP sends one request over c and returns the raw response bytes.
func rawHTTP(t *testing.T, c net.Conn, req string) []byte {
	t.Helper()
	if _, err := c.Write([]byte(req)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64<<10)
	n, err := c.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	return buf[:n]
}

// TestNetServerHealthz checks the endpoint end to end: 503 + JSON while
// a shard is down, 200 + JSON once everything serves.
func TestNetServerHealthz(t *testing.T) {
	_, ss, _ := healShardedSetup(t)
	h := NewHealer(ss, HealConfig{})
	lst, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewNetServer(lst, ShardedPktStore{S: ss})
	srv.SetHealthSource(h.Health)
	// Wire a loop source the way an event-loop deployment wires
	// Server.LoopStats, so the scheduler section rides along in the JSON.
	h.SetLoopSource(func() []Stats {
		return []Stats{{Requests: 7, Steals: 2, StolenOps: 5, StealAborts: 1, QueueDepth: 3}}
	})
	done := make(chan error, 1)
	go func() { done <- srv.Serve() }()

	ss.Quarantine(3, fmt.Errorf("injected"))
	c, err := net.Dial("tcp", lst.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	resp := rawHTTP(t, c, "GET /healthz HTTP/1.1\r\n\r\n")
	if !bytes.Contains(resp, []byte("503")) {
		t.Fatalf("healthz with a down shard: want 503, got %q", resp)
	}
	var rep HealthReport
	if i := bytes.Index(resp, []byte("\r\n\r\n")); i < 0 {
		t.Fatalf("no body in %q", resp)
	} else if err := json.Unmarshal(resp[i+4:], &rep); err != nil {
		t.Fatalf("healthz body not JSON: %v in %q", err, resp)
	}
	if rep.Ready || len(rep.Shards) != ss.Shards() || rep.Shards[3].State != "down" {
		t.Fatalf("bad report while down: %+v", rep)
	}
	if len(rep.Loops) != 1 {
		t.Fatalf("loop stats missing from healthz: %+v", rep)
	}
	if l := rep.Loops[0]; l.Requests != 7 || l.Steals != 2 || l.StolenOps != 5 || l.StealAborts != 1 || l.QueueDepth != 3 {
		t.Fatalf("loop stats mangled in healthz JSON: %+v", l)
	}

	if err := ss.Rebuild(3); err != nil {
		t.Fatal(err)
	}
	resp = rawHTTP(t, c, "GET /healthz HTTP/1.1\r\n\r\n")
	if !bytes.Contains(resp, []byte("200")) {
		t.Fatalf("healthz after rejoin: want 200, got %q", resp)
	}
	c.Close()
	srv.Close()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestNetServerShedsAtMaxConns verifies the 503 connection shed at the
// MaxConns cap.
func TestNetServerShedsAtMaxConns(t *testing.T) {
	cfg := core.Config{MetaSlots: 64, DataSlots: 64, VerifyOnGet: true}
	r := pmem.New(cfg.RegionSize(), calib.Off())
	store, err := core.Open(r, cfg)
	if err != nil {
		t.Fatal(err)
	}
	lst, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewNetServerWithConfig(lst, PktStore{S: store}, Config{MaxConns: 1})
	done := make(chan error, 1)
	go func() { done <- srv.Serve() }()

	c1, err := net.Dial("tcp", lst.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	// Prove c1 holds the slot by completing a request on it.
	resp := rawHTTP(t, c1, "PUT /k/held HTTP/1.1\r\nContent-Length: 1\r\n\r\nx")
	if !bytes.Contains(resp, []byte("200")) {
		t.Fatalf("put on first conn: %q", resp)
	}

	c2, err := net.Dial("tcp", lst.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 256)
	n, _ := c2.Read(buf)
	if !bytes.Contains(buf[:n], []byte("503")) {
		t.Fatalf("over-cap conn: want 503 shed, got %q", buf[:n])
	}
	if srv.Stats().Sheds == 0 {
		t.Fatal("shed not counted")
	}
	c2.Close()
	c1.Close()
	srv.Close()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestNetServerIdleTimeout verifies the read deadline reaps stalled
// connections.
func TestNetServerIdleTimeout(t *testing.T) {
	cfg := core.Config{MetaSlots: 64, DataSlots: 64, VerifyOnGet: true}
	r := pmem.New(cfg.RegionSize(), calib.Off())
	store, err := core.Open(r, cfg)
	if err != nil {
		t.Fatal(err)
	}
	lst, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewNetServerWithConfig(lst, PktStore{S: store}, Config{IdleTimeout: 30 * time.Millisecond})
	done := make(chan error, 1)
	go func() { done <- srv.Serve() }()

	c, err := net.Dial("tcp", lst.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	// Never write: the server must close us at the idle deadline.
	buf := make([]byte, 16)
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := c.Read(buf); err == nil {
		t.Fatal("expected the server to close the idle connection")
	}
	waitFor(t, "idle close counted", func() bool { return srv.Stats().IdleClosed > 0 })
	c.Close()
	srv.Close()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestCommitGroupDetectsMidCycleRebuild is the acked-write-loss
// regression: a rebuild between staging and commit drops the staged
// group, so the commit gate must poison the cycle and refuse the acks.
func TestCommitGroupDetectsMidCycleRebuild(t *testing.T) {
	_, ss, _ := healShardedSetup(t)
	lp := &loop{srv: &Server{engine: engine{sharded: ss}}, store: ss.Shard(1), shard: 1}
	x := lp.executorFor(lp)

	x.beginCycle()
	if err := x.store.PutStaged([]byte("staged-a"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	x.stagedOps++ // dispatch's accounting; these tests stage directly
	if !x.commitGroup() {
		t.Fatal("healthy cycle flagged bad")
	}

	x.beginCycle()
	if err := x.store.PutStaged([]byte("staged-b"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	x.stagedOps++ // dispatch's accounting; these tests stage directly
	ss.Quarantine(1, fmt.Errorf("injected"))
	if x.servingSelf() {
		t.Fatal("servingSelf true on a quarantined shard")
	}
	if err := ss.Rebuild(1); err != nil {
		t.Fatal(err)
	}
	if x.commitGroup() {
		t.Fatal("rebuild dropped the staged group but the gate passed its acks")
	}
	if _, ok, _ := x.store.Get([]byte("staged-b")); ok {
		t.Fatal("dropped staged put resurfaced")
	}

	// A shard still down at commit time also fails the gate.
	x.beginCycle()
	ss.Quarantine(1, fmt.Errorf("injected again"))
	if x.commitGroup() {
		t.Fatal("down shard passed the ack gate")
	}
	if err := ss.Rebuild(1); err != nil {
		t.Fatal(err)
	}

	// The gate re-arms once a cycle starts against the healed shard.
	x.beginCycle()
	if !x.commitGroup() {
		t.Fatal("gate failed to re-arm after the shard healed")
	}
}

// TestCommitGroupGateHoldsUnderSteal is the same acked-write gate driven
// the way a stealing loop drives it: the executing loop is not the
// shard's home loop and enters holding the ownership token. The gate's
// correctness must not depend on which goroutine (or loop) runs the
// cycle.
func TestCommitGroupGateHoldsUnderSteal(t *testing.T) {
	_, ss, _ := healShardedSetup(t)
	srv := &Server{engine: engine{sharded: ss}}
	victim := &loop{srv: srv, store: ss.Shard(1), shard: 1}
	thief := &loop{srv: srv, q: 3, shard: -1}

	x := thief.executorFor(victim)
	if x.lp != thief || x.tgt != victim || x.store != victim.store {
		t.Fatal("executor for a peer loop not aimed at the victim's shard")
	}
	if !ss.TryAcquire(victim.shard) {
		t.Fatal("uncontended token not acquired")
	}
	x.token = true
	x.beginCycle()
	if err := x.store.PutStaged([]byte("stolen-a"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	x.stagedOps++ // dispatch's accounting; this test stages directly
	ss.Quarantine(1, fmt.Errorf("injected"))
	if err := ss.Rebuild(1); err != nil {
		t.Fatal(err)
	}
	if x.commitGroup() {
		t.Fatal("mid-steal rebuild dropped the staged group but the gate passed its acks")
	}
	if x.token {
		t.Fatal("commitGroup left the ownership token held")
	}
	// The token must be free again for the home loop.
	if !ss.TryAcquire(victim.shard) {
		t.Fatal("token still held after the steal cycle resolved")
	}
	ss.Release(victim.shard)
}

// TestQuarantineWakesHealerImmediately asserts rejoin latency is
// rebuild-time-dominated, not probe-cadence-dominated: with a scrub
// interval far longer than a rebuild, the quarantine notification alone
// must start the rebuild, so the shard rejoins well before the first
// tick could have seen it.
func TestQuarantineWakesHealerImmediately(t *testing.T) {
	_, ss, _ := healShardedSetup(t)
	const interval = 300 * time.Millisecond
	h := NewHealer(ss, HealConfig{ScrubInterval: interval})
	go h.Run()
	defer h.Close()
	time.Sleep(5 * time.Millisecond) // let the heal loop park in select

	ss.Quarantine(2, fmt.Errorf("injected"))
	sample := waitRejoin(t, h)
	if err := ss.ShardErr(2); err != nil {
		t.Fatalf("rejoin event fired but shard still down: %v", err)
	}
	// The channel sample is measured by the healer itself (quarantine to
	// re-admit), so the assertion is immune to test-goroutine scheduling.
	if sample >= interval {
		t.Fatalf("rejoin took %v with a %v scrub interval — quarantine wakeup did not fire", sample, interval)
	}
	if len(h.Stats().Rejoins) == 0 {
		t.Fatal("no time-to-rejoin sample recorded")
	}
}

// TestHealerCloseIdempotent: Close must be safe to call concurrently
// and repeatedly (server shutdown paths overlap with defers).
func TestHealerCloseIdempotent(t *testing.T) {
	_, ss, _ := healShardedSetup(t)
	h := NewHealer(ss, HealConfig{ScrubInterval: time.Millisecond})
	go h.Run()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h.Close()
		}()
	}
	wg.Wait()
	h.Close()
}
