package kvserver

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"packetstore/internal/calib"
	"packetstore/internal/core"
	"packetstore/internal/host"
	"packetstore/internal/kvclient"
	"packetstore/internal/nic"
	"packetstore/internal/pmem"
)

// dialQueue dials until the client's ephemeral port RSS-hashes to the
// wanted server queue, closing mismatches — the test's handle on
// connection-placement skew.
func dialQueue(tb *host.Testbed, want, queues int) (*kvclient.Client, error) {
	var lastErr error
	for i := 0; i < 2048; i++ {
		c, err := tb.Dial(80)
		if err != nil {
			// The hot loop also drains accepts; under a redial storm its
			// backlog can overflow and reset the handshake. Transient —
			// back off and retry.
			lastErr = err
			time.Sleep(200 * time.Microsecond)
			continue
		}
		ip, port := c.LocalAddr()
		if nic.RSSQueue(ip, tb.Server.IP, port, 80, queues) == want {
			cl := kvclient.New(c)
			cl.SetTimeout(2 * time.Second)
			return cl, nil
		}
		c.Close()
	}
	return nil, fmt.Errorf("no connection landed on queue %d (last dial error: %v)", want, lastErr)
}

// shardKeys builds n keys for one worker that all hash to shard, so a
// connection on that shard's queue PUTs them zero-copy.
func shardKeys(worker, n, shard, shards int) [][]byte {
	var out [][]byte
	for i := 0; len(out) < n; i++ {
		k := []byte(fmt.Sprintf("skew-%d-%03d", worker, i))
		if core.ShardOf(k, shards) == shard {
			out = append(out, k)
		}
	}
	return out
}

// skewWorker drives one hot connection with a seeded Zipf key pick and
// tracks, per key, the set of states the store may legitimately hold:
// an acked PUT collapses the set to the new value; an errored PUT (503,
// reset, timeout) leaves both old and new permissible — the retryable-
// indeterminate window of the acked-prefix contract.
type skewWorker struct {
	id    int
	keys  [][]byte
	cands map[string][][]byte // key -> permissible values; nil entry = absent
}

func (w *skewWorker) run(t *testing.T, tb *host.Testbed, queues int, stop <-chan struct{}, wg *sync.WaitGroup) {
	defer wg.Done()
	rng := rand.New(rand.NewSource(int64(0xbeef + w.id)))
	zipf := rand.NewZipf(rng, 1.3, 1, uint64(len(w.keys)-1))
	cl, err := dialQueue(tb, 0, queues)
	if err != nil {
		t.Error(err)
		return
	}
	defer func() {
		if cl != nil {
			cl.Close()
		}
	}()
	redial := func() bool {
		cl.Close()
		cl, err = dialQueue(tb, 0, queues)
		if err != nil {
			t.Error(err)
			return false
		}
		return true
	}
	for i := 0; ; i++ {
		select {
		case <-stop:
			return
		default:
		}
		key := w.keys[zipf.Uint64()]
		ks := string(key)
		if rng.Intn(100) < 60 {
			v := []byte(fmt.Sprintf("w%d-i%d-%0*d", w.id, i, 1+rng.Intn(200), 0))
			if len(w.cands[ks]) == 0 {
				// Preserve the absent pre-state: if this first PUT is not
				// acked, a 404 stays legal.
				w.cands[ks] = [][]byte{nil}
			}
			w.cands[ks] = append(w.cands[ks], v)
			if err := cl.Put(key, v); err != nil {
				if !redial() {
					return
				}
				continue
			}
			// Acked: the write is durable and current.
			w.cands[ks] = [][]byte{v}
		} else {
			v, ok, err := cl.Get(key)
			if err != nil {
				if !redial() {
					return
				}
				continue
			}
			if !w.permitted(ks, v, ok) {
				t.Errorf("worker %d: GET %q = %q (ok=%v) not among permissible states", w.id, ks, v, ok)
				return
			}
		}
	}
}

// permitted reports whether an observed read matches some permissible
// state for the key.
func (w *skewWorker) permitted(key string, v []byte, ok bool) bool {
	cands := w.cands[key]
	if len(cands) == 0 {
		return !ok // never written: only absence is legal
	}
	for _, c := range cands {
		if c == nil {
			if !ok {
				return true
			}
			continue
		}
		if ok && bytes.Equal(c, v) {
			return true
		}
	}
	return false
}

// TestSkewedPropertyWithRebuild drives maximal skew — every connection
// on queue 0, every key on shard 0 — while the hot shard is quarantined
// and rebuilt twice mid-run, exercising the epoch ack gate under live
// group commits. The store must end consistent with the per-key model
// (acked writes current, unacked writes old-or-new), and the counters
// must reconcile: loop 0 served every request and the idle loops none.
// Run under -race in CI.
func TestSkewedPropertyWithRebuild(t *testing.T) {
	cfg := core.Config{
		MetaSlots: 512, SlotSize: 128, DataSlots: 512, DataBufSize: 2048,
		ChecksumReuse: true, VerifyOnGet: true,
	}
	const shards = 4
	r := pmem.New(core.ShardedRegionSize(cfg, shards), calib.Off())
	ss, err := core.OpenSharded(r, cfg, shards)
	if err != nil {
		t.Fatal(err)
	}
	tb := host.NewTestbed(host.Options{ServerRxPools: ss.Pools()})
	defer tb.Close()
	srv, err := NewWithConfig(tb.Server.Stack, 80, ShardedPktStore{S: ss}, Config{MaxBatch: 4})
	if err != nil {
		t.Fatal(err)
	}
	go srv.Run()
	defer srv.Close()

	nWorkers, nKeys := 10, 8
	minOps := uint64(600)
	if testing.Short() {
		nWorkers, minOps = 6, 200
	}
	workers := make([]*skewWorker, nWorkers)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := range workers {
		workers[i] = &skewWorker{id: i, keys: shardKeys(i, nKeys, 0, shards), cands: make(map[string][][]byte)}
		wg.Add(1)
		go workers[i].run(t, tb, shards, stop, &wg)
	}
	waitFor(t, "warmup traffic", func() bool { return srv.Stats().Requests > minOps/2 })

	// Two mid-run rebuilds of the hot shard: each drops whatever was
	// staged-unacked and bumps the epoch under live traffic.
	for round := 0; round < 2; round++ {
		ss.Quarantine(0, fmt.Errorf("injected round %d", round))
		time.Sleep(2 * time.Millisecond)
		if err := ss.Rebuild(0); err != nil {
			t.Fatal(err)
		}
		time.Sleep(2 * time.Millisecond)
	}

	waitFor(t, "post-rebuild traffic", func() bool { return srv.Stats().Requests > minOps })
	close(stop)
	wg.Wait()
	if t.Failed() {
		return
	}
	// Stop the loops so the snapshots below are taken at rest.
	srv.Close()

	// Ground truth: every key's stored state must be one the model
	// permits.
	for _, w := range workers {
		for _, key := range w.keys {
			v, ok, err := ss.Get(key)
			if err != nil {
				t.Fatalf("final GET %q: %v", key, err)
			}
			if !w.permitted(string(key), v, ok) {
				t.Errorf("worker %d: final state of %q = %q (ok=%v) not among permissible states", w.id, key, v, ok)
			}
		}
	}
	st := srv.Stats()
	var sum Stats
	for q, ls := range srv.LoopStats() {
		sum.merge(ls)
		if q != 0 && ls.Requests != 0 {
			t.Errorf("loop %d served %d requests; every connection is on queue 0", q, ls.Requests)
		}
	}
	if sum.Requests != st.Requests || sum.Puts != st.Puts || sum.Gets != st.Gets {
		t.Errorf("aggregate %d/%d/%d requests/puts/gets do not reconcile with per-loop sums %d/%d/%d",
			st.Requests, st.Puts, st.Gets, sum.Requests, sum.Puts, sum.Gets)
	}
	if st.Puts+st.Gets > st.Requests {
		t.Errorf("puts %d + gets %d exceed requests %d", st.Puts, st.Gets, st.Requests)
	}
	if st.ZeroCopyPuts == 0 || st.ZeroCopyPuts > st.Puts || st.ZeroCopyFallbacks != 0 {
		t.Errorf("zero-copy puts %d of %d with %d fallbacks: every hot PUT lands in shard 0's pool",
			st.ZeroCopyPuts, st.Puts, st.ZeroCopyFallbacks)
	}
	t.Logf("requests=%d puts=%d zcPuts=%d ackAborts=%d errors=%d",
		st.Requests, st.Puts, st.ZeroCopyPuts, st.AckAborts, st.Errors)
}
