package kvserver

import (
	"fmt"
	"sync"
	"testing"

	"packetstore/internal/calib"
	"packetstore/internal/core"
	"packetstore/internal/host"
	"packetstore/internal/pmem"
)

// TestNUMALoopNodeAccounting drives every queue of a 4-shard deployment
// on a modeled 2-socket machine whose loops are declared half on their
// shard's node and half on the other one (Config.LoopNodes). Each loop
// must report its declared node, both local and remote lines must be
// charged, and the /healthz numa section — built by the server, no
// healer installed — must equal the region's line counters. Run under
// -race in CI.
func TestNUMALoopNodeAccounting(t *testing.T) {
	cfg := core.Config{
		MetaSlots: 512, SlotSize: 128, DataSlots: 512, DataBufSize: 2048,
		ChecksumReuse: true, VerifyOnGet: true,
	}
	const shards = 4
	prof := calib.Off()
	r := pmem.New(core.ShardedRegionSize(cfg, shards), prof)
	ss, err := core.OpenSharded(r, cfg, shards)
	if err != nil {
		t.Fatal(err)
	}
	if err := ss.SetNUMAPlacement(prof.NUMA, 2, []int{0, 0, 1, 1}); err != nil {
		t.Fatal(err)
	}
	loopNodes := []int{0, 1, 1, 0} // loops 0 and 2 local to their shard, 1 and 3 remote
	tb := host.NewTestbed(host.Options{ServerRxPools: ss.Pools()})
	defer tb.Close()
	srv, err := NewWithConfig(tb.Server.Stack, 80, ShardedPktStore{S: ss}, Config{
		MaxBatch: 4, LoopNodes: loopNodes,
	})
	if err != nil {
		t.Fatal(err)
	}
	go srv.Run()
	defer srv.Close()

	nWorkers, minOps := 8, uint64(600)
	if testing.Short() {
		minOps = 200
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < nWorkers; w++ {
		q := w % shards
		keys := shardKeys(w, 8, q, shards)
		wg.Add(1)
		go func(w, q int, keys [][]byte) {
			defer wg.Done()
			cl, err := dialQueue(tb, q, shards)
			if err != nil {
				t.Error(err)
				return
			}
			defer func() { cl.Close() }()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				v := []byte(fmt.Sprintf("w%d-i%d", w, i))
				if err := cl.Put(keys[i%len(keys)], v); err != nil {
					cl.Close()
					if cl, err = dialQueue(tb, q, shards); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w, q, keys)
	}
	waitFor(t, "traffic on every loop", func() bool {
		for _, ls := range srv.LoopStats() {
			if ls.Requests < minOps/shards {
				return false
			}
		}
		return true
	})
	close(stop)
	wg.Wait()
	if t.Failed() {
		return
	}
	// Stop the loops so the report and the region counters are read at
	// rest.
	srv.Close()

	for q, ls := range srv.LoopStats() {
		if ls.Node != loopNodes[q] {
			t.Errorf("loop %d reports node %d, want %d", q, ls.Node, loopNodes[q])
		}
	}
	rep := srv.Health()
	if rep.NUMA == nil {
		t.Fatal("healthz report missing numa section on a 2-node deployment")
	}
	if rep.NUMA.Nodes != 2 {
		t.Errorf("healthz numa nodes = %d, want 2", rep.NUMA.Nodes)
	}
	rs := r.Stats()
	if rep.NUMA.LocalLines != rs.LocalLines || rep.NUMA.RemoteLines != rs.RemoteLines {
		t.Errorf("healthz line counters %d/%d, want %d/%d",
			rep.NUMA.LocalLines, rep.NUMA.RemoteLines, rs.LocalLines, rs.RemoteLines)
	}
	if rs.LocalLines == 0 || rs.RemoteLines == 0 {
		t.Errorf("local/remote lines %d/%d: loops on both sides of the socket boundary must charge both",
			rs.LocalLines, rs.RemoteLines)
	}
	t.Logf("requests=%d localLines=%d remoteLines=%d", srv.Stats().Requests, rs.LocalLines, rs.RemoteLines)
}
