package kvserver

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"packetstore/internal/calib"
	"packetstore/internal/core"
	"packetstore/internal/host"
	"packetstore/internal/pmem"
)

// TestPickVictimDistanceAware pins the steal policy's two-pass scan
// against fabricated backlogs: same-node victims win even when a
// cross-node loop is deeper, cross-node is a fallback only, quarantined
// loops are never victims, and nothing below MinDepth is stolen from.
func TestPickVictimDistanceAware(t *testing.T) {
	mk := func(node, shard int) *loop { return &loop{node: node, shard: shard} }
	thief := mk(0, 0)
	sameShallow := mk(0, 1)
	sameDeep := mk(0, 2)
	crossDeep := mk(1, 3)
	quarantined := mk(0, -1)
	loops := []*loop{thief, sameShallow, sameDeep, crossDeep, quarantined}
	depths := map[*loop]int{}
	depth := func(lp *loop) int { return depths[lp] }

	// Same-node backlog beats a deeper cross-node one.
	depths[sameShallow], depths[sameDeep], depths[crossDeep], depths[quarantined] = 0, 5, 50, 99
	if got := pickVictim(thief, loops, 4, depth); got != sameDeep {
		t.Errorf("deep cross-node victim chosen over same-node backlog: got %p", got)
	}
	// The deepest same-node victim wins within the node.
	depths[sameShallow] = 7
	if got := pickVictim(thief, loops, 4, depth); got != sameShallow {
		t.Error("did not pick the deepest same-node victim")
	}
	// Only when no same-node backlog clears MinDepth does the thief go
	// cross-node.
	depths[sameShallow], depths[sameDeep] = 3, 3
	if got := pickVictim(thief, loops, 4, depth); got != crossDeep {
		t.Errorf("same-node victims below MinDepth should yield to cross-node: got %p", got)
	}
	// Nothing anywhere clears MinDepth: no victim. The quarantined
	// loop's fake depth of 99 must never be considered.
	depths[crossDeep] = 2
	if got := pickVictim(thief, loops, 4, depth); got != nil {
		t.Errorf("victim %p chosen with no backlog clearing MinDepth", got)
	}
}

// TestNUMAStealCrossNodeAccounting is the distance-aware scheduler's
// live property test (run under -race in CI): a 4-shard deployment on a
// modeled 2-socket machine with nearly every connection and key pinned
// to shard/queue 0 on node 0 (dial churn leaves transient backlogs on
// the other queues, so victims off queue 0 are rare but legal).
// Whatever mix of thieves ends up stealing, the counters must
// reconcile: the aggregate equals the per-loop sum, no loop counts more
// cross-steals than steals, and each loop's mix matches its side of the
// socket boundary — node-1 thieves steal mostly cross (their only
// steady victim lives on node 0), node-0 thieves mostly same-node.
func TestNUMAStealCrossNodeAccounting(t *testing.T) {
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
	nodes := []int{0, 0, 1, 1}
	if err := ss.SetNUMAPlacement(prof.NUMA, 2, nodes); err != nil {
		t.Fatal(err)
	}
	tb := host.NewTestbed(host.Options{ServerRxPools: ss.Pools(), ServerQueueNodes: nodes})
	defer tb.Close()
	srv, err := NewWithConfig(tb.Server.Stack, 80, ShardedPktStore{S: ss}, Config{
		MaxBatch: 4,
		Steal:    StealConfig{Enabled: true, MinDepth: 1, Poll: 50 * time.Microsecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	go srv.Run()
	defer srv.Close()

	nWorkers := 10
	minOps := uint64(600)
	if testing.Short() {
		nWorkers, minOps = 6, 200
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < nWorkers; w++ {
		keys := hotKeys(w, 8, shards)
		wg.Add(1)
		go func(w int, keys [][]byte) {
			defer wg.Done()
			cl, err := dialQueue(tb, 0, shards)
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
					if cl, err = dialQueue(tb, 0, shards); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w, keys)
	}
	waitFor(t, "traffic and cross-node steals", func() bool {
		st := srv.Stats()
		return st.Requests > minOps && st.Steals > 0 && st.CrossSteals > 0
	})
	close(stop)
	wg.Wait()
	if t.Failed() {
		return
	}
	// Stop the loops before reading anything: the workers' closing
	// connections still produce events a thief can steal, and the
	// reconciliations below compare separately taken snapshots.
	srv.Close()

	// The steady backlog lives on loop 0 (node 0): a thief's steal off
	// it is cross-node exactly when the thief runs on node 1. Dial
	// churn can leave a transient one-event backlog on any queue, so
	// the per-loop mix is asserted as a majority, not an equality
	// (loops with a handful of steals are too small a sample to judge).
	var sumSteals, sumCross uint64
	for q, ls := range srv.LoopStats() {
		if ls.Node != nodes[q] {
			t.Errorf("loop %d reports node %d, want %d", q, ls.Node, nodes[q])
		}
		sumSteals += ls.Steals
		sumCross += ls.CrossSteals
		if ls.CrossSteals > ls.Steals {
			t.Errorf("loop %d: cross-steals %d > steals %d", q, ls.CrossSteals, ls.Steals)
		}
		if ls.Steals < 8 {
			continue
		}
		switch nodes[q] {
		case 0:
			if 2*ls.CrossSteals > ls.Steals {
				t.Errorf("node-0 loop %d: %d of %d steals cross-node despite the same-node victim", q, ls.CrossSteals, ls.Steals)
			}
		case 1:
			if 2*ls.CrossSteals < ls.Steals {
				t.Errorf("node-1 loop %d: only %d of %d steals counted cross-node", q, ls.CrossSteals, ls.Steals)
			}
		}
	}
	st := srv.Stats()
	if st.Steals != sumSteals || st.CrossSteals != sumCross {
		t.Errorf("aggregate steals %d/%d do not reconcile with per-loop sums %d/%d",
			st.Steals, st.CrossSteals, sumSteals, sumCross)
	}
	if st.Steals == 0 {
		t.Fatal("no cycles stolen under maximal skew")
	}

	// The healthz report carries the placement section: node count, the
	// reconciled cross-steal total, and the region's line counters.
	h := NewHealer(ss, HealConfig{ScrubInterval: time.Hour})
	go h.Run()
	defer h.Close()
	h.SetLoopSource(srv.LoopStats)
	rep := h.Health()
	if rep.NUMA == nil {
		t.Fatal("healthz report missing numa section on a 2-node deployment")
	}
	if rep.NUMA.Nodes != 2 {
		t.Errorf("healthz numa nodes = %d, want 2", rep.NUMA.Nodes)
	}
	if rep.NUMA.CrossSteals != sumCross {
		t.Errorf("healthz cross-steals = %d, want %d", rep.NUMA.CrossSteals, sumCross)
	}
	rs := r.Stats()
	if rep.NUMA.LocalLines != rs.LocalLines || rep.NUMA.RemoteLines != rs.RemoteLines {
		t.Errorf("healthz line counters %d/%d, want %d/%d",
			rep.NUMA.LocalLines, rep.NUMA.RemoteLines, rs.LocalLines, rs.RemoteLines)
	}
	if sumCross > 0 && rs.RemoteLines == 0 {
		t.Error("cross-node steals happened but no remote lines were charged")
	}
	t.Logf("requests=%d steals=%d cross=%d localLines=%d remoteLines=%d",
		st.Requests, st.Steals, st.CrossSteals, rs.LocalLines, rs.RemoteLines)
}
