package pmem

import (
	"testing"
	"time"

	"packetstore/internal/calib"
)

// numaProfile returns a region profile with tiny but distinct local
// rates, and the matching remote rates. The delays are nanoseconds so
// the emulation spin is negligible while the accounting stays exact.
func numaProfile() calib.Profile {
	return calib.Profile{
		Name:        "numa-test",
		PMReadLine:  10 * time.Nanosecond,
		PMWriteLine: 4 * time.Nanosecond,
		PMFlushLine: 8 * time.Nanosecond,
		NUMA: calib.NUMAProfile{
			RemoteReadLine:  25 * time.Nanosecond,
			RemoteWriteLine: 10 * time.Nanosecond,
			RemoteFlushLine: 20 * time.Nanosecond,
			HopCost:         5 * time.Nanosecond,
		},
	}
}

// twoNode carves a fresh region into two 2KB halves: lines in
// [0, 2048) on node 0, [2048, 4096) on node 1.
func twoNode(t *testing.T) *Region {
	t.Helper()
	p := numaProfile()
	r := New(4096, p)
	r.SetNUMA(2, p.NUMA, []NodeRange{
		{Off: 0, Len: 2048, Node: 0},
		{Off: 2048, Len: 2048, Node: 1},
	})
	return r
}

func lineDelta(t *testing.T, r *Region, before Stats, wantLocal, wantRemote uint64) Stats {
	t.Helper()
	after := r.Stats()
	if got := after.LocalLines - before.LocalLines; got != wantLocal {
		t.Errorf("local lines += %d, want %d", got, wantLocal)
	}
	if got := after.RemoteLines - before.RemoteLines; got != wantRemote {
		t.Errorf("remote lines += %d, want %d", got, wantRemote)
	}
	return after
}

func TestNUMANodeTable(t *testing.T) {
	r := twoNode(t)
	if r.NUMANodes() != 2 {
		t.Fatalf("NUMANodes = %d, want 2", r.NUMANodes())
	}
	for _, tc := range []struct{ off, node int }{
		{0, 0}, {2047, 0}, {2048, 1}, {4095, 1},
	} {
		if got := r.NodeAt(tc.off); got != tc.node {
			t.Errorf("NodeAt(%d) = %d, want %d", tc.off, got, tc.node)
		}
	}
	// Uncovered lines default to node 0; partial ranges own whole lines.
	p := numaProfile()
	r2 := New(4096, p)
	r2.SetNUMA(2, p.NUMA, []NodeRange{{Off: 100, Len: 10, Node: 1}})
	if got := r2.NodeAt(64); got != 1 {
		t.Errorf("partial range should own its whole line: NodeAt(64) = %d", got)
	}
	if got := r2.NodeAt(0); got != 0 {
		t.Errorf("uncovered line NodeAt(0) = %d, want 0", got)
	}
	if got := r2.NodeAt(128); got != 0 {
		t.Errorf("uncovered line NodeAt(128) = %d, want 0", got)
	}
	// Removing the model restores the flat view.
	r2.SetNUMA(1, p.NUMA, nil)
	if r2.NUMANodes() != 1 || r2.NodeAt(64) != 0 {
		t.Error("SetNUMA(1) did not clear the model")
	}
}

// on stamps the region's default handle with the accessing node.
func on(r *Region, node int) *Region {
	r.SetNode(node)
	return r
}

func TestNUMATouchReadWriteAttribution(t *testing.T) {
	r := twoNode(t)
	p := numaProfile()

	// Local touch: 2 lines on node 0 from node 0.
	st := r.Stats()
	on(r, 0).Touch(0, 2*LineSize)
	st = lineDelta(t, r, st, 2, 0)

	// Remote touch: 2 lines on node 1 from node 0; the surcharge is
	// exactly (remote - local) per line.
	on(r, 0).Touch(2048, 2*LineSize)
	after := lineDelta(t, r, st, 0, 2)
	wantExtra := 2 * (p.NUMA.RemoteReadLine - p.PMReadLine)
	if got := after.RemoteExtra - st.RemoteExtra; got != wantExtra {
		t.Errorf("touch RemoteExtra += %v, want %v", got, wantExtra)
	}

	// The same lines from their own node are local again.
	st = r.Stats()
	on(r, 1).Touch(2048, 2*LineSize)
	st = lineDelta(t, r, st, 2, 0)

	// Read and Write attribute by span the same way.
	buf := make([]byte, LineSize)
	on(r, 1).Read(buf, 0) // node-0 line from node 1: remote
	st = lineDelta(t, r, st, 0, 1)
	on(r, 0).Write(0, buf) // node-0 line from node 0: local
	st = lineDelta(t, r, st, 1, 0)
	on(r, 1).Write(0, buf) // node-0 line from node 1: remote
	after = lineDelta(t, r, st, 0, 1)
	if got := after.RemoteExtra - st.RemoteExtra; got != p.NUMA.RemoteWriteLine-p.PMWriteLine {
		t.Errorf("write RemoteExtra += %v, want %v", got, p.NUMA.RemoteWriteLine-p.PMWriteLine)
	}
}

func TestNUMAFlushAttribution(t *testing.T) {
	r := twoNode(t)
	p := numaProfile()
	buf := make([]byte, 2*LineSize)

	// Dirty two node-1 lines (writing from node 1, local), then flush
	// them from node 0: the flush is charged remote per freshly-flushed
	// dirty line.
	on(r, 1).Write(2048, buf)
	st := r.Stats()
	on(r, 0).Flush(2048, len(buf))
	after := lineDelta(t, r, st, 0, 2)
	if got := after.RemoteExtra - st.RemoteExtra; got != 2*(p.NUMA.RemoteFlushLine-p.PMFlushLine) {
		t.Errorf("flush RemoteExtra += %v, want %v", got, 2*(p.NUMA.RemoteFlushLine-p.PMFlushLine))
	}
	// Re-flushing clean lines charges (and counts) nothing.
	st = r.Stats()
	on(r, 0).Flush(2048, len(buf))
	lineDelta(t, r, st, 0, 0)
	r.Fence()

	// Persist = flush + fence, same per-line accounting, local side.
	on(r, 1).Write(2048+len(buf), buf)
	st = r.Stats()
	on(r, 1).Persist(2048+len(buf), len(buf))
	lineDelta(t, r, st, 2, 0)
}

func TestNUMAFlushBatchAttribution(t *testing.T) {
	r := twoNode(t)
	p := numaProfile()
	buf := make([]byte, LineSize)

	// One dirty line on each node, flushed as one batch from node 0:
	// one local, one remote.
	on(r, 0).Write(0, buf)
	on(r, 1).Write(2048, buf)
	var fs FlushSet
	fs.Add(0, LineSize)
	fs.Add(2048, LineSize)
	st := r.Stats()
	bs := on(r, 0).FlushBatch(&fs)
	if bs.Flushed != 2 {
		t.Fatalf("batch flushed %d lines, want 2", bs.Flushed)
	}
	after := lineDelta(t, r, st, 1, 1)
	if got := after.RemoteExtra - st.RemoteExtra; got != p.NUMA.RemoteFlushLine-p.PMFlushLine {
		t.Errorf("batch RemoteExtra += %v, want %v", got, p.NUMA.RemoteFlushLine-p.PMFlushLine)
	}
	r.Fence()
}

func TestNUMATouchLinesAttribution(t *testing.T) {
	r := twoNode(t)
	// TouchLines attributes the whole batch to the node owning the
	// line at off (batched reads stay within one shard's partition).
	st := r.Stats()
	on(r, 0).TouchLines(2048, 3)
	st = lineDelta(t, r, st, 0, 3)
	on(r, 1).TouchLines(2048, 3)
	lineDelta(t, r, st, 3, 0)
}

func TestNUMALocalPlusRemoteEqualsTotal(t *testing.T) {
	r := twoNode(t)
	buf := make([]byte, 4*LineSize)
	// 4 touched + 4 read + 4 written + 4 flushed = 16 charged lines, from
	// alternating callers; every one must land in exactly one counter.
	on(r, 0).Touch(0, len(buf))
	on(r, 1).Read(buf, 2048)
	on(r, 0).Write(1024, buf)
	on(r, 1).Flush(1024, len(buf))
	r.Fence()
	st := r.Stats()
	if total := st.LocalLines + st.RemoteLines; total != 16 {
		t.Fatalf("local %d + remote %d = %d charged lines, want 16",
			st.LocalLines, st.RemoteLines, total)
	}
}

func TestNUMAHopCost(t *testing.T) {
	p := numaProfile()
	r := New(4096, p)
	r.SetNUMA(4, p.NUMA, []NodeRange{{Off: 0, Len: 4096, Node: 3}})
	st := r.Stats()
	on(r, 0).Touch(0, LineSize) // distance 3: remote + 2 extra hops
	after := r.Stats()
	want := p.NUMA.RemoteReadLine + 2*p.NUMA.HopCost - p.PMReadLine
	if got := after.RemoteExtra - st.RemoteExtra; got != want {
		t.Errorf("3-hop RemoteExtra = %v, want %v", got, want)
	}
	st = after
	on(r, 2).Touch(0, LineSize) // distance 1: no hop surcharge
	after = r.Stats()
	if got := after.RemoteExtra - st.RemoteExtra; got != p.NUMA.RemoteReadLine-p.PMReadLine {
		t.Errorf("1-hop RemoteExtra = %v, want %v", got, p.NUMA.RemoteReadLine-p.PMReadLine)
	}
}

func TestNUMAZeroRemoteRatesFallBackToLocal(t *testing.T) {
	// An all-zero NUMA profile (the off model) still counts remote lines
	// but charges no surcharge: orLocal keeps remote == local.
	r := New(4096, off())
	r.SetNUMA(2, calib.NUMAProfile{}, []NodeRange{{Off: 2048, Len: 2048, Node: 1}})
	on(r, 0).Touch(2048, 2*LineSize)
	st := r.Stats()
	if st.RemoteLines != 2 {
		t.Errorf("remote lines = %d, want 2", st.RemoteLines)
	}
	if st.RemoteExtra != 0 {
		t.Errorf("zero-rate model charged RemoteExtra %v", st.RemoteExtra)
	}
}

// TestNUMANodes1IsNoOp runs the same operation sequence against a region
// that never heard of NUMA and one with the model explicitly removed:
// the emulated charge must match to the nanosecond and no line counters
// may move — the Nodes=1 strict no-op guarantee.
func TestNUMANodes1IsNoOp(t *testing.T) {
	p := numaProfile()
	plain := New(8192, p)
	cleared := New(8192, p)
	cleared.SetNUMA(1, p.NUMA, nil)

	run := func(r *Region) Stats {
		buf := make([]byte, 3*LineSize)
		var fs FlushSet
		for i := 0; i < 8; i++ {
			off := (i * 512) % (8192 - len(buf))
			r.Write(off, buf)
			r.Touch(off, len(buf))
			r.Read(buf, off)
			r.Flush(off, len(buf))
			r.Fence()
			r.Write(off, buf)
			fs.Add(off, len(buf))
			r.FlushBatch(&fs)
			r.Fence()
			r.TouchLines(off, 4)
		}
		return r.Stats()
	}
	sp, sc := run(plain), run(cleared)
	if sp.Charged != sc.Charged {
		t.Errorf("Nodes=1 changed the emulated charge: %v (plain) vs %v (cleared)", sp.Charged, sc.Charged)
	}
	if sc.LocalLines != 0 || sc.RemoteLines != 0 || sc.RemoteExtra != 0 {
		t.Errorf("Nodes=1 region kept NUMA counters: %+v", sc)
	}
	if sp.Flushes != sc.Flushes || sp.Reads != sc.Reads || sp.Writes != sc.Writes {
		t.Errorf("op counters diverged: %+v vs %+v", sp, sc)
	}
}
