package pmem

import (
	"bytes"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"packetstore/internal/calib"
)

// TestDomainFenceIsIssuerScoped is the strictness check: the simulator
// must not be more forgiving than hardware. Domain A writes and flushes a
// line and never fences; domain B writes, flushes and fences. B's fence
// must not retire A's line — an sfence orders only the issuing core's
// clwbs — so A's line stays pending and a crash may lose it.
func TestDomainFenceIsIssuerScoped(t *testing.T) {
	pat := bytes.Repeat([]byte{0xAB}, LineSize)
	lostA := 0
	for seed := int64(0); seed < 64; seed++ {
		r := New(2*domainAlign, off())
		a, b := r.Carve(0, domainAlign), r.Carve(domainAlign, domainAlign)
		a.Write(0, pat)
		a.Flush(0, LineSize) // the fence is "forgotten"
		b.Write(domainAlign, pat)
		b.Flush(domainAlign, LineSize)
		b.Fence()
		if got := r.PendingLines(); got != 1 {
			t.Fatalf("PendingLines = %d after B's fence, want 1 (A's unfenced line)", got)
		}
		r.Crash(seed)
		if !bytes.Equal(r.Slice(domainAlign, LineSize), pat) {
			t.Fatalf("seed %d: B's fenced line lost", seed)
		}
		if !bytes.Equal(r.Slice(0, LineSize), pat) {
			lostA++
		}
	}
	if lostA == 0 {
		t.Fatal("A's flushed-but-unfenced line survived all 64 crashes: a neighbour's fence retired it")
	}
}

// TestDomainFenceCoversForeignLines: a handle's fence retires the lines
// it flushed in another domain's range (a shard's parity lines), at line
// granularity — a neighbour's line in the same bitset word stays pending.
func TestDomainFenceCoversForeignLines(t *testing.T) {
	r := New(3*domainAlign, off())
	a, b := r.Carve(0, domainAlign), r.Carve(domainAlign, domainAlign)
	par := 2 * domainAlign // a third range both flush into
	r.Carve(par, domainAlign)
	pat := bytes.Repeat([]byte{0x5C}, LineSize)
	a.Write(par, pat)
	b.Write(par+LineSize, pat)
	a.Flush(par, LineSize)
	b.Flush(par+LineSize, LineSize)
	a.Fence()
	if got := r.PendingLines(); got != 1 {
		t.Fatalf("PendingLines = %d after A's fence, want 1 (B's line in the same word)", got)
	}
	// A line already pending joins a second flusher's fence too.
	b.Flush(par+LineSize, LineSize)
	if st := r.Stats(); st.WastedFlushes != 1 {
		t.Fatalf("WastedFlushes = %d, want 1", st.WastedFlushes)
	}
	b.Fence()
	if d, p := r.DirtyLines(), r.PendingLines(); d != 0 || p != 0 {
		t.Fatalf("dirty %d pending %d after both fences", d, p)
	}
	r.Crash(1)
	if !bytes.Equal(r.Slice(par, 2*LineSize), append(pat, pat...)) {
		t.Fatal("fenced foreign lines lost")
	}
}

// TestDomainFenceSkipsStaleEntries: a line two handles flushed is retired
// by the first of their fences; the second handle's entry is then stale
// and must not retire a later write-back of the line that a third handle
// has flushed and not fenced.
func TestDomainFenceSkipsStaleEntries(t *testing.T) {
	v1, v2 := bytes.Repeat([]byte{1}, LineSize), bytes.Repeat([]byte{2}, LineSize)
	lost := 0
	for seed := int64(0); seed < 64; seed++ {
		r := New(3*domainAlign, off())
		a, b := r.Carve(0, domainAlign), r.Carve(domainAlign, domainAlign)
		par := 2 * domainAlign
		a.Write(par, v1)
		a.Flush(par, LineSize)
		b.Flush(par, LineSize) // already pending: joins B's list
		a.Fence()              // retires it; B's entry goes stale
		r.Write(par, v2)
		r.Flush(par, LineSize) // a third core's write-back, never fenced
		b.Fence()
		if got := r.PendingLines(); got != 1 {
			t.Fatalf("PendingLines = %d after B's fence, want 1 (the third handle's write-back)", got)
		}
		r.Crash(seed)
		switch got := r.Slice(par, LineSize); {
		case bytes.Equal(got, v1):
			lost++
		case !bytes.Equal(got, v2):
			t.Fatalf("seed %d: line is neither version", seed)
		}
	}
	if lost == 0 {
		t.Fatal("the unfenced rewrite survived all 64 crashes: a stale entry retired it")
	}
}

func TestCarve(t *testing.T) {
	r := New(4*domainAlign, off())
	a := r.Carve(domainAlign, domainAlign)
	if r.Carve(domainAlign, domainAlign) != a {
		t.Error("re-carving the same range returned a new handle")
	}
	c := r.Carve(3*domainAlign, domainAlign)
	if o, end := r.extent(0); o != &r.Domain || end != domainAlign/LineSize {
		t.Errorf("line 0: owner default=%v end %d", o == &r.Domain, end)
	}
	if o, _ := c.extent(domainAlign / LineSize); o != a {
		t.Error("carved line not owned by its domain")
	}
	if o, end := a.extent(2 * domainAlign / LineSize); o != &r.Domain || end != 3*domainAlign/LineSize {
		t.Error("gap between carved ranges not owned by the default domain")
	}
	mustPanic(t, func() { r.Carve(domainAlign, 2*domainAlign) })                     // overlap
	mustPanic(t, func() { r.Carve(0, LineSize) })                                    // unaligned
	mustPanic(t, func() { r.Write(domainAlign-8, make([]byte, 16)) })                // straddles
	mustPanic(t, func() { a.DMA(2*domainAlign-LineSize, make([]byte, 2*LineSize)) }) // straddles
	// A batch may run through several ranges.
	var fs FlushSet
	r.DMA(domainAlign-LineSize, make([]byte, LineSize))
	r.DMA(domainAlign, make([]byte, LineSize))
	fs.Add(domainAlign-LineSize, 2*LineSize)
	if bs := a.FlushBatch(&fs); bs.Flushed != 2 {
		t.Errorf("straddling batch flushed %d lines, want 2", bs.Flushed)
	}
	a.Fence()
	if p := r.PendingLines(); p != 0 {
		t.Errorf("pending %d after fence", p)
	}
}

// TestDomainHookSeesOneOrder: while a hook is installed, persist ops of
// every domain are cut points of one sequence, and a cut freezes every
// domain.
func TestDomainHookSeesOneOrder(t *testing.T) {
	r := New(2*domainAlign, off())
	a, b := r.Carve(0, domainAlign), r.Carve(domainAlign, domainAlign)
	var ops []PersistOp
	r.SetPersistHook(func(op PersistOp) PersistDecision {
		ops = append(ops, op)
		return PersistDecision{Cut: len(ops) == 4}
	})
	pat := bytes.Repeat([]byte{7}, LineSize)
	a.Write(0, pat)
	b.Write(domainAlign, pat)
	a.Flush(0, LineSize)
	b.Flush(domainAlign, LineSize)
	a.Fence()
	b.Fence() // cut: B's line stays in the undefined window
	if !slices.Equal(ops, []PersistOp{OpFlush, OpFlush, OpFence, OpFence}) {
		t.Fatalf("hook saw %v", ops)
	}
	if !r.PowerFailed() {
		t.Fatal("cut did not fail the power")
	}
	a.Write(LineSize, pat)
	a.Persist(LineSize, LineSize) // after the cut: no durable effect
	if len(ops) != 4 {
		t.Fatalf("hook consulted after the cut: %v", ops)
	}
	r.Crash(3)
	if !bytes.Equal(r.Slice(0, LineSize), pat) {
		t.Error("A's line, fenced before the cut, lost")
	}
	if bytes.Equal(r.Slice(LineSize, LineSize), pat) {
		t.Error("a line persisted after the power cut survived")
	}
}

// TestDomainsConcurrent drives N domains from N goroutines while a NIC
// goroutine DMAs into their ranges and another polls Stats; run under
// -race. Every counter must sum exactly.
func TestDomainsConcurrent(t *testing.T) {
	const workers, rounds = 4, 400
	prof := calib.Profile{PMReadLine: 3, PMWriteLine: 2, PMFlushLine: 5, PMFence: 7} // below latency's spin floor
	r := New(workers*domainAlign, prof)
	doms := make([]*Domain, workers)
	for i := range doms {
		doms[i] = r.Carve(i*domainAlign, domainAlign)
	}
	const dmaZone = domainAlign / 2 // second half of each range takes DMA
	var stop atomic.Bool
	var side, wg sync.WaitGroup
	side.Add(2)
	go func() { // NIC DMA through the default handle
		defer side.Done()
		frame := make([]byte, LineSize)
		for i := 0; !stop.Load(); i++ {
			frame[0] = byte(i)
			r.DMA((i%workers)*domainAlign+dmaZone+(i%8)*LineSize, frame)
			runtime.Gosched()
		}
	}()
	go func() {
		defer side.Done()
		var last Stats
		for !stop.Load() {
			st := r.Stats()
			if st.Fences < last.Fences || st.LinesFlushed < last.LinesFlushed {
				t.Error("Stats went backwards")
			}
			last = st
			runtime.Gosched()
		}
	}()
	var want [workers]Stats
	buf := make([]byte, 3*LineSize)
	for w := range doms {
		wg.Add(1)
		go func(w int, d *Domain) {
			defer wg.Done()
			st, base := &want[w], w*domainAlign
			var fs FlushSet
			for i := 0; i < rounds; i++ {
				off := base + (i%8)*len(buf)
				d.Write(off, buf)
				st.Writes++
				st.BytesWritten += uint64(len(buf))
				st.Charged += 3 * prof.PMWriteLine
				d.Flush(off, len(buf))
				st.Flushes++
				st.LinesFlushed += 3
				st.Charged += 3 * prof.PMFlushLine
				fs.Add(base+dmaZone, 8*LineSize)
				bs := d.FlushBatch(&fs)
				st.Flushes++
				st.BatchFlushes++
				st.LinesFlushed += uint64(bs.Flushed)
				st.WastedFlushes += uint64(bs.Wasted)
				st.Charged += time.Duration(bs.Flushed) * prof.PMFlushLine
				d.Fence()
				st.Fences++
				st.Charged += prof.PMFence
				st.Stalls++ // the write, both flushes and the fence
				d.Touch(off, len(buf))
				st.Reads += 3
				st.Charged += 3 * prof.PMReadLine
				st.Stalls++
			}
		}(w, doms[w])
	}
	wg.Wait()
	stop.Store(true)
	side.Wait()
	var sum Stats
	for w, d := range doms { // drain what the NIC left dirty
		var fs FlushSet
		fs.Add(w*domainAlign+dmaZone, 8*LineSize)
		bs := d.FlushBatch(&fs)
		d.Fence()
		sum.add(&want[w])
		sum.Flushes++
		sum.BatchFlushes++
		sum.Fences++
		sum.Stalls++
		sum.LinesFlushed += uint64(bs.Flushed)
		sum.Charged += time.Duration(bs.Flushed)*prof.PMFlushLine + prof.PMFence
	}
	if got := r.Stats(); got != sum {
		t.Errorf("Stats() = %+v\nworkers issued %+v", got, sum)
	}
	if d, p := r.DirtyLines(), r.PendingLines(); d != 0 || p != 0 {
		t.Errorf("dirty %d pending %d at the end", d, p)
	}
}

// TestStatsAddCoversEveryField: Region.Stats sums the domains through
// Stats.add, so a counter add forgets silently vanishes from the totals.
func TestStatsAddCoversEveryField(t *testing.T) {
	var one, sum, want Stats
	set := func(s *Stats, i int, n int64) {
		if f := reflect.ValueOf(s).Elem().Field(i); f.CanUint() {
			f.SetUint(uint64(n))
		} else {
			f.SetInt(n) // the time.Duration counters
		}
	}
	for i := 0; i < reflect.TypeOf(one).NumField(); i++ {
		set(&one, i, int64(i+1))
		set(&want, i, 2*int64(i+1))
	}
	sum.add(&one)
	sum.add(&one)
	if sum != want {
		t.Errorf("Stats.add drops a field:\n got %+v\nwant %+v", sum, want)
	}
}

func TestDomainPersistPathAllocatesNothing(t *testing.T) {
	r := New(2*domainAlign, off())
	d := r.Carve(domainAlign, domainAlign)
	buf := make([]byte, 1024)
	var fs FlushSet
	if n := testing.AllocsPerRun(200, func() {
		d.Write(domainAlign, buf)
		d.Flush(domainAlign, len(buf))
		d.Fence()
		d.WriteUint64(domainAlign+2048, 1)
		fs.Add(domainAlign+2048, 8)
		fs.Add(domainAlign, 64)
		d.FlushBatch(&fs)
		d.Fence()
	}); n != 0 {
		t.Errorf("Write/Flush/FlushBatch/Fence through a handle: %v allocs/op, want 0", n)
	}
}

func TestSetCoresYieldsOnlyWhenOversubscribed(t *testing.T) {
	r := New(4096, off())
	if r.yield.Load() {
		t.Error("undeclared region yields")
	}
	r.SetCores(runtime.GOMAXPROCS(0))
	if r.yield.Load() {
		t.Error("one simulated core per CPU must spin hot")
	}
	r.SetCores(runtime.GOMAXPROCS(0) + 1)
	if !r.yield.Load() {
		t.Error("more simulated cores than CPUs must yield")
	}
}

// TestConcurrentClose: only one of several racing Close calls syncs the
// image; run under -race.
func TestConcurrentClose(t *testing.T) {
	r, err := OpenFile(filepath.Join(t.TempDir(), "pm.img"), 4096, off())
	if err != nil {
		t.Fatal(err)
	}
	r.Write(0, []byte("durable"))
	r.Persist(0, 7)
	var ok atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if r.Sync() == nil && r.Close() == nil {
				ok.Add(1)
			}
		}()
	}
	wg.Wait()
	if ok.Load() != 1 {
		t.Errorf("%d Close calls succeeded, want exactly 1", ok.Load())
	}
}
