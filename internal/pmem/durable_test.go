package pmem

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"testing"
)

// shadowModel is the durable-image semantics spelled out the long way: a
// volatile and a full durable byte array, every operation applied to
// both. The differential test replays one random operation sequence
// against it and against a Region, which keeps saved copies of the
// lines in flight instead of a second image.
type shadowModel struct {
	buf, shadow    []byte
	dirty, pending []bool
	gen            []uint16
	flushed        map[int][]flushedLine // per issuing handle
	hook           PersistHook
	failed         bool
	frozen         map[int][]byte
}

func newShadowModel(size int) *shadowModel {
	n := size / LineSize
	return &shadowModel{
		buf: make([]byte, size), shadow: make([]byte, size),
		dirty: make([]bool, n), pending: make([]bool, n), gen: make([]uint16, n),
		flushed: map[int][]flushedLine{},
	}
}

func (m *shadowModel) line(b []byte, l int) []byte { return b[l*LineSize : (l+1)*LineSize] }

func (m *shadowModel) write(off int, src []byte) {
	copy(m.buf[off:], src)
	m.markDirty(off, len(src))
}

func (m *shadowModel) markDirty(off, n int) {
	for l := off / LineSize; n > 0 && l <= (off+n-1)/LineSize; l++ {
		m.dirty[l] = true
	}
}

func (m *shadowModel) retire(l int) bool {
	was := m.pending[l]
	m.pending[l] = false
	m.gen[l]++
	return was
}

func (m *shadowModel) cut(op PersistOp, spans []lineSpan) bool {
	dec := m.hook(op)
	if !dec.Cut {
		return dec.Drop
	}
	m.failed = true
	m.frozen = map[int][]byte{}
	for l, p := range m.pending {
		if p {
			m.frozen[l] = bytes.Clone(m.line(m.buf, l))
		}
	}
	tear := min(dec.TearBytes, LineSize-1)
	for _, sp := range spans {
		for l := sp.first; l <= sp.last && tear > 0; l++ {
			if m.dirty[l] {
				copy(m.line(m.shadow, l)[:tear], m.line(m.buf, l))
				return true
			}
		}
	}
	return true
}

// flush takes sorted, disjoint spans, as flushSpans does.
func (m *shadowModel) flush(h int, spans []lineSpan) {
	if m.failed || m.hook != nil && m.cut(OpFlush, spans) {
		return
	}
	for _, sp := range spans {
		for l := sp.first; l <= sp.last; l++ {
			switch {
			case m.dirty[l]:
				m.dirty[l], m.pending[l] = false, true
			case !m.pending[l]:
				continue
			}
			m.flushed[h] = append(m.flushed[h], flushedLine{l, m.gen[l]})
		}
	}
}

func (m *shadowModel) fence(h int) {
	if m.failed || m.hook != nil && m.cut(OpFence, nil) {
		return
	}
	for _, f := range m.flushed[h] {
		if m.gen[f.l] == f.gen && m.retire(f.l) {
			copy(m.line(m.shadow, f.l), m.line(m.buf, f.l))
		}
	}
	m.flushed[h] = nil
}

func (m *shadowModel) xorDelta(spans []XorSpan) {
	for _, sp := range spans {
		for i := 0; i < sp.N; i++ {
			m.buf[sp.Poff+i] ^= m.buf[sp.Off+i] ^ m.shadow[sp.Off+i]
		}
		m.markDirty(sp.Poff, sp.N)
	}
}

func (m *shadowModel) xorReconstruct(off int, srcs []int, n int) (skipped int) {
	for o := 0; o < n; o += LineSize {
		l := (off + o) / LineSize
		if m.dirty[l] {
			skipped++
			continue
		}
		line := bytes.Clone(m.shadow[srcs[0]+o : srcs[0]+o+LineSize])
		for _, s := range srcs[1:] {
			for i := range line {
				line[i] ^= m.shadow[s+o+i]
			}
		}
		copy(m.line(m.buf, l), line)
		copy(m.line(m.shadow, l), line)
		m.retire(l)
	}
	return skipped
}

func (m *shadowModel) erase(off, n int) {
	clear(m.buf[off : off+n])
	clear(m.shadow[off : off+n])
	for l := off / LineSize; l < (off+n)/LineSize; l++ {
		m.dirty[l] = false
		m.retire(l)
	}
}

func (m *shadowModel) corrupt(off int, mask byte) {
	m.buf[off] ^= mask
	m.shadow[off] ^= mask
}

func (m *shadowModel) crash(seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for l, p := range m.pending {
		if p && rng.Intn(2) == 0 {
			src := m.line(m.buf, l)
			if b, ok := m.frozen[l]; ok {
				src = b
			}
			copy(m.line(m.shadow, l), src)
		}
	}
	copy(m.buf, m.shadow)
	clear(m.dirty)
	clear(m.pending)
	clear(m.flushed)
	m.hook, m.failed, m.frozen = nil, false, nil
}

// checkSaved verifies the saved-copy invariant: the lines with a saved
// copy are exactly the dirty and pending lines, each copy is a distinct
// entry of its owner's pool, and every other entry of a pool is on its
// free stack exactly once.
func checkSaved(t *testing.T, r *Region) {
	t.Helper()
	r.lockAll()
	defer r.unlockAll()
	taken := map[*Domain][]bool{} // per pool: entry holds a line's copy
	r.each(func(d *Domain) { taken[d] = make([]bool, len(d.saves)*saveChunk) })
	for l, s := range r.saved {
		inFlight := r.isDirty(l) || r.pending[l/64]&(1<<(l%64)) != 0
		if (s != 0) != inFlight {
			t.Fatalf("line %d: saved slot %d, dirty or pending %v", l, s, inFlight)
		}
		if s == 0 {
			continue
		}
		if tk := taken[r.owner(l)]; int(s) > len(tk) || tk[s-1] {
			t.Fatalf("line %d: saved slot %d outside its owner's pool or shared", l, s)
		} else {
			tk[s-1] = true
		}
	}
	r.each(func(d *Domain) {
		tk := taken[d]
		for _, s := range d.free {
			if int(s) >= len(tk) || tk[s] {
				t.Fatalf("free slot %d out of range, listed twice or holding a copy", s)
			}
			tk[s] = true
		}
		for s, ok := range tk {
			if !ok {
				t.Fatalf("pool entry %d neither free nor holding a copy", s)
			}
		}
	})
}

// hookPlan is a fault plan both sides of the differential test build an
// identical hook from: cut (optionally torn) or drop the at-th persist
// operation after installation.
type hookPlan struct {
	at, tear int
	drop     bool
}

func (p hookPlan) hook() PersistHook {
	n := 0
	return func(PersistOp) PersistDecision {
		n++
		if n != p.at {
			return PersistDecision{}
		}
		if p.drop {
			return PersistDecision{Drop: true}
		}
		return PersistDecision{Cut: true, TearBytes: p.tear}
	}
}

// TestDurableImageMatchesShadowModel replays seeded random sequences of
// every operation that reads or changes the durable image — Write, DMA,
// Flush, FlushBatch and Fence from two carved handles and the default
// one, parity folds, reconstruction, erasure, media flips, torn and
// clean power cuts, dropped persist ops and crashes — against a Region
// and against shadowModel, and requires byte-identical durable and
// volatile images and equal dirty/pending counts after every step.
func TestDurableImageMatchesShadowModel(t *testing.T) {
	SetCrashLogger(func(int64) {})
	t.Cleanup(func() { SetCrashLogger(nil) })
	seeds, steps := 60, 400
	if testing.Short() {
		seeds = 15
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		replayAgainstShadowModel(t, seed, steps)
	}
}

func replayAgainstShadowModel(t *testing.T, seed int64, steps int) {
	const rng4 = domainAlign // four ranges: default, A, B, parity P
	size := 4 * rng4
	r := New(size, off())
	a, b := r.Carve(rng4, rng4), r.Carve(2*rng4, rng4)
	r.Carve(3*rng4, rng4)
	handles := []*Domain{&r.Domain, a, b}
	m := newShadowModel(size)
	rng := rand.New(rand.NewSource(seed))

	data := func(n int) []byte {
		p := make([]byte, n)
		rng.Read(p)
		return p
	}
	// inRange returns an access [off, off+n) inside one range, n >= 1.
	inRange := func(ranges, maxN int) (int, int) {
		base := rng.Intn(ranges) * rng4
		o := rng.Intn(rng4)
		return base + o, 1 + rng.Intn(min(maxN, rng4-o))
	}
	anySpan := func() lineSpan {
		f := rng.Intn(size / LineSize)
		return lineSpan{f, min(f+rng.Intn(8), size/LineSize-1)}
	}
	got := make([]byte, size)
	for step := 0; step < steps; step++ {
		h := rng.Intn(len(handles))
		var what string
		switch k := rng.Intn(100); {
		case k < 25:
			o, n := inRange(4, 200)
			p := data(n)
			handles[h].Write(o, p)
			m.write(o, p)
			what = fmt.Sprintf("Write(h%d, %d, %d)", h, o, n)
		case k < 35:
			o, n := inRange(3, 200)
			p := data(n)
			r.DMA(o, p)
			m.write(o, p)
			what = fmt.Sprintf("DMA(%d, %d)", o, n)
		case k < 48:
			o := rng.Intn(size)
			n := 1 + rng.Intn(min(400, size-o))
			handles[h].Flush(o, n)
			m.flush(h, []lineSpan{{o / LineSize, (o + n - 1) / LineSize}})
			what = fmt.Sprintf("Flush(h%d, %d, %d)", h, o, n)
		case k < 56:
			var fs FlushSet
			var spans []lineSpan
			for range 1 + rng.Intn(4) {
				sp := anySpan()
				fs.Add(sp.first*LineSize, (sp.last-sp.first+1)*LineSize)
				spans = append(spans, sp)
			}
			handles[h].FlushBatch(&fs)
			m.flush(h, normalized(spans))
			what = fmt.Sprintf("FlushBatch(h%d, %v)", h, spans)
		case k < 72:
			handles[h].Fence()
			m.fence(h)
			what = fmt.Sprintf("Fence(h%d)", h)
		case k < 80:
			var spans []XorSpan
			for range 1 + rng.Intn(2) {
				mem := 1 + rng.Intn(2) // a member range, A or B
				o := rng.Intn(rng4/LineSize) * LineSize
				n := 1 + rng.Intn(min(256, rng4-o))
				spans = append(spans, XorSpan{Poff: 3*rng4 + o, Off: mem*rng4 + o, N: n})
			}
			handles[1+rng.Intn(2)].XorDeltaBatch(spans)
			m.xorDelta(spans)
			what = fmt.Sprintf("XorDeltaBatch(%v)", spans)
		case k < 84:
			// Rebuild a range of P from A and B, or of A from B and P.
			dst, srcs := 3, []int{1, 2}
			if rng.Intn(2) == 0 {
				dst, srcs = 1, []int{2, 3}
			}
			o := rng.Intn(rng4/LineSize) * LineSize
			n := 1 + rng.Intn(min(512, rng4-o))
			abs := []int{srcs[0]*rng4 + o, srcs[1]*rng4 + o}
			s1 := r.XorReconstruct(dst*rng4+o, abs, n)
			s2 := m.xorReconstruct(dst*rng4+o, abs, n)
			if s1 != s2 {
				t.Fatalf("seed %d step %d: XorReconstruct skipped %d, model %d", seed, step, s1, s2)
			}
			what = fmt.Sprintf("XorReconstruct(%d, %v, %d)", dst*rng4+o, abs, n)
		case k < 86:
			f := rng.Intn(size / LineSize)
			n := 1 + rng.Intn(min(16, size/LineSize-f))
			r.EraseRange(f*LineSize, n*LineSize)
			m.erase(f*LineSize, n*LineSize)
			what = fmt.Sprintf("EraseRange(%d, %d)", f*LineSize, n*LineSize)
		case k < 89:
			o, mask := rng.Intn(size), byte(1+rng.Intn(255))
			r.CorruptByte(o, mask)
			m.corrupt(o, mask)
			what = fmt.Sprintf("CorruptByte(%d, %#x)", o, mask)
		case k < 94:
			p := hookPlan{at: 1 + rng.Intn(6), tear: rng.Intn(80), drop: rng.Intn(3) == 0}
			r.SetPersistHook(p.hook())
			m.hook = p.hook()
			what = fmt.Sprintf("SetPersistHook(%+v)", p)
		default:
			cs := rng.Int63()
			r.Crash(cs)
			m.crash(cs)
			what = fmt.Sprintf("Crash(%d)", cs)
		}
		r.ReadShadow(got, 0)
		if i := firstDiff(got, m.shadow); i >= 0 {
			t.Fatalf("seed %d step %d %s: durable byte %d = %#x, model %#x", seed, step, what, i, got[i], m.shadow[i])
		}
		if i := firstDiff(r.Slice(0, size), m.buf); i >= 0 {
			t.Fatalf("seed %d step %d %s: volatile byte %d = %#x, model %#x", seed, step, what, i, r.buf[i], m.buf[i])
		}
		if d, p := r.DirtyLines(), count(m.dirty); d != p {
			t.Fatalf("seed %d step %d %s: %d dirty lines, model %d", seed, step, what, d, p)
		}
		if d, p := r.PendingLines(), count(m.pending); d != p {
			t.Fatalf("seed %d step %d %s: %d pending lines, model %d", seed, step, what, d, p)
		}
		checkSaved(t, r)
	}
}

// normalized sorts and merges spans as FlushBatch does.
func normalized(spans []lineSpan) []lineSpan {
	fs := FlushSet{spans: append([]lineSpan(nil), spans...)}
	fs.normalize()
	return fs.spans
}

func firstDiff(a, b []byte) int {
	if bytes.Equal(a, b) {
		return -1
	}
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}

func count(s []bool) (n int) {
	for _, v := range s {
		if v {
			n++
		}
	}
	return n
}

// TestSavedCopiesFollowLinesInFlight walks one line through its life:
// no copy while durable, one taken by the first write (holding the old
// bytes), kept through the flush, refreshed by a fence that finds the
// line rewritten, dropped by the fence that finds it clean — and a crash
// restores the copies and empties the pools.
func TestSavedCopiesFollowLinesInFlight(t *testing.T) {
	r := New(2*domainAlign, off())
	d := r.Carve(domainAlign, domainAlign)
	v1, v2 := bytes.Repeat([]byte{1}, LineSize), bytes.Repeat([]byte{2}, LineSize)
	shadowOf := func() []byte {
		b := make([]byte, LineSize)
		r.ReadShadow(b, domainAlign)
		return b
	}
	l := domainAlign / LineSize
	if r.saved[l] != 0 {
		t.Fatal("a durable line has a saved copy")
	}
	d.Write(domainAlign, v1)
	if r.saved[l] == 0 || !bytes.Equal(shadowOf(), make([]byte, LineSize)) {
		t.Fatal("first write took no copy of the durable zeros")
	}
	d.Flush(domainAlign, LineSize)
	d.Write(domainAlign, v2) // after the flush: dirty and pending
	d.Fence()
	if r.saved[l] == 0 || !bytes.Equal(shadowOf(), v2) {
		t.Fatal("fence of a rewritten line did not refresh its copy to the current bytes")
	}
	d.Persist(domainAlign, LineSize)
	if r.saved[l] != 0 || len(d.free) != len(d.saves)*saveChunk {
		t.Fatal("fence of a clean line kept its copy")
	}
	d.Write(domainAlign, v1)
	r.DMA(0, v1)
	r.Crash(1)
	if !bytes.Equal(r.Slice(domainAlign, LineSize), v2) || !bytes.Equal(r.Slice(0, LineSize), make([]byte, LineSize)) {
		t.Fatal("crash did not restore the saved copies")
	}
	checkSaved(t, r)
	for _, dom := range []*Domain{&r.Domain, d} {
		if len(dom.free) != len(dom.saves)*saveChunk {
			t.Fatal("crash left pool entries in use")
		}
	}
}

// TestSyncWritesNoImageCopy: Sync of a 64 MB file-backed region writes
// the volatile image and the saved copies straight to the file — well
// under 1 MB allocated, where a durable-image temporary would be 64 MB.
func TestSyncWritesNoImageCopy(t *testing.T) {
	r, err := OpenFile(filepath.Join(t.TempDir(), "pm.img"), 64<<20, off())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for i := 0; i < 256; i++ {
		r.Write(i*4096, bytes.Repeat([]byte{byte(i)}, 1024))
		if i%2 == 0 {
			r.Persist(i*4096, 1024)
		}
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if err := r.Sync(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&m1)
	if a := m1.TotalAlloc - m0.TotalAlloc; a >= 1<<20 {
		t.Errorf("Sync of a 64 MB region allocated %d B", a)
	}
}

// TestFileBackingKeepsOnlyDurableBytes: the file holds the durable image
// — a fenced line, not the flushed-but-unfenced, the dirty, or a fenced
// line's later unflushed rewrite.
func TestFileBackingKeepsOnlyDurableBytes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pm.img")
	r, err := OpenFile(path, 4096, off())
	if err != nil {
		t.Fatal(err)
	}
	fenced, later := bytes.Repeat([]byte{'F'}, LineSize), bytes.Repeat([]byte{'L'}, LineSize)
	r.Write(0, fenced)
	r.Persist(0, LineSize)
	r.Write(0, later) // rewritten, never flushed
	r.Write(LineSize, fenced)
	r.Flush(LineSize, LineSize)                       // flushed, never fenced
	r.DMA(2*LineSize, bytes.Repeat([]byte{'D'}, 100)) // dirty only
	want := make([]byte, 4096)
	r.ReadShadow(want, 0)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	r2, err := OpenFile(path, 4096, off())
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	got := r2.Slice(0, 4096)
	if !bytes.Equal(got, want) {
		t.Fatal("reopened image differs from the durable image at close")
	}
	if !bytes.Equal(got[:LineSize], fenced) {
		t.Fatalf("fenced line reopened as %q", got[:8])
	}
	if !bytes.Equal(got[LineSize:], make([]byte, 4096-LineSize)) {
		t.Fatal("a flushed-but-unfenced or dirty line reached the file")
	}
}

// BenchmarkCrash64MBFewInFlight: Crash costs the lines in flight, not the
// region — a 64 MB region with one 1 KB write in flight.
func BenchmarkCrash64MBFewInFlight(b *testing.B) {
	SetCrashLogger(func(int64) {})
	defer SetCrashLogger(nil)
	r := New(64<<20, off())
	buf := make([]byte, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Write((i%1024)*4096, buf)
		r.Crash(int64(i))
	}
}
