package pmem

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"
	"time"

	"packetstore/internal/calib"
)

func off() calib.Profile { return calib.Off() }

func TestWriteReadRoundTrip(t *testing.T) {
	r := New(4096, off())
	data := []byte("hello persistent world")
	r.Write(100, data)
	got := make([]byte, len(data))
	r.Read(got, 100)
	if !bytes.Equal(got, data) {
		t.Fatalf("got %q want %q", got, data)
	}
	if !bytes.Equal(r.Slice(100, len(data)), data) {
		t.Fatal("Slice view mismatch")
	}
}

func TestSizeRoundedToLine(t *testing.T) {
	r := New(100, off())
	if r.Size() != 128 {
		t.Fatalf("size %d, want 128", r.Size())
	}
}

func TestUnflushedWriteLostOnCrash(t *testing.T) {
	r := New(4096, off())
	r.Write(0, []byte("durable"))
	r.Persist(0, 7)
	r.Write(64, []byte("volatile"))
	r.Crash(1)
	if got := r.Slice(0, 7); string(got) != "durable" {
		t.Fatalf("fenced data lost: %q", got)
	}
	if got := r.Slice(64, 8); string(got) == "volatile" {
		t.Fatal("unflushed data survived crash")
	}
}

func TestFlushWithoutFenceIsUndefined(t *testing.T) {
	// A line that was flushed but not fenced survives a crash with
	// probability 1/2 per line; over many trials both outcomes must occur.
	survived, lost := 0, 0
	for seed := int64(0); seed < 64; seed++ {
		r := New(4096, off())
		r.Write(0, []byte{0xaa})
		r.Flush(0, 1)
		r.Crash(seed)
		if r.Slice(0, 1)[0] == 0xaa {
			survived++
		} else {
			lost++
		}
	}
	if survived == 0 || lost == 0 {
		t.Fatalf("flush-no-fence should be nondeterministic: survived=%d lost=%d", survived, lost)
	}
}

// TestDMADirtyUntilFenced pins the device write path: DMA'd bytes are
// visible at once, dirty, uncounted, and reverted by Crash unless they
// were flushed and fenced first.
func TestDMADirtyUntilFenced(t *testing.T) {
	r := New(4096, off())
	r.DMA(60, []byte("ABCDEFGH")) // straddles lines 0 and 1
	if string(r.Slice(60, 8)) != "ABCDEFGH" {
		t.Fatal("DMA'd bytes not visible")
	}
	if d := r.DirtyLines(); d != 2 {
		t.Fatalf("DirtyLines = %d after DMA, want 2", d)
	}
	if st := r.Stats(); st != (Stats{}) {
		t.Fatalf("DMA counted as a CPU write: %+v", st)
	}
	r.Crash(2)
	if !bytes.Equal(r.Slice(60, 8), make([]byte, 8)) {
		t.Fatal("unflushed DMA survived the crash")
	}

	r.DMA(60, []byte("ABCDEFGH"))
	r.Persist(60, 8)
	r.DMA(60, []byte("abcd")) // rewritten after the fence: dirty again
	r.Crash(3)
	if string(r.Slice(60, 8)) != "ABCDEFGH" {
		t.Fatalf("after crash: %q, want the fenced DMA", r.Slice(60, 8))
	}
}

func TestDirtyAndPendingCounters(t *testing.T) {
	r := New(4096, off())
	r.Write(0, make([]byte, 130)) // lines 0,1,2
	if got := r.DirtyLines(); got != 3 {
		t.Fatalf("DirtyLines=%d want 3", got)
	}
	r.Flush(0, 130)
	if got := r.DirtyLines(); got != 0 {
		t.Fatalf("DirtyLines after flush=%d want 0", got)
	}
	if got := r.PendingLines(); got != 3 {
		t.Fatalf("PendingLines=%d want 3", got)
	}
	r.Fence()
	if got := r.PendingLines(); got != 0 {
		t.Fatalf("PendingLines after fence=%d want 0", got)
	}
}

func TestPartialLineFlush(t *testing.T) {
	// Flushing a sub-range only persists lines it covers.
	r := New(4096, off())
	img := make([]byte, 128)
	for i := range img {
		img[i] = byte(i)
	}
	r.Write(0, img)  // lines 0,1 dirty
	r.Persist(0, 64) // only line 0
	r.Crash(4)
	if r.Slice(0, 1)[0] != 0 {
		t.Fatal("line 0 content wrong")
	}
	if r.Slice(64, 1)[0] == 64 {
		t.Fatal("line 1 should not have persisted")
	}
}

func TestUintAccessors(t *testing.T) {
	r := New(4096, off())
	r.WriteUint64(8, 0xdeadbeefcafebabe)
	if got := r.ReadUint64(8); got != 0xdeadbeefcafebabe {
		t.Fatalf("u64 got %#x", got)
	}
	r.WriteUint32(4, 0x12345678)
	if got := r.ReadUint32(4); got != 0x12345678 {
		t.Fatalf("u32 got %#x", got)
	}
	mustPanic(t, func() { r.WriteUint64(4, 1) })
	mustPanic(t, func() { r.WriteUint32(2, 1) })
}

func TestBoundsChecks(t *testing.T) {
	r := New(128, off())
	mustPanic(t, func() { r.Slice(120, 16) })
	mustPanic(t, func() { r.Write(-1, []byte{1}) })
	mustPanic(t, func() { r.Read(make([]byte, 1), 128) })
}

func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f()
}

func TestCrashQuick(t *testing.T) {
	// Property: any byte that was written and fenced before the crash is
	// intact after it; any byte never written reads zero.
	type op struct {
		Off  uint16
		Data []byte
	}
	f := func(ops []op, seed int64) bool {
		r := New(1<<16, off())
		ref := make([]byte, 1<<16)
		for _, o := range ops {
			off := int(o.Off)
			n := len(o.Data)
			if off+n > r.Size() {
				n = r.Size() - off
			}
			r.Write(off, o.Data[:n])
			r.Persist(off, n)
			copy(ref[off:], o.Data[:n])
		}
		r.Crash(seed)
		return bytes.Equal(r.Slice(0, r.Size()), ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestLatencyCharged(t *testing.T) {
	p := calib.Off()
	p.PMFlushLine = 50 * time.Microsecond
	r := New(4096, p)
	r.Write(0, make([]byte, 256)) // 4 lines
	start := time.Now()
	r.Flush(0, 256)
	if e := time.Since(start); e < 200*time.Microsecond {
		t.Fatalf("flush of 4 lines took %v, want >= 200µs of charged latency", e)
	}
	if st := r.Stats(); st.LinesFlushed != 4 || st.Charged < 200*time.Microsecond {
		t.Fatalf("stats %+v", st)
	}
}

func TestStats(t *testing.T) {
	r := New(4096, off())
	r.Write(0, make([]byte, 100))
	r.Read(make([]byte, 10), 0)
	r.Touch(0, 64)
	r.Flush(0, 100)
	r.Fence()
	st := r.Stats()
	if st.Writes != 1 || st.BytesWritten != 100 || st.Flushes != 1 || st.Fences != 1 {
		t.Fatalf("stats %+v", st)
	}
	if st.LinesFlushed != 2 {
		t.Fatalf("LinesFlushed=%d want 2", st.LinesFlushed)
	}
	r.ResetStats()
	if st := r.Stats(); st.Writes != 0 {
		t.Fatalf("reset failed: %+v", st)
	}
}

func TestFileBackingRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pm.img")
	r, err := OpenFile(path, 4096, off())
	if err != nil {
		t.Fatal(err)
	}
	r.Write(10, []byte("persist me"))
	r.Persist(10, 10)
	r.Write(200, []byte("lose me")) // never flushed
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	r2, err := OpenFile(path, 4096, off())
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if got := string(r2.Slice(10, 10)); got != "persist me" {
		t.Fatalf("reopened: got %q", got)
	}
	if got := string(r2.Slice(200, 7)); got == "lose me" {
		t.Fatal("unflushed data survived file round trip")
	}
}

// TestFileBackingSparseRoundTrip: OpenFile copies only the chunks of the
// file that hold data, and still reopens the image byte-exact — lines in
// the first, a middle and the last (partial) chunk, and one straddling a
// chunk boundary.
func TestFileBackingSparseRoundTrip(t *testing.T) {
	const size = 3*loadChunk + 5*LineSize
	path := filepath.Join(t.TempDir(), "pm.img")
	r, err := OpenFile(path, size, off())
	if err != nil {
		t.Fatal(err)
	}
	want := make([]byte, size)
	for i, off := range []int{0, loadChunk - LineSize/2, 2*loadChunk + 7*LineSize, size - LineSize} {
		line := bytes.Repeat([]byte{byte('a' + i)}, LineSize)
		copy(want[off:], line)
		r.Write(off, line)
		r.Persist(off, LineSize)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	r2, err := OpenFile(path, size, off())
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if !bytes.Equal(r2.Slice(0, size), want) {
		t.Fatal("reopened image differs from the one written")
	}
}

func TestOpenFileSizeMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pm.img")
	r, err := OpenFile(path, 4096, off())
	if err != nil {
		t.Fatal(err)
	}
	r.Close()
	if _, err := OpenFile(path, 8192, off()); err == nil {
		t.Fatal("size mismatch not detected")
	}
}

func TestOpenFileBadMagic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pm.img")
	junk := make([]byte, len(fileMagic)+128)
	if err := os.WriteFile(path, junk, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFile(path, 128, off()); err == nil {
		t.Fatal("bad magic not detected")
	}
}

func TestDoubleClose(t *testing.T) {
	r := New(128, off())
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err == nil {
		t.Fatal("double close not detected")
	}
}

func TestConcurrentWriters(t *testing.T) {
	r := New(1<<20, off())
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			base := g * (1 << 16)
			for i := 0; i < 1000; i++ {
				r.Write(base+(i%100)*64, []byte{byte(g), byte(i)})
				r.Persist(base+(i%100)*64, 2)
			}
		}(g)
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	if st := r.Stats(); st.Writes != 8000 {
		t.Fatalf("writes=%d want 8000", st.Writes)
	}
}

func BenchmarkWrite1K(b *testing.B) {
	r := New(1<<20, off())
	buf := make([]byte, 1024)
	for i := 0; i < b.N; i++ {
		r.Write((i%512)*1024, buf)
	}
}

func BenchmarkPersist1K(b *testing.B) {
	r := New(1<<20, off())
	buf := make([]byte, 1024)
	for i := 0; i < b.N; i++ {
		o := (i % 512) * 1024
		r.Write(o, buf)
		r.Persist(o, 1024)
	}
}

func BenchmarkPersist1KPaperModel(b *testing.B) {
	r := New(1<<20, calib.Paper())
	buf := make([]byte, 1024)
	for i := 0; i < b.N; i++ {
		o := (i % 512) * 1024
		r.Write(o, buf)
		r.Persist(o, 1024)
	}
}
