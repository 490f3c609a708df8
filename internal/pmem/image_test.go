//go:build !race

package pmem

import (
	"runtime"
	"testing"
)

// TestImageOffHeap: the image is mapped, not allocated — a 256 MB region
// grows the Go heap by its per-line bookkeeping only — and the mapping
// is released once the Region is garbage.
func TestImageOffHeap(t *testing.T) {
	const size = 256 << 20
	before := mappedBytes.Load()
	func() {
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		r := New(size, off())
		runtime.ReadMemStats(&m1)
		book := 8*(len(r.dirty)+len(r.pending)) + 2*len(r.gen) + 4*len(r.saved)
		if grew := int64(m1.HeapAlloc) - int64(m0.HeapAlloc) - int64(book); grew >= 1<<20 {
			t.Fatalf("New(%d) grew the heap by %d bytes beyond its %d bytes of bookkeeping", size, grew, book)
		}
		r.Write(size-LineSize, []byte("last line"))
		got := make([]byte, 9)
		r.Read(got, size-LineSize)
		if string(got) != "last line" {
			t.Fatalf("last line read back %q", got)
		}
	}()
	// Other regions' mappings can only be released meanwhile, so the count
	// is back at or below its starting point only once this one is gone.
	for i := 0; mappedBytes.Load() > before; i++ {
		if i == 100 {
			t.Fatalf("%d bytes still mapped after 100 collections, %d before New", mappedBytes.Load(), before)
		}
		runtime.GC()
		runtime.Gosched()
	}
}
