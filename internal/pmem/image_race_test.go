//go:build race

package pmem

import (
	"runtime"
	"testing"
)

// TestImageOnHeapUnderRace: race builds keep the image on the Go heap,
// where the race detector sees accesses to PM bytes.
func TestImageOnHeapUnderRace(t *testing.T) {
	const size = 64 << 20
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	r := New(size, off())
	runtime.ReadMemStats(&m1)
	if grew := int64(m1.HeapAlloc) - int64(m0.HeapAlloc); grew < size {
		t.Fatalf("New(%d) grew the heap by only %d bytes", size, grew)
	}
	runtime.KeepAlive(r)
}
