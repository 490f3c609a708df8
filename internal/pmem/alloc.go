package pmem

import (
	"fmt"
	"sync"
)

// SlabPool hands out fixed-size slots from a range of a Region. Its
// allocation bitmap is volatile: the durable truth about which slots are
// live is whatever committed metadata references them, and recovery
// re-marks live slots with MarkAllocated. This is the standard design for
// PM allocators that want allocation itself to cost nothing durable — the
// packet-buffer pool of the packetstore uses it.
type SlabPool struct {
	mu       sync.Mutex
	r        *Region
	base     int
	slotSize int
	nslots   int
	// free is a LIFO of candidate slot indices with lazy deletion:
	// MarkAllocated (recovery) flips inUse without scanning the list, and
	// Alloc discards stale entries as it meets them. nfree tracks the
	// true free count. Indices are int32: every store open builds the
	// list afresh, and half the bytes are half the fresh pages it touches.
	free  []int32
	inUse []bool
	nfree int
}

// NewSlabPool creates a pool of nslots slots of slotSize bytes starting at
// base within r. The range [base, base+nslots*slotSize) must be reserved
// for the pool by the caller's layout.
func NewSlabPool(r *Region, base, slotSize, nslots int) *SlabPool {
	if slotSize <= 0 || nslots <= 0 {
		panic("pmem: bad slab geometry")
	}
	if base < 0 || base+slotSize*nslots > r.Size() {
		panic("pmem: slab range outside region")
	}
	p := &SlabPool{r: r, base: base, slotSize: slotSize, nslots: nslots,
		free: make([]int32, 0, nslots), inUse: make([]bool, nslots), nfree: nslots}
	for i := nslots - 1; i >= 0; i-- {
		p.free = append(p.free, int32(i))
	}
	return p
}

// SlotSize returns the size of each slot in bytes.
func (p *SlabPool) SlotSize() int { return p.slotSize }

// Slots returns the total number of slots.
func (p *SlabPool) Slots() int { return p.nslots }

// Base returns the region offset of slot 0.
func (p *SlabPool) Base() int { return p.base }

// Alloc returns the region offset of a free slot, or -1 if the pool is
// exhausted.
func (p *SlabPool) Alloc() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	for len(p.free) > 0 {
		i := int(p.free[len(p.free)-1])
		p.free = p.free[:len(p.free)-1]
		if p.inUse[i] {
			continue // stale entry left by MarkAllocated
		}
		p.inUse[i] = true
		p.nfree--
		return p.base + i*p.slotSize
	}
	return -1
}

// Free returns the slot at region offset off to the pool.
func (p *SlabPool) Free(off int) {
	i := p.index(off)
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.inUse[i] {
		panic(fmt.Sprintf("pmem: double free of slot %d", i))
	}
	p.inUse[i] = false
	p.nfree++
	p.free = append(p.free, int32(i))
}

// MarkAllocated records (during recovery) that the slot at off is live.
// It reports false if the slot was already marked, which recovery treats
// as corruption (two committed records claiming one slot).
func (p *SlabPool) MarkAllocated(off int) bool {
	i := p.index(off)
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.inUse[i] {
		return false
	}
	p.inUse[i] = true
	p.nfree--
	// The stale free-list entry is discarded lazily by Alloc.
	return true
}

// FreeSlots reports how many slots are currently free.
func (p *SlabPool) FreeSlots() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.nfree
}

// index converts a region offset to a slot index, panicking on misaligned
// or out-of-range offsets.
func (p *SlabPool) index(off int) int {
	d := off - p.base
	if d < 0 || d%p.slotSize != 0 || d/p.slotSize >= p.nslots {
		panic(fmt.Sprintf("pmem: offset %d is not a slot of this pool", off))
	}
	return d / p.slotSize
}

// BumpAlloc is a persistent bump allocator: a durable tail pointer at the
// head of its range, advanced with a flush+fence per allocation. This is
// deliberately the expensive design — it models the user-space persistent
// memory allocator of the NoveLSM baseline, whose cost the paper's Table 1
// measures inside "buffer allocation and insertion". Freed space is not
// reclaimed (NoveLSM's PM memtable arenas are likewise free-once).
type BumpAlloc struct {
	mu   sync.Mutex
	r    *Region
	base int // tail pointer lives at [base, base+8)
	lo   int // first allocatable byte
	hi   int // end of range
}

// bumpAlign is the allocation granularity (avoids torn neighbours by
// keeping allocations cache-line aligned).
const bumpAlign = LineSize

// NewBumpAlloc initializes (or re-opens) a persistent bump allocator over
// [base, base+size) of r. The first line holds the tail pointer; if it is
// zero (fresh region) it is initialized durably.
func NewBumpAlloc(r *Region, base, size int) *BumpAlloc {
	if base%8 != 0 || size < 2*bumpAlign {
		panic("pmem: bad bump allocator range")
	}
	a := &BumpAlloc{r: r, base: base, lo: base + bumpAlign, hi: base + size}
	if tail := int(r.ReadUint64(base)); tail == 0 {
		r.WriteUint64(base, uint64(a.lo))
		r.Persist(base, 8)
	} else if tail < a.lo || tail > a.hi {
		panic("pmem: corrupt bump allocator tail")
	}
	return a
}

// Alloc durably reserves n bytes and returns their region offset, or -1 if
// the range is exhausted. The tail update is flushed and fenced so that a
// crash never leaks a partially-allocated extent into reuse.
func (a *BumpAlloc) Alloc(n int) int {
	if n <= 0 {
		panic("pmem: bad alloc size")
	}
	n = (n + bumpAlign - 1) &^ (bumpAlign - 1)
	a.mu.Lock()
	defer a.mu.Unlock()
	a.r.Touch(a.base, 8) // read the durable tail
	tail := int(a.r.ReadUint64(a.base))
	if tail+n > a.hi {
		return -1
	}
	a.r.WriteUint64(a.base, uint64(tail+n))
	a.r.Persist(a.base, 8)
	return tail
}

// Used reports how many bytes have been allocated.
func (a *BumpAlloc) Used() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return int(a.r.ReadUint64(a.base)) - a.lo
}

// Remaining reports how many bytes are still allocatable.
func (a *BumpAlloc) Remaining() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.hi - int(a.r.ReadUint64(a.base))
}

// Reset durably rewinds the allocator, discarding all allocations. Used
// when an arena is retired and recycled.
func (a *BumpAlloc) Reset() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.r.WriteUint64(a.base, uint64(a.lo))
	a.r.Persist(a.base, 8)
}
