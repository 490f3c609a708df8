// Package pskiplist implements a persistent skip list stored in a
// pmem.Region — the NoveLSM-style PM memtable the paper's baseline uses
// (§3, "a persistent skip list in NoveLSM").
//
// Design (and its crash-consistency argument):
//
//   - Nodes are allocated from a persistent bump allocator, whose durable
//     tail-pointer update is part of every insert — this is exactly the
//     "user-space persistent memory allocator" cost the paper's Table 1
//     measures inside buffer allocation and insertion.
//   - An insert writes and persists the node (header, tower, key, value),
//     then links it in with a single atomic 4-byte store to the level-0
//     predecessor pointer, which is flushed and fenced. After that fence
//     the entry is durable.
//   - Upper-level tower links are written without flushes: losing them in
//     a crash leaves a pointer to an older node (links are only ever
//     advanced), and a zero reads as nil — either way searches stay
//     correct through level 0, so towers are an optimization, never a
//     correctness dependency. This is the standard PM skip-list design.
//
// Reads charge PM latency (Region.Touch) per visited node, modelling the
// pointer-chasing loads of an index walk on Optane.
package pskiplist

import (
	"fmt"
	"math/rand"
	"time"

	"packetstore/internal/pmem"
)

const (
	maxHeight = 12
	branching = 4

	// headerSize is the on-PM list header: magic (8) + head tower
	// (maxHeight * 4), padded to a cache line boundary.
	headerSize = 64

	magic = 0x3154534c504b5350 // "PSKPLST1" little-endian
)

// node layout (offsets within the node):
//
//	0:  klen   uint16
//	2:  height uint8
//	3:  flags  uint8 (unused; reserved)
//	4:  vlen   uint32
//	8:  next[height] uint32 (region offsets; 0 = nil)
//	8+4h: key bytes, then value bytes
const nodeHdrSize = 8

// Comparator orders keys; negative means a < b.
type Comparator func(a, b []byte) int

// InsertStats accumulates per-phase insert time: the direct
// instrumentation behind the Table 1 "data copy" and "buffer allocation
// and insertion" rows. Search is the index walk to the insertion point,
// Alloc the persistent allocator, Copy the node image construction and
// store, Link the pointer updates, and Flush the cache-line write-backs
// and fences.
type InsertStats struct {
	Count  uint64
	Search time.Duration
	Alloc  time.Duration
	Copy   time.Duration
	Link   time.Duration
	Flush  time.Duration
}

// Add merges o into s.
func (s *InsertStats) Add(o *InsertStats) {
	s.Count += o.Count
	s.Search += o.Search
	s.Alloc += o.Alloc
	s.Copy += o.Copy
	s.Link += o.Link
	s.Flush += o.Flush
}

// List is a persistent skip list occupying [base, base+size) of a region.
type List struct {
	r     *pmem.Region
	base  int
	size  int
	cmp   Comparator
	alloc *pmem.BumpAlloc
	rng   *rand.Rand
	count int // volatile; recomputed on recovery
	stats InsertStats
}

// Stats returns the cumulative insert-phase timings (mutable; callers may
// zero it between measurement windows).
func (l *List) Stats() *InsertStats { return &l.stats }

// tagOff is the header offset of the user tag (after magic and tower).
const tagOff = 56

// SetTag durably stores an application tag (the LSM uses it to order
// memtable arenas across reboots).
func (l *List) SetTag(tag uint64) {
	l.r.WriteUint64(l.base+tagOff, tag)
	l.r.Persist(l.base+tagOff, 8)
}

// Tag returns the stored application tag.
func (l *List) Tag() uint64 { return l.r.ReadUint64(l.base + tagOff) }

// New initializes a fresh list over [base, base+size) of r. Any previous
// content in the range is discarded.
func New(r *pmem.Region, base, size int, cmp Comparator) *List {
	if base%8 != 0 {
		panic("pskiplist: unaligned base")
	}
	l := &List{r: r, base: base, size: size, cmp: cmp,
		rng: rand.New(rand.NewSource(0x5eed))}
	// Zero the header (head tower) and persist it with the magic.
	zero := make([]byte, headerSize)
	r.Write(base, zero)
	r.WriteUint64(base, magic)
	r.Persist(base, headerSize)
	// Reset the allocator area explicitly: a recycled arena may hold an
	// old tail pointer.
	r.WriteUint64(base+headerSize, 0)
	r.Persist(base+headerSize, 8)
	l.alloc = pmem.NewBumpAlloc(r, base+headerSize, size-headerSize)
	return l
}

// Recover re-opens a list previously created with New at the same range,
// after a crash or reboot. It validates the magic and recounts entries by
// walking level 0.
func Recover(r *pmem.Region, base, size int, cmp Comparator) (*List, error) {
	if r.ReadUint64(base) != magic {
		return nil, fmt.Errorf("pskiplist: no list at offset %d", base)
	}
	l := &List{r: r, base: base, size: size, cmp: cmp,
		rng: rand.New(rand.NewSource(0x5eed))}
	l.alloc = pmem.NewBumpAlloc(r, base+headerSize, size-headerSize)
	for off := l.headLink(0); off != 0; off = l.nodeNext(off, 0) {
		l.count++
	}
	return l, nil
}

// Len returns the number of entries reachable at level 0.
func (l *List) Len() int { return l.count }

// MemoryUsage reports bytes consumed in the arena.
func (l *List) MemoryUsage() int { return l.alloc.Used() }

// Remaining reports allocatable bytes left.
func (l *List) Remaining() int { return l.alloc.Remaining() }

// --- node accessors ---

func (l *List) headLink(level int) int {
	return int(l.r.ReadUint32(l.base + 8 + 4*level))
}

func (l *List) setHeadLink(level, off int, persist bool) {
	l.r.WriteUint32(l.base+8+4*level, uint32(off))
	if persist {
		l.r.Persist(l.base+8+4*level, 4)
	}
}

func (l *List) nodeHeight(off int) int { return int(l.r.Slice(off+2, 1)[0]) }

func (l *List) nodeNext(off, level int) int {
	return int(l.r.ReadUint32(off + nodeHdrSize + 4*level))
}

func (l *List) setNodeNext(off, level, next int, persist bool) {
	pos := off + nodeHdrSize + 4*level
	l.r.WriteUint32(pos, uint32(next))
	if persist {
		l.r.Persist(pos, 4)
	}
}

func (l *List) nodeKey(off int) []byte {
	h := l.r.Slice(off, nodeHdrSize)
	klen := int(h[0]) | int(h[1])<<8
	height := int(h[2])
	kOff := off + nodeHdrSize + 4*height
	return l.r.Slice(kOff, klen)
}

func (l *List) nodeValue(off int) []byte {
	h := l.r.Slice(off, nodeHdrSize)
	klen := int(h[0]) | int(h[1])<<8
	height := int(h[2])
	vlen := int(uint32(h[4]) | uint32(h[5])<<8 | uint32(h[6])<<16 | uint32(h[7])<<24)
	vOff := off + nodeHdrSize + 4*height + klen
	return l.r.Slice(vOff, vlen)
}

// touchNode charges the PM read latency of inspecting a node (header +
// key head).
func (l *List) touchNode(off int) {
	l.r.Touch(off, nodeHdrSize)
}

func (l *List) randomHeight() int {
	h := 1
	for h < maxHeight && l.rng.Intn(branching) == 0 {
		h++
	}
	return h
}

// findGE locates the first node with key >= key; prev receives the
// rightmost predecessor offset per level (0 = head).
func (l *List) findGE(key []byte, prev *[maxHeight]int) int {
	x := 0 // head
	level := maxHeight - 1
	for {
		var nxt int
		if x == 0 {
			nxt = l.headLink(level)
		} else {
			nxt = l.nodeNext(x, level)
		}
		if nxt != 0 {
			// Upper tower levels are a handful of hot nodes; model them
			// as cache hits and charge PM latency only near the bottom,
			// where the node population is large and reads miss.
			if level <= 1 {
				l.touchNode(nxt)
			}
			if l.cmp(l.nodeKey(nxt), key) < 0 {
				x = nxt
				continue
			}
		}
		if prev != nil {
			prev[level] = x
		}
		if level == 0 {
			return nxt
		}
		level--
	}
}

// Insert durably adds key/value. Exactly-equal keys panic (LSM internal
// keys are always unique). Returns false when the arena is exhausted.
func (l *List) Insert(key, val []byte) bool {
	if len(key) > 0xffff {
		panic("pskiplist: key too long")
	}
	t0 := time.Now()
	var prev [maxHeight]int
	if ge := l.findGE(key, &prev); ge != 0 && l.cmp(l.nodeKey(ge), key) == 0 {
		panic("pskiplist: duplicate key")
	}
	t1 := time.Now()
	height := l.randomHeight()
	nodeSize := nodeHdrSize + 4*height + len(key) + len(val)
	off := l.alloc.Alloc(nodeSize)
	if off < 0 {
		l.stats.Search += t1.Sub(t0)
		return false
	}
	t2 := time.Now()
	// Build the node image and store it (the data-copy phase).
	img := make([]byte, nodeSize)
	img[0], img[1] = byte(len(key)), byte(len(key)>>8)
	img[2] = byte(height)
	vlen := uint32(len(val))
	img[4], img[5], img[6], img[7] = byte(vlen), byte(vlen>>8), byte(vlen>>16), byte(vlen>>24)
	for lv := 0; lv < height; lv++ {
		var succ int
		if prev[lv] == 0 {
			succ = l.headLink(lv)
		} else {
			succ = l.nodeNext(prev[lv], lv)
		}
		p := nodeHdrSize + 4*lv
		img[p], img[p+1], img[p+2], img[p+3] = byte(succ), byte(succ>>8), byte(succ>>16), byte(succ>>24)
	}
	copy(img[nodeHdrSize+4*height:], key)
	copy(img[nodeHdrSize+4*height+len(key):], val)
	l.r.Write(off, img)
	t3 := time.Now()
	// Persist the node image before linking.
	l.r.Persist(off, nodeSize)
	t4 := time.Now()

	// Link level 0 durably: after its flush+fence the entry exists.
	if prev[0] == 0 {
		l.setHeadLink(0, off, false)
	} else {
		l.setNodeNext(prev[0], 0, off, false)
	}
	// Upper levels: best-effort (correctness never depends on them).
	for lv := 1; lv < height; lv++ {
		if prev[lv] == 0 {
			l.setHeadLink(lv, off, false)
		} else {
			l.setNodeNext(prev[lv], lv, off, false)
		}
	}
	t5 := time.Now()
	if prev[0] == 0 {
		l.r.Persist(l.base+8, 4)
	} else {
		l.r.Persist(prev[0]+nodeHdrSize, 4)
	}
	t6 := time.Now()

	l.stats.Count++
	l.stats.Search += t1.Sub(t0)
	l.stats.Alloc += t2.Sub(t1)
	l.stats.Copy += t3.Sub(t2)
	l.stats.Flush += t4.Sub(t3) + t6.Sub(t5)
	l.stats.Link += t5.Sub(t4)
	l.count++
	return true
}

// Get returns the value stored under an exactly-equal key. The returned
// slice aliases persistent memory; callers must copy to retain across
// mutations.
func (l *List) Get(key []byte) ([]byte, bool) {
	n := l.findGE(key, nil)
	if n != 0 && l.cmp(l.nodeKey(n), key) == 0 {
		return l.nodeValue(n), true
	}
	return nil, false
}

// Iterator walks the list in comparator order.
type Iterator struct {
	l   *List
	off int
}

// NewIterator returns an iterator positioned before the first entry.
func (l *List) NewIterator() *Iterator { return &Iterator{l: l} }

// Valid reports whether the iterator is at an entry.
func (it *Iterator) Valid() bool { return it.off != 0 }

// Key returns the current key (aliases PM).
func (it *Iterator) Key() []byte { return it.l.nodeKey(it.off) }

// Value returns the current value (aliases PM).
func (it *Iterator) Value() []byte { return it.l.nodeValue(it.off) }

// Next advances; from the before-first position it moves to the first
// entry.
func (it *Iterator) Next() {
	if it.off == 0 {
		it.off = it.l.headLink(0)
	} else {
		it.off = it.l.nodeNext(it.off, 0)
	}
	if it.off != 0 {
		it.l.touchNode(it.off)
	}
}

// SeekToFirst positions at the smallest entry.
func (it *Iterator) SeekToFirst() {
	it.off = it.l.headLink(0)
}

// Seek positions at the first entry with key >= key.
func (it *Iterator) Seek(key []byte) {
	it.off = it.l.findGE(key, nil)
}
