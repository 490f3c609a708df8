package core

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"hash/maphash"
	"math/bits"
	"sync/atomic"
	"time"
)

// This file is the store's index: a hash table for point lookups over a
// skip list for order, both volatile — nothing of them lives in PM;
// recovery rebuilds them from the committed slots (recover.go).
//
// Every indexed key owns one skip-list node for as long as it stays
// indexed: a 64-byte entry holding its links, a 16-byte key prefix and a
// pointer to the descriptor of the key's current record. An overwrite
// stores the new descriptor into the key's node — no walk, no relink —
// so only a fresh insert walks for its predecessors, a delete for the
// ones it unlinks from, and Ascend/Range for their starting point. Point
// operations (GET, the PUT's search for the record it replaces, DELETE,
// scrub and fault injection) probe the hash table instead: an
// open-addressed array of node id + 1 words, linearly probed.
//
// Mutators change both structures under s.mu inside a seqlock bracket
// (fastget.go); locked readers use them under s.mu, lock-free GETs probe
// with plain atomic loads and validate against the sequence.

// nodeEntry is one skip-list node: the entry of a node id. desc, ka, kb
// and next are written under Store.mu inside a mutation bracket and
// loaded atomically by lock-free readers (a node id can be freed and
// reused while a stale reader stands on it); height is guarded by
// Store.mu.
type nodeEntry struct {
	// desc is the descriptor of the key's current record, or nil when
	// the node id is free.
	desc atomic.Pointer[nodeDesc]
	// ka, kb are the key's 16-byte prefix, copied from the descriptor so
	// a hop or a probe compares keys without leaving the entry.
	ka, kb atomic.Uint64
	// next holds, for each of the node's height levels, the successor's
	// node id + 1 (0 = nil). Levels at or above the height are stale.
	next [maxHeight]atomic.Uint32
	// height is how many levels the node is linked at; it is drawn when
	// the key is first inserted and kept across overwrites.
	height int32
}

// slotState is the volatile state of one metadata slot, guarded by
// Store.mu.
type slotState struct {
	// nodeXor is the slot index XOR the node id of the key whose record
	// the slot holds: the scrubber meets records by slot, and a slot whose
	// key bytes are damaged can no longer be looked up by key. 0, a fresh
	// entry's value, names the node with the slot's own id, which is every
	// recovered record's. The mapping holds only while that node's
	// descriptor lives in this slot (descAt checks), so nothing clears it
	// when the record is replaced.
	nodeXor uint32
	// stamp is the scrub generation (Store.scrubPass) that last validated
	// the slot's record; rebuilds skip re-validating fresh stamps.
	stamp uint32
	// fenced marks a slot quarantined for failed validation, so the
	// scrubber doesn't re-report the same damage every pass.
	fenced bool
}

// tableChunk is the allocation unit of the node and slot tables: 1024
// entries (64 KiB of nodes). A chunk is allocated when an entry in it is
// first touched, so a table's memory follows the ids in use rather than
// Config.MetaSlots.
const tableChunk = 1024

// chunked is a table of T allocated in tableChunk-entry chunks on first
// touch.
type chunked[T any] []atomic.Pointer[[tableChunk]T]

func newChunked[T any](n int) chunked[T] {
	return make(chunked[T], (n+tableChunk-1)/tableChunk)
}

// at returns entry i, allocating its chunk on first touch. Caller holds
// s.mu.
func (t chunked[T]) at(i int) *T {
	c := t[i/tableChunk].Load()
	if c == nil {
		c = new([tableChunk]T)
		t[i/tableChunk].Store(c)
	}
	return &c[i%tableChunk]
}

// load returns entry i, or nil when its chunk was never allocated. It
// allocates nothing, so lock-free readers and read-only callers use it.
func (t chunked[T]) load(i int) *T {
	if c := t[i/tableChunk].Load(); c != nil {
		return &c[i%tableChunk]
	}
	return nil
}

// descAt returns the descriptor of the indexed record slot idx holds,
// or nil. Caller holds s.mu.
func (s *Store) descAt(idx int) *nodeDesc {
	n := idx
	if st := s.slots.load(idx); st != nil {
		n ^= int(st.nodeXor)
	}
	if e := s.nodes.load(n); e != nil {
		if d := e.desc.Load(); d != nil && d.slot == idx {
			return d
		}
	}
	return nil
}

// nodeDesc is everything a read needs of one record, snapshotted when
// the record is staged or recovered. All fields except gated are
// immutable after publication; a record update publishes a fresh
// descriptor into the key's node rather than mutating the old one, so a
// lock-free reader holding a stale pointer sees a consistent (merely
// outdated) view and the sequence re-check rejects it. The links live
// in the node.
type nodeDesc struct {
	slot int      // metadata slot holding the record
	key  []byte   // the key bytes, shared by every version of the key
	kp   prefix   // the key's 16-byte prefix, also in the node
	exts []Extent // immutable extent list
	// hash is the key's hash under the store's seed: its home bucket,
	// and what a backward-shift delete needs of a bucket it moves.
	hash   uint64
	hwtime int64
	seq    uint64
	vlen   uint32
	csum   uint32
	node   int32 // the key's skip-list node id
	// gated stops serving while the record's value bytes are known-damaged
	// and awaiting a deferred parity repair: reads take the locked path,
	// which answers a typed ErrCorrupt instead of bytes that cannot be
	// trusted. A rescan publishes fresh, ungated descriptors; the repair
	// paths re-derive the gate.
	gated atomic.Bool
}

// refFromDesc materialises the public Ref from a descriptor.
func refFromDesc(d *nodeDesc) Ref {
	return Ref{
		Extents: append([]Extent(nil), d.exts...),
		VLen:    int(d.vlen),
		Csum:    d.csum,
		HWTime:  time.Unix(0, d.hwtime),
		Seq:     d.seq,
	}
}

// prefix is a key's first 16 bytes, zero padded, as two big-endian
// words: comparing prefixes orders keys as bytes.Compare orders their
// first 16 bytes.
type prefix struct{ a, b uint64 }

// keyPrefix returns key's prefix.
func keyPrefix(key []byte) prefix {
	var p [16]byte
	copy(p[:], key)
	return prefix{binary.BigEndian.Uint64(p[:8]), binary.BigEndian.Uint64(p[8:])}
}

func (p prefix) cmp(a, b uint64) int {
	if p.a != a {
		return cmp.Compare(p.a, a)
	}
	return cmp.Compare(p.b, b)
}

// cmpTie orders two keys whose prefixes are equal: when both fit the
// prefix they agree up to the shorter one's length and the longer one
// continues with zero bytes, so the shorter sorts first.
func cmpTie(a, b []byte) int {
	if len(a) <= 16 && len(b) <= 16 {
		return len(a) - len(b)
	}
	return bytes.Compare(a, b)
}

// cmpDesc orders key (with prefix kp) against a descriptor's key.
func cmpDesc(key []byte, kp prefix, d *nodeDesc) int {
	if c := kp.cmp(d.kp.a, d.kp.b); c != 0 {
		return c
	}
	return cmpTie(key, d.key)
}

// hashKey is key's hash under the store's seed. The table's layout
// affects only time, and a per-store random seed keeps a client from
// choosing keys that share a bucket run.
func (s *Store) hashKey(key []byte) uint64 { return maphash.Bytes(s.seed, key) }

// probe returns key's descriptor, looked up by hash (h = s.hashKey(key)),
// or nil when the key is absent. Under s.mu the probe always completes.
// A lock-free probe can meet a table torn mid-bracket — a bucket naming
// a node whose chunk was never allocated or whose descriptor is
// unpublished, or a sweep of every bucket — and reports ok=false; a
// bucket run a backward-shift delete is moving can also yield a false
// miss. Both happen only inside a mutation bracket, so the caller's
// sequence re-check rejects them.
func (s *Store) probe(key []byte, h uint64) (d *nodeDesc, ok bool) {
	kp := keyPrefix(key)
	b := *s.buckets.Load()
	mask := uint64(len(b) - 1)
	for i, n := h&mask, len(b); n > 0; i, n = (i+1)&mask, n-1 {
		w := b[i].Load()
		if w == 0 {
			return nil, true
		}
		e := s.nodes.load(int(w - 1))
		if e == nil {
			return nil, false
		}
		if kp.cmp(e.ka.Load(), e.kb.Load()) != 0 {
			continue
		}
		if d = e.desc.Load(); d == nil {
			return nil, false
		}
		if cmpDesc(key, kp, d) == 0 {
			return d, true
		}
	}
	return nil, false
}

// lookupLocked returns key's descriptor (h = s.hashKey(key)), or nil
// when the key is absent. Caller holds s.mu.
func (s *Store) lookupLocked(key []byte, h uint64) *nodeDesc {
	d, ok := s.probe(key, h)
	if !ok {
		panic("pktstore: index torn under the store lock")
	}
	return d
}

// findGE walks the skip list to the node of the first key >= key (nil
// when there is none); hit is that key's descriptor when it equals key,
// else nil. prev, when non-nil, receives each level's last node before
// it (&s.head at the front). Only ordered work walks: Ascend's seek, a
// fresh insert's and an unlink's predecessors. Under s.mu the walk
// always completes; a walk without it reports a torn index — a link
// into a chunk never allocated, a prefix tie on an unpublished node, or
// more steps than there are nodes — as ok=false.
func (s *Store) findGE(key []byte, kp prefix, prev *[maxHeight]*nodeEntry) (ge *nodeEntry, hit *nodeDesc, ok bool) {
	budget := s.cfg.MetaSlots + maxHeight + 1
	cur := &s.head
	var w, seen uint32 // seen: the last link found >= key, so still >= key one level down
	for level := maxHeight - 1; level >= 0; level-- {
		for w = cur.next[level].Load(); w != 0 && w != seen; w = cur.next[level].Load() {
			e := s.nodes.load(int(w - 1))
			if e == nil || budget == 0 {
				return nil, nil, false
			}
			budget--
			c := kp.cmp(e.ka.Load(), e.kb.Load())
			var d *nodeDesc
			if c == 0 {
				if d = e.desc.Load(); d == nil {
					return nil, nil, false
				}
				if c = cmpTie(key, d.key); c != 0 {
					d = nil
				}
			}
			if c <= 0 {
				ge, hit, seen = e, d, w
				break
			}
			cur = e
		}
		if prev != nil {
			prev[level] = cur
		}
	}
	if w == 0 {
		return nil, nil, true // level 0 ran off the end: every key is < key
	}
	return ge, hit, true
}

// publishLocked gives d's key node id n: it stores d and its key prefix
// in the node; the caller maps d's slot to it and links it. Caller holds
// s.mu inside a mutation bracket.
func (s *Store) publishLocked(d *nodeDesc, n int) *nodeEntry {
	d.node = int32(n)
	e := s.nodes.at(n)
	e.desc.Store(d)
	e.ka.Store(d.kp.a)
	e.kb.Store(d.kp.b)
	return e
}

// insertLocked indexes d, whose key is absent: it takes a free node id,
// links the node after its predecessors and enters it in the hash
// table. Caller holds s.mu inside a mutation bracket.
func (s *Store) insertLocked(d *nodeDesc) {
	var prev [maxHeight]*nodeEntry
	s.findGE(d.key, d.kp, &prev) // cannot tear under s.mu
	n := s.takeNodeLocked()
	e := s.publishLocked(d, n)
	s.slots.at(d.slot).nodeXor = uint32(n ^ d.slot)
	e.height = int32(s.randomHeightLocked())
	for l := range e.height {
		e.next[l].Store(prev[l].next[l].Load())
		prev[l].next[l].Store(uint32(n + 1))
	}
	s.bucketInsertLocked(d.hash, n)
	s.count++
}

// swapLocked makes d the record of old's key: d takes over the key's
// node, whose links, height and prefix stay as they are. Caller holds
// s.mu inside a mutation bracket.
func (s *Store) swapLocked(d, old *nodeDesc) {
	d.node = old.node
	s.nodes.load(int(d.node)).desc.Store(d)
	s.slots.at(d.slot).nodeXor = uint32(int(d.node) ^ d.slot)
}

// unlinkLocked removes d's key from the index and frees its node id: the
// shared tail of Delete and scrub excision. It searches by the
// descriptor's own key copy, so it works when the record's PM key bytes
// are damaged. Caller holds s.mu inside a mutation bracket.
func (s *Store) unlinkLocked(d *nodeDesc) {
	var prev [maxHeight]*nodeEntry
	if _, hit, _ := s.findGE(d.key, d.kp, &prev); hit != d {
		panic("pktstore: unlinking a record that is not indexed")
	}
	e := s.nodes.load(int(d.node))
	for l := range e.height {
		prev[l].next[l].Store(e.next[l].Load())
	}
	s.bucketDeleteLocked(d.hash, int(d.node))
	e.desc.Store(nil)
	s.nodeUsed[d.node/64] &^= 1 << (d.node % 64)
	s.nodeLow = min(s.nodeLow, int(d.node/64))
	s.count--
}

// takeNodeLocked takes the lowest free node id, so the node table's
// chunks follow the keys in use. Nodes never outnumber slots, so an
// insert, which holds a slot, always finds one.
func (s *Store) takeNodeLocked() int {
	for w := s.nodeLow; ; w++ {
		if free := ^s.nodeUsed[w]; free != 0 {
			b := bits.TrailingZeros64(free)
			s.nodeUsed[w] |= 1 << b
			s.nodeLow = w
			return w*64 + b
		}
	}
}

// minBuckets is the smallest hash table: room for 32 keys.
const minBuckets = 64

// newBuckets returns an empty hash table for up to n keys: a power of
// two at least twice n, so keys never fill more than half of it and an
// insert always finds an empty bucket. Sized to the keys, not to
// Config.MetaSlots, a store's table is as small as its index and an open
// faults in only what its keys need.
func newBuckets(n int) []atomic.Uint32 {
	return make([]atomic.Uint32, 1<<bits.Len(uint(max(2*n, minBuckets)-1)))
}

// bucketInsertLocked enters node n, whose key hashes to h, in the first
// empty bucket of its run. If the key would fill more than half of the
// table, it first fills a doubled table with every entry and then
// publishes it with one store, so a probe meets either the old table or
// the whole new one.
func (s *Store) bucketInsertLocked(h uint64, n int) {
	b := *s.buckets.Load()
	if 2*(s.count+1) > len(b) {
		g := newBuckets(len(b))
		for i := range b {
			if w := b[i].Load(); w != 0 {
				bucketStore(g, s.nodes.load(int(w-1)).desc.Load().hash, int(w-1))
			}
		}
		s.buckets.Store(&g)
		b = g
	}
	bucketStore(b, h, n)
}

// bucketStore stores node n in the first empty bucket of h's run in b.
func bucketStore(b []atomic.Uint32, h uint64, n int) {
	mask := uint64(len(b) - 1)
	i := h & mask
	for b[i].Load() != 0 {
		i = (i + 1) & mask
	}
	b[i].Store(uint32(n + 1))
}

// bucketDeleteLocked removes node n, whose key hashes to h, by backward
// shift: each later bucket of the run whose home lies at or before the
// hole moves into it, and the last hole empties. No tombstones, so a
// probe's length stays the distance to its home.
func (s *Store) bucketDeleteLocked(h uint64, n int) {
	b := *s.buckets.Load()
	mask := uint64(len(b) - 1)
	i := h & mask
	for b[i].Load() != uint32(n+1) {
		i = (i + 1) & mask
	}
	for j := i; ; {
		j = (j + 1) & mask
		w := b[j].Load()
		if w == 0 {
			break
		}
		home := s.nodes.load(int(w-1)).desc.Load().hash & mask
		if (j-home)&mask >= (j-i)&mask { // home is not in (i, j]: w may fill the hole
			b[i].Store(w)
			i = j
		}
	}
	b[i].Store(0)
}

// setValueBadLocked flips the serving gate of slot idx's record, if it is
// indexed (an unindexed record cannot be read, gated or not).
func (s *Store) setValueBadLocked(idx int, bad bool) {
	if d := s.descAt(idx); d != nil {
		d.gated.Store(bad)
	}
}
