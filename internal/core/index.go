package core

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"sync/atomic"
	"time"
)

// This file is the store's index: a skip list ordered by key whose nodes
// are the metadata slots' volatile entries, one per indexed record. It
// is the only index — nothing of it lives in PM; recovery rebuilds it
// from the committed slots (recover.go). Mutators change it under s.mu
// inside a seqlock bracket (fastget.go); locked readers walk it under
// s.mu, lock-free GETs walk it with plain atomic loads and validate
// against the sequence.
//
// One hop of the walk reads one cache line: an entry is 64 bytes and
// holds the links and a 16-byte key prefix beside the descriptor
// pointer, so only a prefix tie — in practice the target's own node —
// loads the descriptor.

// metaState is the volatile entry of one metadata slot and, while the
// slot holds an indexed record, that record's skip-list node. desc, ka,
// kb and next are written under Store.mu inside a mutation bracket and
// loaded atomically by lock-free readers (a slot can be reused while a
// stale reader stands on it); stamp and fenced are guarded by Store.mu.
type metaState struct {
	// desc is the slot's published descriptor, or nil when the slot
	// holds no indexed record.
	desc atomic.Pointer[nodeDesc]
	// ka, kb are the record's 16-byte key prefix, copied from the
	// descriptor so a hop compares keys without leaving the entry.
	ka, kb atomic.Uint64
	// next holds, for each of the node's height levels, the successor's
	// slot index + 1 (0 = nil). Levels at or above the height are stale.
	next [maxHeight]atomic.Uint32
	// stamp is the scrub generation (Store.scrubPass) that last validated
	// the slot's record; rebuilds skip re-validating fresh stamps.
	stamp uint32
	// fenced marks a slot quarantined for failed validation, so the
	// scrubber doesn't re-report the same damage every pass.
	fenced bool
}

// metaChunk is the entry table's allocation unit: 1024 entries, 64 KiB.
// A chunk is allocated when a slot in it is first touched, so the
// table's memory follows the slots in use rather than Config.MetaSlots.
const metaChunk = 1024

type metaChunkArr [metaChunk]metaState

// entry returns slot idx's entry, allocating its chunk on first touch.
// Caller holds s.mu.
func (s *Store) entry(idx int) *metaState {
	c := s.meta[idx/metaChunk].Load()
	if c == nil {
		c = new(metaChunkArr)
		s.meta[idx/metaChunk].Store(c)
	}
	return &c[idx%metaChunk]
}

// loadEntry returns slot idx's entry, or nil when its chunk was never
// allocated (no slot in it was ever touched). It allocates nothing, so
// lock-free walkers and read-only callers use it.
func (s *Store) loadEntry(idx int) *metaState {
	if c := s.meta[idx/metaChunk].Load(); c != nil {
		return &c[idx%metaChunk]
	}
	return nil
}

// descAt returns slot idx's published descriptor, or nil.
func (s *Store) descAt(idx int) *nodeDesc {
	if e := s.loadEntry(idx); e != nil {
		return e.desc.Load()
	}
	return nil
}

// nodeDesc is everything a read needs of one record, snapshotted when
// the record is staged or recovered. All fields except gated are
// immutable after publication; a record update publishes a fresh
// descriptor rather than mutating the old one, so a lock-free reader
// holding a stale pointer sees a consistent (merely outdated) view and
// the sequence re-check rejects it. The links live in the slot's entry.
type nodeDesc struct {
	slot int      // metadata slot holding the record
	key  []byte   // private copy of the key bytes
	kp   prefix   // the key's 16-byte prefix, also in the entry
	exts []Extent // immutable extent list
	vlen int
	csum uint32
	// gated stops serving while the record's value bytes are known-damaged
	// and awaiting a deferred parity repair: reads take the locked path,
	// which answers a typed ErrCorrupt instead of bytes that cannot be
	// trusted. A rescan publishes fresh, ungated descriptors; the repair
	// paths re-derive the gate.
	gated  atomic.Bool
	hwtime int64
	seq    uint64
	height int // index levels the record's entry is linked at
}

// refFromDesc materialises the public Ref from a descriptor.
func refFromDesc(d *nodeDesc) Ref {
	return Ref{
		Extents: append([]Extent(nil), d.exts...),
		VLen:    d.vlen,
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

// findGE walks the index to the entry of the first record with key >=
// key (nil when there is none); hit is that record's descriptor when its
// key equals key, else nil. prev, when non-nil, receives each level's
// last entry before it (&s.head at the front). Under s.mu the walk
// always completes. A lock-free walk can meet an index torn mid-bracket
// — a link into a chunk never allocated, a prefix tie on an unpublished
// entry, or more steps than there are slots — and reports ok=false,
// which its caller maps to retry/fallback.
func (s *Store) findGE(key []byte, kp prefix, prev *[maxHeight]*metaState) (ge *metaState, hit *nodeDesc, ok bool) {
	budget := s.cfg.MetaSlots + maxHeight + 1
	cur := &s.head
	var w, seen uint32 // seen: the last link found >= key, so still >= key one level down
	for level := maxHeight - 1; level >= 0; level-- {
		for w = cur.next[level].Load(); w != 0 && w != seen; w = cur.next[level].Load() {
			e := s.loadEntry(int(w - 1))
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

// lookupLocked returns key's descriptor, or nil when the key is absent.
// Caller holds s.mu.
func (s *Store) lookupLocked(key []byte, prev *[maxHeight]*metaState) *nodeDesc {
	_, hit, ok := s.findGE(key, keyPrefix(key), prev)
	if !ok {
		panic("pktstore: index torn under the store lock")
	}
	return hit
}

// insertLocked publishes d and links its slot's entry into the index
// after prev (from a lookupLocked of d.key), replacing old — the key's
// current record — if there is one. Caller holds s.mu inside a mutation
// bracket.
func (s *Store) insertLocked(d, old *nodeDesc, prev *[maxHeight]*metaState) {
	e := s.publishLocked(d)
	oldHeight := 0
	var oe *metaState
	if old != nil {
		oldHeight, oe = old.height, s.entry(old.slot)
	}
	for l := 0; l < max(d.height, oldHeight); l++ {
		succ := prev[l].next[l].Load()
		if l < oldHeight {
			succ = oe.next[l].Load() // prev[l] links to old: bypass it
		}
		if l < d.height {
			e.next[l].Store(succ)
			succ = uint32(d.slot + 1)
		}
		prev[l].next[l].Store(succ)
	}
}

// publishLocked stores d and its key prefix in its slot's entry and
// returns the entry; the caller links it. Caller holds s.mu inside a
// mutation bracket.
func (s *Store) publishLocked(d *nodeDesc) *metaState {
	e := s.entry(d.slot)
	e.desc.Store(d)
	e.ka.Store(d.kp.a)
	e.kb.Store(d.kp.b)
	return e
}

// unlinkLocked removes d from the index and unpublishes it: the shared
// tail of Delete and scrub excision. It searches by the descriptor's own
// key copy, so it works when the record's PM key bytes are damaged.
// Caller holds s.mu inside a mutation bracket.
func (s *Store) unlinkLocked(d *nodeDesc) {
	var prev [maxHeight]*metaState
	if s.lookupLocked(d.key, &prev) != d {
		panic("pktstore: unlinking a record that is not indexed")
	}
	e := s.entry(d.slot)
	for l := 0; l < d.height; l++ {
		prev[l].next[l].Store(e.next[l].Load())
	}
	e.desc.Store(nil)
	s.count--
}

// setValueBadLocked flips the serving gate of slot idx's record, if it is
// indexed (an unindexed record cannot be read, gated or not).
func (s *Store) setValueBadLocked(idx int, bad bool) {
	if d := s.descAt(idx); d != nil {
		d.gated.Store(bad)
	}
}
