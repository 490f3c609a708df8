package core

import (
	"bytes"
	"sync/atomic"
	"time"
)

// This file is the store's index: a skip list of DRAM descriptors, one
// per indexed record, ordered by key. It is the only index — nothing of
// it lives in PM; recovery rebuilds it from the committed slots
// (recover.go). Mutators change it under s.mu inside a seqlock bracket
// (fastget.go); locked readers walk it under s.mu, lock-free GETs walk
// it with plain atomic loads and validate against the sequence.

// nodeDesc is one record's index node and everything a read needs,
// snapshotted when the record is staged or recovered. All fields except
// gated and next are immutable after publication; a record update
// publishes a fresh descriptor rather than mutating the old one, so a
// lock-free reader holding a stale pointer sees a consistent (merely
// outdated) view and the sequence re-check rejects it.
type nodeDesc struct {
	slot   int      // metadata slot holding the record
	key    []byte   // private copy of the key bytes
	kp     uint64   // big-endian key prefix (compare order == bytes.Compare)
	exts   []Extent // immutable extent list
	vlen   int
	csum   uint32
	hwtime int64
	seq    uint64
	// gated stops serving while the record's value bytes are known-damaged
	// and awaiting a deferred parity repair: reads take the locked path,
	// which answers a typed ErrCorrupt instead of bytes that cannot be
	// trusted. A rescan publishes fresh, ungated descriptors; the repair
	// paths re-derive the gate.
	gated atomic.Bool
	// next holds, for each of the node's height levels, the successor's
	// slot index + 1 (0 = nil).
	height int
	next   [maxHeight]atomic.Uint32
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

// cmpDesc orders key (with prefix kp) against a descriptor: prefix
// first, then lengths for short keys, then a full compare.
func cmpDesc(key []byte, kp uint64, d *nodeDesc) int {
	if kp != d.kp {
		if kp < d.kp {
			return -1
		}
		return 1
	}
	if len(key) <= 8 && len(d.key) <= 8 {
		// Prefix equal and both fit in it: the shorter key sorts first.
		return len(key) - len(d.key)
	}
	return bytes.Compare(key, d.key)
}

// link returns the level-l successor word of d, or of the head when d
// is nil.
func (s *Store) link(d *nodeDesc, l int) *atomic.Uint32 {
	if d == nil {
		return &s.head[l]
	}
	return &d.next[l]
}

// findGE walks the index to the first record with key >= key (nil when
// there is none); prev, when non-nil, receives each level's last node
// before it (nil = head). Under s.mu the walk always completes. A
// lock-free walk can meet an index torn mid-bracket — a link to a slot
// whose descriptor is unpublished, or more steps than there are slots —
// and reports ok=false, which its caller maps to retry/fallback.
func (s *Store) findGE(key []byte, kp uint64, prev *[maxHeight]*nodeDesc) (ge *nodeDesc, ok bool) {
	budget := len(s.meta) + maxHeight + 1
	var cur, nxt *nodeDesc // cur nil = head
	for level := maxHeight - 1; level >= 0; level-- {
		for {
			nxt = nil
			if w := s.link(cur, level).Load(); w != 0 {
				if nxt = s.meta[w-1].desc.Load(); nxt == nil || budget == 0 {
					return nil, false
				}
				budget--
			}
			if nxt == nil || cmpDesc(key, kp, nxt) <= 0 {
				break
			}
			cur = nxt
		}
		if prev != nil {
			prev[level] = cur
		}
	}
	return nxt, true
}

// lookupLocked returns key's descriptor, or nil when the key is absent.
// Caller holds s.mu.
func (s *Store) lookupLocked(key []byte, prev *[maxHeight]*nodeDesc) *nodeDesc {
	kp := keyPrefix(key)
	ge, ok := s.findGE(key, kp, prev)
	if !ok {
		panic("pktstore: index torn under the store lock")
	}
	if ge == nil || cmpDesc(key, kp, ge) != 0 {
		return nil
	}
	return ge
}

// insertLocked publishes d and links it into the index after prev (from
// a lookupLocked of d.key), replacing old — the key's current record —
// if there is one. Caller holds s.mu inside a mutation bracket.
func (s *Store) insertLocked(d, old *nodeDesc, prev *[maxHeight]*nodeDesc) {
	oldHeight := 0
	if old != nil {
		oldHeight = old.height
	}
	s.meta[d.slot].desc.Store(d)
	for l := 0; l < max(d.height, oldHeight); l++ {
		succ := s.link(prev[l], l).Load()
		if l < oldHeight {
			succ = old.next[l].Load() // prev[l] links to old: bypass it
		}
		if l < d.height {
			d.next[l].Store(succ)
			succ = uint32(d.slot + 1)
		}
		s.link(prev[l], l).Store(succ)
	}
}

// unlinkLocked removes d from the index and unpublishes it: the shared
// tail of Delete and scrub excision. It searches by the descriptor's own
// key copy, so it works when the record's PM key bytes are damaged.
// Caller holds s.mu inside a mutation bracket.
func (s *Store) unlinkLocked(d *nodeDesc) {
	var prev [maxHeight]*nodeDesc
	if s.lookupLocked(d.key, &prev) != d {
		panic("pktstore: unlinking a record that is not indexed")
	}
	for l := 0; l < d.height; l++ {
		s.link(prev[l], l).Store(d.next[l].Load())
	}
	s.meta[d.slot].desc.Store(nil)
	s.count--
}

// setValueBadLocked flips the serving gate of slot idx's record, if it is
// indexed (an unindexed record cannot be read, gated or not).
func (s *Store) setValueBadLocked(idx int, bad bool) {
	if d := s.meta[idx].desc.Load(); d != nil {
		d.gated.Store(bad)
	}
}
