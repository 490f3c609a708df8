package core

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"packetstore/internal/checksum"
	"packetstore/internal/pmem"
)

// This file is the lock-free GET fast path (DESIGN.md §5.13): an
// optimistic, seqlock-validated read protocol that serves point lookups
// without ever taking the store mutex.
//
// Three pieces cooperate:
//
//   - A per-store mutation sequence (mutSeq): even = stable, odd = a
//     mutation is in flight. Every section that changes the index, the
//     slot area or the data area — stage, group commit, delete, scrub
//     rewrite, parity repair, rehydrate, fault injection — brackets
//     itself with beginMutLocked/endMutLocked under s.mu. Readers
//     snapshot an even sequence, do their work, and re-check it;
//     any change means a mutation overlapped and the result is thrown
//     away.
//
//   - A volatile mirror of the persistent skip list: one immutable
//     descriptor (nodeDesc) per committed record, published through
//     recs[slot] with an atomic head tower (fastHead) and per-node
//     atomic successor towers. Mutators maintain the mirror under s.mu
//     inside their seqlock brackets; readers walk it with plain atomic
//     loads. The mirror can be momentarily torn mid-bracket — a nil
//     descriptor or an exhausted step budget — which readers treat as a
//     retry signal, never an error.
//
//   - Per-data-slot pin counters (dataPins, now atomic). A validated
//     reader pins its record's data slots before re-checking the
//     sequence; sequential consistency of the two atomics makes the pin
//     visible to any mutator that could recycle or rewrite the slot
//     (the mutator stores the odd sequence before inspecting pins, the
//     reader pins before loading the even sequence — both cannot
//     succeed). Pinned slots are never returned to the NIC pool and
//     never rewritten in place by a parity repair, so the reader's
//     value bytes stay stable without the store lock. A mutator that
//     finds a slot pinned publishes a recycle intent (recycleWanted);
//     the final unpinner re-enters the lock and completes the recycle.
//
// Fallback taxonomy (all land in the locked slow path, counted by
// FastGetFallbacks):
//
//	odd sequence        — a mutation holds the store; queue behind it
//	staged puts pending — reads are a commit barrier and must stay one
//	gated record        — valueBad: the locked path answers typed
//	retries exhausted   — sustained churn; the lock is cheaper
//	checksum mismatch   — media damage (or a race the sequence cannot
//	                      see): the locked path re-reads and decides
//	LockedReads         — the A/B baseline knob for benchmarks
//
// A shard rebuild (Rehydrate) brackets its whole body and is therefore
// just another sequence change to readers — the epoch fence needs no
// separate read-side check.

// nodeDesc is the volatile mirror of one committed record: everything a
// lock-free GET needs, snapshotted at publish time. All fields except
// gated and next are immutable after publication; a record update
// publishes a fresh descriptor rather than mutating the old one, so a
// reader holding a stale pointer sees a consistent (merely outdated)
// view and the sequence re-check rejects it.
type nodeDesc struct {
	key    []byte   // private copy of the key bytes
	kp     uint64   // big-endian key prefix (compare order == bytes.Compare)
	koff   int      // region offset of the key bytes (latency modeling)
	exts   []Extent // immutable extent list
	vlen   int
	csum   uint32
	hwtime int64
	seq    uint64
	// gated mirrors valueBad[slot]: the record's value bytes are damaged
	// and awaiting parity repair, so reads must take the locked path for
	// its typed error.
	gated atomic.Bool
	// next mirrors the slot's tower: successor slot index + 1 per level
	// (0 = nil), updated by writeSlotNextLocked alongside the PM image.
	next [maxHeight]atomic.Uint32
}

// beginMutLocked opens a mutation bracket: the first (outermost) level
// flips the store's sequence odd, so lock-free readers fall back or
// discard. Caller holds s.mu. Brackets nest (a delete commits the staged
// group; a scrub triggers a rescan; a rescan triggers repairs).
func (s *Store) beginMutLocked() {
	if s.mutDepth == 0 {
		s.mutSeq.Add(1) // even -> odd
	}
	s.mutDepth++
}

// endMutLocked closes a mutation bracket; the outermost close flips the
// sequence back to even (a new value, so readers that snapshotted before
// the bracket reject their results).
func (s *Store) endMutLocked() {
	s.mutDepth--
	if s.mutDepth == 0 {
		s.mutSeq.Add(1) // odd -> even
	}
}

// publishDescLocked builds and publishes slot idx's descriptor from its
// current slot image. seq is the record's commit sequence (at stage time
// the image still carries seq=0, so the caller passes the assigned one);
// key is a DRAM copy of the record's key, which the descriptor keeps.
// Caller holds s.mu inside a mutation bracket.
func (s *Store) publishDescLocked(idx int, seq uint64, key []byte) {
	sl := s.slot(idx)
	exts, err := s.readExtentsLocked(sl)
	if err != nil {
		// A record whose extents cannot be decoded is never served fast;
		// the locked path owns its typed error.
		s.recs[idx].Store(nil)
		return
	}
	d := &nodeDesc{
		key:    key,
		kp:     binary.LittleEndian.Uint64(sl[oKPrefix:]),
		koff:   int(binary.LittleEndian.Uint32(sl[oKOff:])),
		exts:   exts,
		vlen:   int(binary.LittleEndian.Uint32(sl[oVLen:])),
		csum:   binary.LittleEndian.Uint32(sl[oVCsum:]),
		hwtime: int64(binary.LittleEndian.Uint64(sl[oHWTime:])),
		seq:    seq,
	}
	for l := 0; l < maxHeight; l++ {
		d.next[l].Store(binary.LittleEndian.Uint32(sl[oTower+4*l:]))
	}
	d.gated.Store(s.valueBad[idx])
	s.recs[idx].Store(d)
}

// clearDescLocked unpublishes slot idx's descriptor (record retired,
// superseded, excised or about to be rebuilt).
func (s *Store) clearDescLocked(idx int) {
	s.recs[idx].Store(nil)
}

// setValueBadLocked flips a record's serving gate and mirrors it into
// the published descriptor so lock-free readers fall back immediately.
func (s *Store) setValueBadLocked(idx int, bad bool) {
	s.valueBad[idx] = bad
	if d := s.recs[idx].Load(); d != nil {
		d.gated.Store(bad)
	}
}

// cmpDesc orders key against a descriptor, mirroring compareKey: prefix
// first, then lengths for short keys, then a full compare. The full
// compare runs against the descriptor's DRAM key copy but still bills
// the PM read the locked walk would pay, so the fast path's speedup is
// lock removal, not an accounting artifact.
func (s *Store) cmpDesc(key []byte, kp uint64, d *nodeDesc, charge bool) int {
	if kp != d.kp {
		if kp < d.kp {
			return -1
		}
		return 1
	}
	if len(key) <= 8 && len(d.key) <= 8 {
		switch {
		case len(key) == len(d.key):
			return 0
		case len(key) < len(d.key):
			return -1
		default:
			return 1
		}
	}
	if charge {
		s.pm.Touch(d.koff, min(len(d.key), 64))
	}
	return bytes.Compare(key, d.key)
}

// fastFindGE walks the descriptor mirror to the first record >= key,
// charging the same modeled PM latency as the locked findGE (bottom two
// levels touch the slot line and, on full compares, the key bytes).
// ok=false reports a torn mirror — a nil descriptor or an exhausted
// step budget mid-bracket — which the caller maps to retry/fallback.
func (s *Store) fastFindGE(key []byte, kp uint64) (ge *nodeDesc, ok bool) {
	budget := s.cfg.MetaSlots + maxHeight + 1
	var cur *nodeDesc // nil = head
	level := maxHeight - 1
	for {
		var nxt int
		if cur == nil {
			nxt = int(s.fastHead[level].Load()) - 1
		} else {
			nxt = int(cur.next[level].Load()) - 1
		}
		if nxt >= 0 {
			if nxt >= len(s.recs) {
				return nil, false
			}
			if budget--; budget < 0 {
				return nil, false
			}
			d := s.recs[nxt].Load()
			if d == nil {
				return nil, false
			}
			if level <= 1 {
				s.pm.Touch(s.slotOff(nxt), 64)
			}
			if s.cmpDesc(key, kp, d, level <= 1) > 0 {
				cur = d
				continue
			}
			if level == 0 {
				return d, true
			}
		} else if level == 0 {
			return nil, true
		}
		level--
	}
}

// lineSpan counts the cache lines [off, off+n) covers — the unit the
// batched read charge (pmem.TouchLines) is billed in.
func lineSpan(off, n int) int {
	if n <= 0 {
		return 0
	}
	return (off+n-1)/pmem.LineSize - off/pmem.LineSize + 1
}

// pinDescExtents pins the data slots a descriptor's extents occupy.
func (s *Store) pinDescExtents(d *nodeDesc) {
	for i := range d.exts {
		s.dataPins[s.dataSlotIndex(d.exts[i].Off)].Add(1)
	}
}

// unpinFast drops fast-path pins. It re-enters the store lock only when
// a mutator published a deferred-recycle intent against one of the
// slots (it found the slot unreferenced but pinned); the final unpinner
// completes the recycle so pinned slots never leak.
func (s *Store) unpinFast(exts []Extent) {
	retry := false
	for i := range exts {
		idx := s.dataSlotIndex(exts[i].Off)
		if s.dataPins[idx].Add(-1) == 0 && s.recycleWanted[idx].Load() {
			retry = true
		}
	}
	if !retry {
		return
	}
	s.mu.Lock()
	for i := range exts {
		idx := s.dataSlotIndex(exts[i].Off)
		if s.recycleWanted[idx].Load() {
			s.recycleWanted[idx].Store(false)
			s.maybeRecycleLocked(idx)
		}
	}
	s.mu.Unlock()
}

// fastOutcome classifies one optimistic lookup attempt.
type fastOutcome int

const (
	// fastOK: the lookup validated — a hit (descriptor returned, its
	// data slots pinned) or a definite miss (nil descriptor).
	fastOK fastOutcome = iota
	// fastRetrySeq: the sequence moved mid-lookup; worth retrying.
	fastRetrySeq
	// fastRetryOdd: a mutation bracket was open at snapshot time. On
	// read-mostly traffic the caller yields once so the mutator can
	// close it, then retries; under sustained write pressure (oddHot
	// saturated) it concedes straight to the lock.
	fastRetryOdd
	// fastFall: the locked path is required (staged puts, gated record,
	// or a torn mirror the sequence cannot explain).
	fastFall
)

// fastGetAttempts bounds optimistic retries before conceding to the
// lock: under sustained write churn the lock queue is cheaper than
// spinning through invalidated snapshots.
const fastGetAttempts = 3

// oddHot thresholds. A reader that catches an open mutation bracket
// yields once and retries only while the gauge is below oddHotYield —
// on read-mostly traffic brackets are rare, the gauge sits near zero,
// and the yield stops every concurrent reader from convoying onto the
// mutex behind one writer (the queue drains serially, so the convoy
// costs far more than the yield). Under sustained write pressure the
// gauge saturates and readers concede immediately: the bracket they'd
// wait out would just be followed by another, and the extra scheduler
// round only fattens the tail the lock queue already bounds.
const (
	oddHotYield = 16
	oddHotMax   = 128
)

// yieldOnOdd reports whether an open-bracket retry is worth a yield.
func (s *Store) yieldOnOdd() bool {
	if s.oddHot.Load() >= oddHotYield {
		return false
	}
	runtime.Gosched()
	return true
}

// fastLookup runs one optimistic lookup. On fastOK with a non-nil
// descriptor the record's data slots are pinned and the store's
// mutation sequence is verified unchanged since before the walk; the
// caller must unpinFast(d.exts) when done with the bytes.
func (s *Store) fastLookup(key []byte) (d *nodeDesc, seq0 uint64, out fastOutcome) {
	seq0 = s.mutSeq.Load()
	if seq0&1 != 0 {
		// A mutation bracket is open; let the caller decide (via oddHot)
		// between one yield-and-retry and an immediate concession.
		if s.oddHot.Load() < oddHotMax {
			s.oddHot.Add(2)
		}
		return nil, 0, fastRetryOdd
	}
	if v := s.oddHot.Load(); v > 0 {
		s.oddHot.Add(-1)
	}
	if s.stagedN.Load() != 0 {
		// Reads are a commit barrier: a staged group is pending and the
		// locked path must commit it before serving.
		return nil, 0, fastFall
	}
	kp := keyPrefix(key)
	ge, ok := s.fastFindGE(key, kp)
	if !ok {
		if s.mutSeq.Load() != seq0 {
			return nil, 0, fastRetrySeq
		}
		// Torn mirror with no sequence change should not happen; be
		// defensive and take the lock rather than loop.
		return nil, 0, fastFall
	}
	if ge == nil || s.cmpDesc(key, kp, ge, false) != 0 {
		if s.mutSeq.Load() != seq0 {
			return nil, 0, fastRetrySeq
		}
		return nil, seq0, fastOK // validated miss
	}
	s.pinDescExtents(ge)
	if s.mutSeq.Load() != seq0 {
		s.unpinFast(ge.exts)
		return nil, 0, fastRetrySeq
	}
	// The pins are now visible to every future mutation bracket (it
	// stores the odd sequence before inspecting pins; we pinned before
	// loading the even sequence — sequential consistency orders the
	// two), so the extents' slots can be neither recycled nor rewritten
	// in place until unpinned.
	if ge.gated.Load() {
		s.unpinFast(ge.exts)
		return nil, 0, fastFall // valueBad: locked path answers typed
	}
	return ge, seq0, fastOK
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

// fastGet is the lock-free copying read. done=false means the caller
// must run the locked slow path; val/ok are meaningful only when done.
func (s *Store) fastGet(key []byte) (val []byte, ok, done bool) {
	if s.cfg.LockedReads {
		return nil, false, false
	}
	yielded := false
	for attempt := 0; ; attempt++ {
		d, seq0, out := s.fastLookup(key)
		if out == fastRetryOdd && !yielded && s.yieldOnOdd() {
			yielded = true
			s.fastGetRetries.Add(1)
			continue
		}
		if out == fastRetrySeq && attempt+1 < fastGetAttempts {
			s.fastGetRetries.Add(1)
			continue
		}
		if out != fastOK {
			s.fastGetFallbacks.Add(1)
			return nil, false, false
		}
		if d == nil {
			s.gets.Add(1)
			s.fastGets.Add(1)
			return nil, false, true
		}
		// Copy each extent under its range's lock (atomic against
		// every locked mutator), billing the whole value as one batched
		// PM read charge — same total lines the locked path reads.
		buf := make([]byte, d.vlen)
		pos, nl := 0, 0
		for _, e := range d.exts {
			s.pm.CopyOut(buf[pos:pos+e.Len], e.Off)
			pos += e.Len
			nl += lineSpan(e.Off, e.Len)
		}
		off0 := 0
		if len(d.exts) > 0 {
			off0 = d.exts[0].Off
		}
		s.pm.TouchLines(off0, nl)
		s.unpinFast(d.exts)
		if s.mutSeq.Load() != seq0 {
			// A mutation (possibly fault injection into our pinned bytes —
			// pins stop repairs and recycling, not injected media damage)
			// overlapped the copy: discard it.
			if attempt+1 < fastGetAttempts {
				s.fastGetRetries.Add(1)
				continue
			}
			s.fastGetFallbacks.Add(1)
			return nil, false, false
		}
		if s.cfg.VerifyOnGet {
			var acc checksum.Accumulator
			pos = 0
			for _, e := range d.exts {
				acc.Add(buf[pos : pos+e.Len])
				pos += e.Len
			}
			if checksum.Norm16(checksum.Fold(acc.Sum())) != checksum.Norm16(checksum.Fold(d.csum)) {
				// Stable snapshot, bad bytes: media damage. The locked path
				// re-reads and owns the typed error.
				s.fastGetFallbacks.Add(1)
				return nil, false, false
			}
		}
		s.gets.Add(1)
		s.hits.Add(1)
		s.fastGets.Add(1)
		return buf, true, true
	}
}

// fastGetRef is the lock-free zero-copy lookup. Like the locked GetRef,
// the returned extents are only guaranteed stable while pinned
// (GetRefPinned does lookup and pin atomically).
func (s *Store) fastGetRef(key []byte) (ref Ref, ok, done bool) {
	if s.cfg.LockedReads {
		return Ref{}, false, false
	}
	yielded := false
	for attempt := 0; ; attempt++ {
		d, seq0, out := s.fastLookup(key)
		if out == fastRetryOdd && !yielded && s.yieldOnOdd() {
			yielded = true
			s.fastGetRetries.Add(1)
			continue
		}
		if out == fastRetrySeq && attempt+1 < fastGetAttempts {
			s.fastGetRetries.Add(1)
			continue
		}
		if out != fastOK {
			s.fastGetFallbacks.Add(1)
			return Ref{}, false, false
		}
		if d == nil {
			s.gets.Add(1)
			s.fastGets.Add(1)
			return Ref{}, false, true
		}
		ref = refFromDesc(d)
		s.unpinFast(d.exts)
		if s.mutSeq.Load() != seq0 {
			if attempt+1 < fastGetAttempts {
				s.fastGetRetries.Add(1)
				continue
			}
			s.fastGetFallbacks.Add(1)
			return Ref{}, false, false
		}
		s.gets.Add(1)
		s.hits.Add(1)
		s.fastGets.Add(1)
		return ref, true, true
	}
}

// GetRefPinned resolves key and pins the data slots its extents occupy
// in one atomic step, returning the pinned Ref and its release. It
// closes the lookup→pin window that separate GetRef + PinExtents calls
// leave open (a delete between them could recycle the slots out from
// under the pin), and in the common case it completes without touching
// the store mutex — the zero-copy transmit path's read.
func (s *Store) GetRefPinned(key []byte) (Ref, func(), bool, error) {
	if !s.cfg.LockedReads {
		for attempt := 0; ; attempt++ {
			d, _, out := s.fastLookup(key)
			if out == fastRetrySeq && attempt+1 < fastGetAttempts {
				s.fastGetRetries.Add(1)
				continue
			}
			if out != fastOK {
				s.fastGetFallbacks.Add(1)
				break // locked slow path below
			}
			if d == nil {
				s.gets.Add(1)
				s.fastGets.Add(1)
				return Ref{}, nil, false, nil
			}
			// The pins taken by fastLookup are the result: hold them until
			// the caller releases.
			s.gets.Add(1)
			s.hits.Add(1)
			s.fastGets.Add(1)
			exts := d.exts
			var once sync.Once
			release := func() { once.Do(func() { s.unpinFast(exts) }) }
			return refFromDesc(d), release, true, nil
		}
	}
	s.mu.Lock()
	ref, ok, err := s.getRefLocked(key)
	if err != nil || !ok {
		s.mu.Unlock()
		return Ref{}, nil, ok, err
	}
	for _, e := range ref.Extents {
		s.dataPins[s.dataSlotIndex(e.Off)].Add(1)
	}
	s.mu.Unlock()
	exts := ref.Extents
	var once sync.Once
	release := func() { once.Do(func() { s.unpinFast(exts) }) }
	return ref, release, true, nil
}
