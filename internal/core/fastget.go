package core

import (
	"runtime"
	"sync"

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
//   - The index (index.go): a hash table of node ids over the keys'
//     64-byte skip-list nodes, each holding its key's current immutable
//     descriptor pointer and key prefix. Mutators change it under s.mu
//     inside their seqlock brackets; readers probe it with plain atomic
//     loads — the same probe the locked point paths use. Mid-bracket
//     the table can be momentarily torn — a bucket naming a freed node
//     or a chunk never allocated, a run a backward-shift delete is
//     moving (a false miss), a descriptor just swapped — which readers
//     treat as a retry signal, never an error.
//
//   - Per-data-slot pin counters (dataState.pins). A validated
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
//	gated record        — damaged value: the locked path answers typed
//	retries exhausted   — sustained churn; the lock is cheaper
//	checksum mismatch   — media damage (or a race the sequence cannot
//	                      see): the locked path re-reads and decides
//	LockedReads         — the lock-vs-no-lock A/B knob for benchmarks
//
// A shard rebuild (Rehydrate) brackets its whole body and is therefore
// just another sequence change to readers — the epoch fence needs no
// separate read-side check.

// beginMutLocked opens a mutation bracket: the first (outermost) level
// flips the store's sequence odd, so lock-free readers fall back or
// discard. Caller holds s.mu. Brackets nest (a delete commits the staged
// group; a scrub or a rescan triggers repairs).
func (s *Store) beginMutLocked() {
	if s.mutDepth == 0 {
		s.mutSeq.Add(1) // even -> odd
	}
	s.mutDepth++
}

// endMutLocked closes a mutation bracket; the outermost close first
// waits out the PM time the store still owes for stores no fence paid
// (pmem.Domain.Pay), so no debt outlives s.mu or the bracket, then flips
// the sequence back to even (a new value, so readers that snapshotted
// before the bracket reject their results).
func (s *Store) endMutLocked() {
	s.mutDepth--
	if s.mutDepth == 0 {
		s.pm.Pay()
		s.mutSeq.Add(1) // odd -> even
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
		s.data[s.dataSlotIndex(d.exts[i].Off)].pins.Add(1)
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
		if s.data[idx].pins.Add(-1) == 0 && s.data[idx].recycleWanted.Load() {
			retry = true
		}
	}
	if !retry {
		return
	}
	s.mu.Lock()
	for i := range exts {
		idx := s.dataSlotIndex(exts[i].Off)
		if s.data[idx].recycleWanted.Load() {
			s.data[idx].recycleWanted.Store(false)
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
	// or a torn index the sequence cannot explain).
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
// mutation sequence is verified unchanged since before the probe; the
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
	ge, ok := s.probe(key, s.hashKey(key))
	if !ok {
		if s.mutSeq.Load() != seq0 {
			return nil, 0, fastRetrySeq
		}
		// A torn index with no sequence change should not happen; be
		// defensive and take the lock rather than loop.
		return nil, 0, fastFall
	}
	if ge == nil {
		// A miss, possibly false (a backward shift in flight): only an
		// unchanged sequence makes it true.
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
		return nil, 0, fastFall // damaged value: locked path answers typed
	}
	return ge, seq0, fastOK
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
		s.data[s.dataSlotIndex(e.Off)].pins.Add(1)
	}
	s.mu.Unlock()
	exts := ref.Extents
	var once sync.Once
	release := func() { once.Do(func() { s.unpinFast(exts) }) }
	return ref, release, true, nil
}
