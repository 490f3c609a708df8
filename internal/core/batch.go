package core

import (
	"encoding/binary"
	"time"
)

// prepared describes one staged put awaiting its group commit: the slot
// image is written (seq=0), the record's descriptor is published in its
// key's index node, and its dirty lines sit in the store's FlushSet.
type prepared struct {
	slot int    // metadata slot holding the uncommitted image
	seq  uint64 // commit sequence assigned at stage time
	// old is the committed slot this put replaces (-1 if none); its
	// commit word is cleared in phase C, after the group fence makes the
	// replacement durable.
	old int
	// superseded marks a staged put overwritten by a later put of the
	// same key inside the same batch: its commit word is never stamped,
	// and its slots are recycled after the group's phase A fence.
	superseded bool
}

// since returns the elapsed time for a breakdown phase, or 0 when
// breakdown collection is off (the fast path then never reads the
// clock: tnow returned the zero Time).
func (s *Store) since(t time.Time) time.Duration {
	if !s.cfg.Breakdown {
		return 0
	}
	return time.Since(t)
}

// tnow reads the clock only when breakdown collection is on.
func (s *Store) tnow() time.Time {
	if !s.cfg.Breakdown {
		return time.Time{}
	}
	return time.Now()
}

// PutStaged stages a copying write for the next Commit: the record is
// written, linked and readable, but not durable — and must not be
// acknowledged — until Commit's group fence. Any read, delete, sync or
// close commits the pending group first.
func (s *Store) PutStaged(key, value []byte) error {
	return s.putCopy(key, value, true)
}

// PutExtentsStaged stages a zero-copy write for the next Commit (see
// PutStaged for the deferred-durability contract).
func (s *Store) PutExtentsStaged(key []byte, vlen int, opt PutOptions) error {
	if len(key) == 0 || len(key) > 0xffff {
		return ErrKeyTooLong
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stagePutLocked(key, vlen, opt)
}

// Commit makes every staged put durable under one group flush and
// fence, and retires the versions they replaced. A no-op when nothing
// is staged.
func (s *Store) Commit() {
	s.mu.Lock()
	s.commitStagedLocked()
	s.mu.Unlock()
}

// StagedPuts reports how many puts await the next Commit.
func (s *Store) StagedPuts() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for i := range s.staged {
		if !s.staged[i].superseded {
			n++
		}
	}
	return n
}

// stagedIndexOf finds the live staged entry occupying slot idx, or -1.
func (s *Store) stagedIndexOf(idx int) int {
	for i := range s.staged {
		if s.staged[i].slot == idx && !s.staged[i].superseded {
			return i
		}
	}
	return -1
}

// commitStagedLocked is the group commit: three flush batches, each
// followed by one fence (phase C only when the group replaced committed
// records).
//
//	A: the staged images, data lines, key bytes and chain slots — all
//	   accumulated in s.fs at stage time — deduplicated and flushed.
//	B: commit words stamped with the stage-assigned sequences.
//	C: replaced records' commit words cleared, then their slots and
//	   data references recycled. Clearing strictly after the B fence
//	   keeps the invariant that at every instant a committed version of
//	   each acked key exists on media.
func (s *Store) commitStagedLocked() {
	if len(s.staged) == 0 {
		// No seqlock bracket on the empty case: read-path commit barriers
		// land here constantly and must not churn the mutation sequence.
		return
	}
	s.beginMutLocked()
	defer s.endMutLocked()
	tFlush := s.tnow()
	// Phase A. Parity deltas fold in first so the parity lines join the
	// same batch and persist under the same fence as the data they cover.
	s.applyParityLocked()
	s.pm.FlushBatch(&s.fs)
	s.pm.Fence()
	// Superseded puts' lines were in that batch: only now that its fence
	// has retired may their slots go back to the NIC pool, whose next DMA
	// would otherwise race the flush.
	for i := range s.staged {
		if p := &s.staged[i]; p.superseded {
			s.recycleRecordLocked(p.slot)
		}
	}

	// Phase B.
	live := 0
	for i := range s.staged {
		p := &s.staged[i]
		if p.superseded {
			continue
		}
		live++
		off := s.slotOff(p.slot)
		s.pm.WriteUint64(off+oSeq, p.seq)
		s.fs.Add(off+oSeq, 8)
	}
	s.pm.FlushBatch(&s.fs)
	s.pm.Fence()

	// Phase C.
	clears := false
	for i := range s.staged {
		if p := &s.staged[i]; p.old >= 0 {
			o := s.slotOff(p.old) + oSeq
			s.pm.WriteUint64(o, 0)
			s.fs.Add(o, 8)
			clears = true
		}
	}
	if clears {
		s.pm.FlushBatch(&s.fs)
		s.pm.Fence()
		for i := range s.staged {
			if p := &s.staged[i]; p.old >= 0 {
				s.recycleRecordLocked(p.old)
			}
		}
	}
	if live > 1 {
		s.stats.GroupCommits++
		s.stats.GroupedPuts += uint64(live)
	}
	s.bd.Flush += s.since(tFlush)
	s.staged = s.staged[:0]
	s.stagedN.Store(0)
}

// supersedeStagedLocked handles a same-key overwrite landing on a
// staged (uncommitted) record of the current batch: the earlier put's
// commit word is never stamped, and responsibility for the committed old
// version it was replacing — if any — transfers to the new put. Returns
// that inherited old slot. Its slots and data references are recycled
// by the group commit after phase A's fence (nothing on media refers to
// them — seq stays 0 — but their lines are still in s.fs).
func (s *Store) supersedeStagedLocked(j int) int {
	p := &s.staged[j]
	inherited := p.old
	p.old = -1
	p.superseded = true
	return inherited
}

// recycleRecordLocked returns a record's metadata slots (itself plus
// extent chains) to the free list and drops its data references,
// without touching the commit word — the caller has already cleared it
// (retireLocked), batched the clear (phase C), or never stamped it
// (superseded staged puts).
func (s *Store) recycleRecordLocked(idx int) {
	sl := s.slot(idx)
	exts, err := s.readExtentsLocked(sl, nil)
	koff := int(binary.LittleEndian.Uint32(sl[oKOff:]))
	chain := int(binary.LittleEndian.Uint32(sl[oChain:])) - 1
	for chain >= 0 {
		cs := s.slot(chain)
		next := int(binary.LittleEndian.Uint32(cs[oChainNext:])) - 1
		s.pm.WriteUint32(s.slotOff(chain)+oMagic, 0)
		s.metaFree = append(s.metaFree, int32(chain))
		chain = next
	}
	s.metaFree = append(s.metaFree, int32(idx))
	if err == nil {
		for _, e := range exts {
			s.unrefDataLocked(e.Off)
		}
	}
	s.unrefDataLocked(koff)
}
