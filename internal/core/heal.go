package core

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// This file is the self-healing layer: online rehydration of a
// quarantined store and the background scrubber's budgeted slot walk.
// Everything here runs against a live region — no reboot, no repool —
// which is what distinguishes it from recover.go's boot path.

// Rehydrate re-runs recovery on this store's PM area in place, while the
// region (and the NIC wired to this store's receive pool) stays live.
// It repairs a damaged superblock from the configured geometry, rescans
// the slot array, rebuilds the index and recomputes the allocation state
// — and it reuses the existing packet pool, so the NIC's DMA wiring and
// slab allocation survive.
//
// Staged-but-uncommitted puts are dropped, and the epoch advances to
// make that loss detectable: a server that buffered acks against the
// staged group re-checks Epoch after its Commit, and a mismatch tells
// it those acks must not reach the client (it fails the connections
// instead — the writes were never durable, so nothing acked is lost).
//
// Record reference counts are recomputed from the scan; external pins
// (dataState.pins — transmit borrows, the server's key arena) are preserved,
// because their holders still append into or read from those slots.
// A slot re-admits to the NIC pool once both counts drain. Slots that
// were store-owned but end the scan unreferenced and unpinned (e.g.
// packet buffers mid-parse, or the data of dropped staged puts) stay
// slab-allocated: in-flight server work may still resolve them via
// ReleaseUnused, and anything truly orphaned leaks — bounded by the
// in-flight work at the instant of one heal event, not by later churn.
func (s *Store) Rehydrate() error {
	// With parity, a rebuild is also a reconstruction pass: take the
	// group's repair mutex before the store lock, so every repair below
	// runs with the group quiesced (scrub repairs elsewhere in the group
	// try-lock this mutex and defer). s.parity is immutable after attach.
	if rt := s.parity; rt != nil {
		rt.repairMu.Lock()
		defer rt.repairMu.Unlock()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// The whole rebuild is one mutation bracket: lock-free readers fall
	// back from the first dropped staged put to the rebuilt index, which
	// also covers the epoch advance — no separate read-side epoch check.
	s.beginMutLocked()
	defer s.endMutLocked()
	s.staged = nil
	s.stagedN.Store(0)
	s.fs.Reset()
	if s.validateSuperblock() != nil {
		s.writeSuperblock()
	}
	s.epoch++
	return s.rescan(true)
}

// CheckSuperblock revalidates the superblock magic and geometry — the
// scrubber's cheap per-pass shard-health probe. A failure means the
// store's layout anchor is damaged; the caller quarantines the shard and
// lets Rebuild repair it from configuration.
func (s *Store) CheckSuperblock() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.validateSuperblock()
}

// ScrubResult reports one budgeted scrub step.
type ScrubResult struct {
	// Checked counts committed record slots whose CRC and value checksum
	// were re-verified this step.
	Checked int
	// Bad counts slots found damaged (slot CRC, structural, or value
	// checksum failure).
	Bad int
	// Excised counts committed records this step dropped from the index
	// (quarantined slots plus value-corrupt records retired).
	Excised int
	// Reconstructed counts damaged records repaired in place from parity
	// this step (their fences lifted, their bytes re-validated).
	Reconstructed int
	// Unrecoverable counts records whose reconstruction failed because
	// the loss exceeds the group's redundancy — the caller quarantines
	// the shard so the damage surfaces typed, never as silent misses.
	Unrecoverable int
	// NeedsRebuild counts damaged records an in-place repair could not
	// handle right now (group peer down or busy, or metadata damage):
	// the caller quarantines the shard and lets the rebuild path — which
	// owns the whole group — reconstruct or excise them.
	NeedsRebuild int
	// Next is the cursor for the following step; 0 means the pass
	// wrapped (one full sweep of the slot array completed).
	Next int
}

// ScrubSlots re-validates up to n committed slots starting at cursor —
// the background scrubber's unit of work. Each slot's stored CRC32C
// (which covers the commit word) is re-checked, and the record's value
// bytes are re-read against the transport-derived checksum, so both
// metadata bit flips and data-area media damage surface here instead of
// at the next reboot. Without parity, a damaged record is excised in
// place — unlinked from the index by its descriptor, which still holds
// the key even when the slot's key bytes are damaged: a CRC-corrupt slot
// is quarantined exactly as boot recovery would, a value-corrupt record
// is retired (commit word cleared — the meta slot is clean and recycles;
// the damaged data slots are fenced via dataState.held so they never
// rejoin the NIC pool). With parity, it is repaired from the group.
//
// The caller paces calls to meet its lines/sec budget; each call holds
// the store lock, so n bounds the per-step latency impact on serving
// operations.
func (s *Store) ScrubSlots(cursor, n int) ScrubResult {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.commitStagedLocked()
	// One bracket for the whole step: repairs rewrite media in place and
	// excised records unlink, so lock-free readers sit out the step (its
	// length is already bounded by n to cap serving-latency impact).
	s.beginMutLocked()
	defer s.endMutLocked()
	if cursor < 0 || cursor >= s.cfg.MetaSlots {
		cursor = 0
	}
	end := min(cursor+n, s.cfg.MetaSlots)
	var res ScrubResult
	for i := cursor; i < end; i++ {
		sl := s.slot(i)
		if binary.LittleEndian.Uint32(sl[oMagic:]) != slotMagic {
			continue // free, or a chain slot (validated via its record)
		}
		if binary.LittleEndian.Uint64(sl[oSeq:]) == 0 {
			continue // uncommitted or deleted
		}
		m := s.slots.at(i)
		if m.fenced {
			continue // already quarantined: damage reported once
		}
		res.Checked++
		s.pm.Touch(s.slotOff(i), s.cfg.SlotSize)
		d := s.descAt(i)
		exts, err := s.validateSlot(sl, nil)
		if err != nil {
			res.Bad++
			m.stamp = 0
			if s.parity == nil {
				s.quarantineSlotLocked(i, err)
				if d != nil {
					s.unlinkLocked(d)
					res.Excised++
				}
				continue
			}
			// CRC damage with parity: the record cannot be served (its key
			// bytes or extents are untrustworthy, so a lookup would miss
			// silently). Repair in place, or hand the shard to the rebuild
			// path, which owns the whole group.
			switch rerr := s.repairRecordLocked(i, false); {
			case rerr == nil:
				res.Reconstructed++
			case errors.Is(rerr, ErrUnrecoverable):
				res.Unrecoverable++
				s.setValueBadLocked(i, true)
			default: // deferred or metadata damage
				res.NeedsRebuild++
			}
			continue
		}
		if s.valueChecksumOKLocked(sl) {
			m.stamp = s.scrubPass
			continue
		}
		res.Bad++
		m.stamp = 0
		if s.parity != nil {
			// Data-area media damage under intact metadata: exactly what
			// parity covers. Repair in place; if the group cannot help
			// right now, gate the record (typed reads, skipped scans)
			// and fence its data slots until a later pass repairs it.
			switch rerr := s.repairRecordLocked(i, false); {
			case rerr == nil:
				res.Reconstructed++
			case errors.Is(rerr, ErrUnrecoverable):
				res.Unrecoverable++
				s.setValueBadLocked(i, true)
			default:
				s.setValueBadLocked(i, true)
				s.holdExtentsLocked(exts)
			}
			continue
		}
		// The metadata is intact but the value bytes are not: media
		// damage in the data area. Fence the data slots (the slot CRC
		// passed, so the extents are trustworthy and point at exactly the
		// damaged media — it must never be handed back to the NIC pool,
		// even after a later rebuild recomputes the reference counts),
		// then retire the record as a delete would.
		if s.onQuarantine != nil {
			s.onQuarantine(i, fmt.Errorf("%w: value checksum mismatch", ErrCorrupt))
		}
		s.holdExtentsLocked(exts)
		if d != nil {
			s.retireLocked(d)
			res.Excised++
		}
	}
	if end >= s.cfg.MetaSlots {
		res.Next = 0
		// One full sweep completed: advance the validation generation the
		// per-slot stamps are measured against (rebuilds trust stamps from
		// the current or previous generation).
		s.scrubPass++
	} else {
		res.Next = end
	}
	return res
}

// holdExtentsLocked fences the data slots under exts for media damage.
func (s *Store) holdExtentsLocked(exts []Extent) {
	for _, e := range exts {
		s.data[s.dataSlotIndex(e.Off)].held = true
	}
}

// FlipTarget selects which byte class CorruptRecord damages.
type FlipTarget int

const (
	// FlipSlotField flips a CRC-covered metadata field (the hardware
	// timestamp / value checksum words — served from the descriptor, never
	// re-read from PM, so the damage is latent until a scrub or reboot).
	FlipSlotField FlipTarget = iota
	// FlipKeyByte flips a key byte in the data area (covered by the slot
	// CRC).
	FlipKeyByte
	// FlipValueByte flips a value byte (covered by the transport-derived
	// value checksum).
	FlipValueByte
)

// CorruptRecord flips bits in key's committed record — the fault
// injection hook behind the heal torture mode. The damage hits both the
// volatile and durable images (a media fault, like pmem.CorruptByte,
// because that is what it uses). pick selects the byte within the
// target class; mask is the XOR pattern (a zero mask is promoted to 1
// so the call always damages something). Returns the absolute region
// offset flipped, or -1 when the key is absent.
func (s *Store) CorruptRecord(key []byte, t FlipTarget, pick int, mask byte) int {
	if mask == 0 {
		mask = 1
	}
	if pick < 0 {
		pick = -pick
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.commitStagedLocked()
	// Injection is a media mutation: bracket it so a lock-free reader
	// copying the victim's bytes discards its snapshot (the flip may land
	// mid-copy — pins stop repairs and recycling, not injected damage).
	s.beginMutLocked()
	defer s.endMutLocked()
	d := s.lookupLocked(key, s.hashKey(key))
	if d == nil {
		return -1
	}
	sl := s.slot(d.slot)
	var off int
	switch t {
	case FlipKeyByte:
		klen := int(binary.LittleEndian.Uint32(sl[oKLen:]))
		koff := int(binary.LittleEndian.Uint32(sl[oKOff:]))
		off = koff + pick%klen
	case FlipValueByte:
		exts, err := s.readExtentsLocked(sl, nil)
		if err != nil || len(exts) == 0 {
			return -1
		}
		total := 0
		for _, e := range exts {
			total += e.Len
		}
		p := pick % total
		for _, e := range exts {
			if p < e.Len {
				off = e.Off + p
				break
			}
			p -= e.Len
		}
	default:
		// [oHWTime, oKLen): timestamp and value-checksum bytes. CRC-covered
		// (detection guaranteed).
		off = s.slotOff(d.slot) + oHWTime + pick%(oKLen-oHWTime)
	}
	s.pm.Region().CorruptByte(off, mask)
	return off
}
