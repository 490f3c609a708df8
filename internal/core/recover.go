package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"packetstore/internal/checksum"
)

// rescanMode selects what a slot-array rescan reconstructs beyond the
// index itself.
type rescanMode int

const (
	// rescanRecover is boot-time recovery: the volatile state is fresh
	// and every live data slot must transition pool -> store exactly once
	// (a double adoption is corruption).
	rescanRecover rescanMode = iota
	// rescanRehydrate is the online rebuild of a quarantined store: the
	// slab allocator is shared with a still-wired NIC and survives the
	// rebuild, so adoption is tolerant of already-allocated slots, and
	// store-owned reference counts are recomputed from scratch.
	rescanRehydrate
	// rescanIndex rebuilds only the index, free list and counts (after
	// the scrubber excises records or finds a damaged tower). Data-slot
	// ownership is untouched: an excised record's slots keep their
	// references and are thereby fenced from reuse — the damage may be
	// media.
	rescanIndex
)

// recover rebuilds the store from the persistent metadata slots after a
// reboot or crash: it scans every slot, keeps the committed records
// (newest sequence per key), rebuilds the skip-list index, reconstructs
// the volatile allocation state (metadata free list, data-slot reference
// counts), and restores the sequence counter. Nothing in recovery trusts
// the pre-crash index links — the scan is the ground truth, which is what
// makes the at-runtime tower updates safe to leave unflushed.
func (s *Store) recover() error { return s.rescan(rescanRecover) }

// rescan is the shared scan-and-rebuild pass behind boot recovery,
// online rehydration and scrubber-triggered index repair.
func (s *Store) rescan(mode rescanMode) error {
	type rec struct {
		idx int
		key []byte
		seq uint64
	}
	used := make([]bool, s.cfg.MetaSlots)
	var survivors []rec
	byKey := make(map[string]int) // key -> survivors index
	unrecoverable := 0

	// The whole rescan is one mutation bracket: lock-free readers fall
	// back for its duration, and the descriptor mirror is rebuilt from
	// scratch alongside the index (survivors republish below; everything
	// else — excised, deduped, quarantined — stays unpublished).
	s.beginMutLocked()
	defer s.endMutLocked()
	for i := range s.recs {
		s.recs[i].Store(nil)
	}

	s.seq, s.count, s.quarantined = 0, 0, 0
	for i := range s.metaFenced {
		s.metaFenced[i] = false
	}
	if mode != rescanIndex {
		// Serving gates are re-derived: repaired records drop them, still-
		// damaged ones re-earn them through the repair paths below.
		for i := range s.valueBad {
			s.valueBad[i] = false
		}
	}
	if mode == rescanRehydrate {
		// Record reference counts are about to be recomputed from the
		// scan; any surviving store-owned slot starts at zero. External
		// pins (dataPins) are NOT reset — their holders survive the
		// rebuild and release them later, which is what lets pinned slots
		// re-admit to the pool afterwards. Slots whose records do not
		// survive stay slab-allocated with zero references until an
		// in-flight ReleaseUnused resolves them (or leak, bounded by the
		// work in flight at the heal event — see Rehydrate).
		for i := range s.dataRefs {
			if s.dataRefs[i] > 0 {
				s.dataRefs[i] = 0
			}
		}
	}

	for i := 0; i < s.cfg.MetaSlots; i++ {
		sl := s.slot(i)
		if binary.LittleEndian.Uint32(sl[oMagic:]) != slotMagic {
			continue
		}
		seq := binary.LittleEndian.Uint64(sl[oSeq:])
		if seq == 0 {
			continue // never committed, or deleted
		}
		if err := s.validateSlot(sl); err != nil {
			if s.parity != nil && mode == rescanRehydrate {
				// The rebuild owns the group's repairMu (Rehydrate takes it
				// before the store lock), so reconstruction runs with the
				// whole group quiesced.
				switch rerr := s.repairRecordLocked(i, true); {
				case rerr == nil:
					goto survived // repaired and re-validated: a normal record
				case errors.Is(rerr, errMetaDamage):
					// Parity spans the data area only; metadata damage still
					// takes the excise path below.
				default:
					// Deferred (a group peer is down) or unrecoverable. Fence
					// the slot without clearing its commit word: the media is
					// preserved, so a retry after the peer rejoins can still
					// reconstruct. The rescan as a whole fails typed — the
					// shard must not serve while acked records are missing.
					unrecoverable++
					s.quarantined++
					s.metaFenced[i] = true
					s.scrubStamp[i] = 0
					used[i] = true
					continue
				}
			}
			if s.onQuarantine != nil {
				s.onQuarantine(i, err)
			}
			// A committed slot that fails validation is corruption:
			// quarantine it. It is never served (not indexed) and never
			// reused (kept out of the free list — the fault may be media
			// damage that would eat the next record too), and the store
			// still opens: every other committed record keeps serving.
			s.quarantined++
			s.metaFenced[i] = true
			used[i] = true
			continue
		}
	survived:
		key := append([]byte(nil), s.slotKey(sl)...)
		if j, dup := byKey[string(key)]; dup {
			// Keep the newer version; retire the loser.
			if survivors[j].seq >= seq {
				s.clearSeqLocked(i)
				continue
			}
			s.clearSeqLocked(survivors[j].idx)
			survivors[j] = rec{idx: i, key: key, seq: seq}
		} else {
			byKey[string(key)] = len(survivors)
			survivors = append(survivors, rec{idx: i, key: key, seq: seq})
		}
		if seq > s.seq {
			s.seq = seq
		}
	}

	if s.parity != nil && mode == rescanRehydrate {
		// Value sweep: slot CRCs cover metadata and keys, but only the
		// value checksum notices damaged value bytes, and boot-style scans
		// never read values. A rebuild with parity attached does — except
		// for records the scrubber validated within the last full pass,
		// whose stamps make the re-read redundant (the scrub-aware rebuild
		// hand-off that shrinks time-to-rejoin).
		kept := survivors[:0]
		for _, rv := range survivors {
			if st := s.scrubStamp[rv.idx]; st != 0 && s.scrubPass-st <= 1 {
				kept = append(kept, rv)
				continue
			}
			sl := s.slot(rv.idx)
			if s.valueChecksumOKLocked(sl) {
				s.scrubStamp[rv.idx] = s.scrubPass
				kept = append(kept, rv)
				continue
			}
			if rerr := s.repairRecordLocked(rv.idx, true); rerr == nil {
				kept = append(kept, rv)
				continue
			}
			// Damaged beyond what the group can reconstruct right now:
			// fence, preserve the media, fail the rescan typed below.
			unrecoverable++
			s.quarantined++
			s.metaFenced[rv.idx] = true
			s.scrubStamp[rv.idx] = 0
			used[rv.idx] = true
		}
		survivors = kept
	}

	// Mark used slots (records + their chains) and data references.
	for _, rv := range survivors {
		used[rv.idx] = true
		sl := s.slot(rv.idx)
		exts, err := s.readExtentsLocked(sl)
		if err != nil {
			return err
		}
		chain := int(binary.LittleEndian.Uint32(sl[oChain:])) - 1
		for hops := 0; chain >= 0; hops++ {
			if chain >= s.cfg.MetaSlots || hops >= s.cfg.MetaSlots {
				return fmt.Errorf("%w: chain index out of range", ErrCorrupt)
			}
			used[chain] = true
			cs := s.slot(chain)
			chain = int(binary.LittleEndian.Uint32(cs[oChainNext:])) - 1
		}
		if mode == rescanIndex {
			continue // ownership state is already correct
		}
		tolerant := mode == rescanRehydrate
		koff := int(binary.LittleEndian.Uint32(sl[oKOff:]))
		s.adoptForRecovery(koff, tolerant)
		s.dataRefs[s.dataSlotIndex(koff)]++
		for _, e := range exts {
			s.adoptForRecovery(e.Off, tolerant)
			s.dataRefs[s.dataSlotIndex(e.Off)]++
		}
	}

	// Free list: all unused slots.
	s.metaFree = s.metaFree[:0]
	for i := s.cfg.MetaSlots - 1; i >= 0; i-- {
		if !used[i] {
			s.metaFree = append(s.metaFree, i)
		}
	}

	// Rebuild the index in key order with each record's stored height.
	slices.SortFunc(survivors, func(a, b rec) int { return bytes.Compare(a.key, b.key) })
	var last [maxHeight]int
	var noLinks [4 * maxHeight]byte
	for l := range last {
		last[l] = -1
		s.setHeadNext(l, -1)
	}
	for _, rv := range survivors {
		sl := s.slot(rv.idx)
		h := int(sl[oHeight])
		if h < 1 || h > maxHeight {
			h = 1
		}
		// Clear the tower with one store (links are rewritten as successors
		// arrive), then publish the descriptor from the cleared image — the
		// writeSlotNextLocked calls below mirror into it — handing it the
		// scan's copy of the key: no second read of the data area.
		s.pm.Write(s.slotOff(rv.idx)+oTower, noLinks[:])
		s.publishDescLocked(rv.idx, rv.seq, rv.key)
		for l := 0; l < h; l++ {
			if last[l] < 0 {
				s.setHeadNext(l, rv.idx)
			} else {
				s.writeSlotNextLocked(last[l], l, rv.idx)
			}
			last[l] = rv.idx
		}
	}
	// Persist the rebuilt level-0 chain and head.
	s.pm.Flush(s.base+sbOTower, 4*maxHeight)
	for _, rv := range survivors {
		s.pm.Flush(s.slotOff(rv.idx)+oTower, 4*maxHeight)
	}
	s.pm.Fence()

	s.count = len(survivors)
	if unrecoverable > 0 {
		// Committed (possibly acked) records exist that cannot currently be
		// reconstructed. The store must not be re-admitted as serving — a
		// miss for those keys would be silent loss — so the rescan fails
		// with the typed error; the supervisor keeps the shard down and
		// retries once group peers rejoin.
		return fmt.Errorf("%w: %d slots await parity repair or exceed redundancy", ErrUnrecoverable, unrecoverable)
	}
	return nil
}

// adoptForRecovery transitions a data slot from pool-owned to store-owned
// (once) during the scan. Boot recovery runs strict: two committed records
// claiming one slab slot is corruption. An online rehydrate runs tolerant:
// the slab is shared with a live NIC whose allocation state legitimately
// survives the rebuild.
func (s *Store) adoptForRecovery(off int, tolerant bool) {
	idx := s.dataSlotIndex(off)
	if s.dataRefs[idx] < 0 {
		s.dataRefs[idx] = 0
		if !s.pool.MarkSlotLive(s.dataBase+idx*s.cfg.DataBufSize) && !tolerant {
			panic("pktstore: recovery double-adopted a data slot")
		}
	}
}

// validateSlot sanity-checks a committed slot's offsets, then verifies
// the stored CRC32C (slot image fields + key bytes, and every chain
// slot) before trusting any of it. Structural checks run first so the
// key read the checksum needs is itself safe.
func (s *Store) validateSlot(sl []byte) error {
	klen := int(binary.LittleEndian.Uint32(sl[oKLen:]))
	koff := int(binary.LittleEndian.Uint32(sl[oKOff:]))
	if klen == 0 || klen > 0xffff {
		return fmt.Errorf("%w: key length %d", ErrCorrupt, klen)
	}
	if !s.inDataArea(koff, klen) {
		return fmt.Errorf("%w: key outside data area", ErrCorrupt)
	}
	exts, err := s.readExtentsLocked(sl)
	if err != nil {
		return err
	}
	vlen := int(binary.LittleEndian.Uint32(sl[oVLen:]))
	total := 0
	for _, e := range exts {
		if e.Len <= 0 || !s.inDataArea(e.Off, e.Len) {
			return fmt.Errorf("%w: extent outside data area", ErrCorrupt)
		}
		total += e.Len
	}
	if total != vlen {
		return fmt.Errorf("%w: extent lengths %d != value length %d", ErrCorrupt, total, vlen)
	}
	if binary.LittleEndian.Uint32(sl[oSlotSum:]) != slotSum(sl, s.slotKey(sl)) {
		return fmt.Errorf("%w: slot checksum mismatch", ErrCorrupt)
	}
	chain := int(binary.LittleEndian.Uint32(sl[oChain:])) - 1
	for hops := 0; chain >= 0; hops++ {
		if chain >= s.cfg.MetaSlots || hops >= s.cfg.MetaSlots {
			return fmt.Errorf("%w: broken extent chain", ErrCorrupt)
		}
		cs := s.slot(chain)
		if binary.LittleEndian.Uint32(cs[oSlotSum:]) != chainSum(cs) {
			return fmt.Errorf("%w: chain slot checksum mismatch", ErrCorrupt)
		}
		chain = int(binary.LittleEndian.Uint32(cs[oChainNext:])) - 1
	}
	return nil
}

func (s *Store) inDataArea(off, n int) bool {
	return off >= s.dataBase && off+n <= s.dataBase+s.cfg.DataSlots*s.cfg.DataBufSize
}

func (s *Store) clearSeqLocked(idx int) {
	s.clearDescLocked(idx)
	off := s.slotOff(idx)
	s.pm.WriteUint64(off+oSeq, 0)
	s.pm.Persist(off+oSeq, 8)
}

// Record is one entry reported by iteration. Value is populated only by
// Range (Ascend hands out extent references instead).
type Record struct {
	Key   []byte
	Value []byte
	Ref   Ref
}

// Ascend walks records in key order, calling fn until it returns false.
// The callback runs under the store lock; it must not call back into the
// store.
func (s *Store) Ascend(start []byte, fn func(rec Record) bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	// Iteration is a commit barrier, like GetRef: staged records must be
	// durable before they are observable.
	s.commitStagedLocked()
	s.stats.Ranges++
	var idx int
	if len(start) == 0 {
		idx = s.headNext(0)
	} else {
		idx = s.findGE(start, nil)
	}
	for idx >= 0 {
		sl := s.slot(idx)
		if s.valueBad[idx] {
			// Damaged value awaiting deferred parity repair: omitted from
			// iteration rather than handing out bytes that cannot be
			// trusted (point reads answer the typed error instead).
			idx = slotNext(sl, 0)
			continue
		}
		s.pm.Touch(s.slotOff(idx), 64)
		exts, err := s.readExtentsLocked(sl)
		if err != nil {
			return err
		}
		rec := Record{
			Key: append([]byte(nil), s.slotKey(sl)...),
			Ref: Ref{
				Extents: exts,
				VLen:    int(binary.LittleEndian.Uint32(sl[oVLen:])),
				Csum:    binary.LittleEndian.Uint32(sl[oVCsum:]),
				Seq:     binary.LittleEndian.Uint64(sl[oSeq:]),
			},
		}
		if !fn(rec) {
			return nil
		}
		idx = slotNext(sl, 0)
	}
	return nil
}

// Range returns up to limit records with start <= key < end (nil end
// means unbounded), copying values out.
func (s *Store) Range(start, end []byte, limit int) ([]Record, error) {
	if limit <= 0 {
		limit = 1 << 30
	}
	var out []Record
	err := s.Ascend(start, func(rec Record) bool {
		if end != nil && string(rec.Key) >= string(end) {
			return false
		}
		out = append(out, rec)
		return len(out) < limit
	})
	if err != nil {
		return nil, err
	}
	// Copy values outside the walk (the refs stay valid under the single
	// lock model; this also verifies nothing).
	for i := range out {
		val := make([]byte, 0, out[i].Ref.VLen)
		for _, e := range out[i].Ref.Extents {
			val = append(val, s.Slice(e.Off, e.Len)...)
		}
		out[i].Ref.Extents = nil
		out[i].Value = val
	}
	return out, err
}

// Verify scrubs the store: every record's value bytes are re-read and
// checked against the stored (NIC-derived or computed) checksum. It
// returns the keys that fail — the integrity property the paper obtains
// for free from the transport checksum.
func (s *Store) Verify() ([][]byte, error) {
	var bad [][]byte
	err := s.Ascend(nil, func(rec Record) bool {
		var acc checksum.Accumulator
		for _, e := range rec.Ref.Extents {
			s.pm.Touch(e.Off, e.Len)
			acc.Add(s.pm.Slice(e.Off, e.Len))
		}
		if checksum.Norm16(checksum.Fold(acc.Sum())) != checksum.Norm16(checksum.Fold(rec.Ref.Csum)) {
			bad = append(bad, rec.Key)
		}
		return true
	})
	return bad, err
}

// SetQuarantineHook installs this store's quarantine observer (test
// hook): it is called with each slot the rescan fences off. Per-store,
// so parallel tests installing observers never race — the former global
// hook tripped the race detector when recovery tests ran in parallel.
func (s *Store) SetQuarantineHook(fn func(slot int, err error)) {
	s.mu.Lock()
	s.onQuarantine = fn
	s.mu.Unlock()
}
