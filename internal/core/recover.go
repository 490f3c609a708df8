package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"packetstore/internal/checksum"
)

// recover rebuilds the store from the persistent metadata slots after a
// reboot or crash: it scans every slot, keeps the committed records
// (newest sequence per key), builds the index over them, reconstructs
// the volatile allocation state (metadata free list, data-slot reference
// counts), and restores the sequence counter. The scan is the ground
// truth: no index state is persisted.
func (s *Store) recover() error { return s.rescan(false) }

// rescan is the scan-and-rebuild pass behind boot recovery and, with
// online set, the rebuild of a quarantined store. At boot the volatile
// state is fresh and every live data slot must transition pool -> store
// exactly once (a double adoption is corruption). Online, the slab
// allocator is shared with a still-wired NIC and survives the rebuild,
// so adoption is tolerant of already-allocated slots, and store-owned
// reference counts are recomputed from scratch.
func (s *Store) rescan(online bool) error {
	used := make([]bool, s.cfg.MetaSlots)
	var survivors []*nodeDesc
	byKey := make(map[string]int) // key -> survivors index
	unrecoverable := 0
	// fenceUnrecoverable fences a damaged slot the group cannot
	// reconstruct right now without clearing its commit word: the media is
	// preserved, so a retry after the peer rejoins can still reconstruct.
	// The rescan as a whole then fails typed — the shard must not serve
	// while acked records are missing.
	fenceUnrecoverable := func(i int) {
		unrecoverable++
		s.quarantined++
		s.meta[i].fenced, s.meta[i].stamp = true, 0
		used[i] = true
	}

	// The whole rescan is one mutation bracket: lock-free readers fall
	// back for its duration, and the index is rebuilt from scratch
	// (survivors republish below; everything else — excised, deduped,
	// quarantined — stays unpublished). Serving gates go with the old
	// descriptors: repaired records come back ungated, still-damaged ones
	// re-earn the gate at the next scrub.
	s.beginMutLocked()
	defer s.endMutLocked()
	for l := range s.head {
		s.head[l].Store(0)
	}
	for i := range s.meta {
		s.meta[i].desc.Store(nil)
		s.meta[i].fenced = false
	}
	s.seq, s.count, s.quarantined = 0, 0, 0
	if online {
		// Record reference counts are about to be recomputed from the
		// scan; any surviving store-owned slot starts at zero. External
		// pins are NOT reset — their holders survive the rebuild and
		// release them later, which is what lets pinned slots re-admit to
		// the pool afterwards. Slots whose records do not survive stay
		// slab-allocated with zero references until an in-flight
		// ReleaseUnused resolves them (or leak, bounded by the work in
		// flight at the heal event — see Rehydrate).
		for i := range s.data {
			if s.data[i].refs > 0 {
				s.data[i].refs = 0
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
		exts, err := s.validateSlot(sl)
		if err != nil && s.parity != nil && online {
			// The rebuild owns the group's repairMu (Rehydrate takes it
			// before the store lock), so reconstruction runs with the
			// whole group quiesced.
			switch rerr := s.repairRecordLocked(i, true); {
			case rerr == nil:
				exts, err = s.validateSlot(sl) // repaired: a normal record
			case errors.Is(rerr, errMetaDamage):
				// Parity spans the data area only; metadata damage still
				// takes the excise path below.
			default:
				fenceUnrecoverable(i) // deferred (a group peer is down) or lost
				continue
			}
		}
		if err != nil {
			// A committed slot that fails validation is corruption:
			// quarantine it. It is never served (not indexed) and never
			// reused (kept out of the free list — the fault may be media
			// damage that would eat the next record too), and the store
			// still opens: every other committed record keeps serving.
			s.quarantineSlotLocked(i, err)
			used[i] = true
			continue
		}
		d := &nodeDesc{
			slot:   i,
			key:    bytes.Clone(s.slotKey(sl)),
			kp:     binary.LittleEndian.Uint64(sl[oKPrefix:]),
			exts:   exts,
			vlen:   int(binary.LittleEndian.Uint32(sl[oVLen:])),
			csum:   binary.LittleEndian.Uint32(sl[oVCsum:]),
			hwtime: int64(binary.LittleEndian.Uint64(sl[oHWTime:])),
			seq:    seq,
		}
		if j, dup := byKey[string(d.key)]; dup {
			// Keep the newer version; retire the loser.
			if survivors[j].seq >= seq {
				s.clearSeqLocked(i)
				continue
			}
			s.clearSeqLocked(survivors[j].slot)
			survivors[j] = d
		} else {
			byKey[string(d.key)] = len(survivors)
			survivors = append(survivors, d)
		}
		s.seq = max(s.seq, seq)
	}

	if s.parity != nil && online {
		// Value sweep: slot CRCs cover metadata and keys, but only the
		// value checksum notices damaged value bytes, and boot-style scans
		// never read values. A rebuild with parity attached does — except
		// for records the scrubber validated within the last full pass,
		// whose stamps make the re-read redundant (the scrub-aware rebuild
		// hand-off that shrinks time-to-rejoin).
		kept := survivors[:0]
		for _, d := range survivors {
			m := &s.meta[d.slot]
			switch {
			case m.stamp != 0 && s.scrubPass-m.stamp <= 1:
			case s.valueChecksumOKLocked(s.slot(d.slot)):
				m.stamp = s.scrubPass
			case s.repairRecordLocked(d.slot, true) == nil:
			default:
				fenceUnrecoverable(d.slot)
				continue
			}
			kept = append(kept, d)
		}
		survivors = kept
	}

	// Mark used slots (records + their chains) and data references.
	for _, d := range survivors {
		used[d.slot] = true
		sl := s.slot(d.slot)
		chain := int(binary.LittleEndian.Uint32(sl[oChain:])) - 1
		for ; chain >= 0; chain = int(binary.LittleEndian.Uint32(s.slot(chain)[oChainNext:])) - 1 {
			used[chain] = true // validateSlot bounded the chain
		}
		koff := int(binary.LittleEndian.Uint32(sl[oKOff:]))
		s.adoptForRecovery(koff, online)
		s.data[s.dataSlotIndex(koff)].refs++
		for _, e := range d.exts {
			s.adoptForRecovery(e.Off, online)
			s.data[s.dataSlotIndex(e.Off)].refs++
		}
	}

	// Free list: all unused slots.
	s.metaFree = s.metaFree[:0]
	for i := s.cfg.MetaSlots - 1; i >= 0; i-- {
		if !used[i] {
			s.metaFree = append(s.metaFree, i)
		}
	}

	// Build the index in key order; heights come from the store's seeded
	// generator, so the same survivors always build the same index.
	slices.SortFunc(survivors, func(a, b *nodeDesc) int { return bytes.Compare(a.key, b.key) })
	var last [maxHeight]*nodeDesc
	for _, d := range survivors {
		d.height = s.randomHeightLocked()
		s.insertLocked(d, nil, &last)
		for l := 0; l < d.height; l++ {
			last[l] = d
		}
	}

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

// quarantineSlotLocked fences a committed slot that failed validation
// and reports it to the quarantine hook.
func (s *Store) quarantineSlotLocked(i int, err error) {
	if s.onQuarantine != nil {
		s.onQuarantine(i, err)
	}
	s.quarantined++
	s.meta[i].fenced = true
}

// adoptForRecovery transitions a data slot from pool-owned to store-owned
// (once) during the scan. Boot recovery runs strict: two committed records
// claiming one slab slot is corruption. An online rehydrate runs tolerant:
// the slab is shared with a live NIC whose allocation state legitimately
// survives the rebuild.
func (s *Store) adoptForRecovery(off int, tolerant bool) {
	idx := s.dataSlotIndex(off)
	if s.data[idx].refs < 0 {
		s.data[idx].refs = 0
		if !s.pool.MarkSlotLive(s.dataBase+idx*s.cfg.DataBufSize) && !tolerant {
			panic("pktstore: recovery double-adopted a data slot")
		}
	}
}

// validateSlot sanity-checks a committed slot's offsets, then verifies
// the stored CRC32C (slot image + key bytes, and every chain slot)
// before trusting any of it, and returns the record's extents.
// Structural checks run first so the key read the checksum needs is
// itself safe.
func (s *Store) validateSlot(sl []byte) ([]Extent, error) {
	klen := int(binary.LittleEndian.Uint32(sl[oKLen:]))
	koff := int(binary.LittleEndian.Uint32(sl[oKOff:]))
	if klen == 0 || klen > 0xffff {
		return nil, fmt.Errorf("%w: key length %d", ErrCorrupt, klen)
	}
	if !s.inDataArea(koff, klen) {
		return nil, fmt.Errorf("%w: key outside data area", ErrCorrupt)
	}
	exts, err := s.readExtentsLocked(sl)
	if err != nil {
		return nil, err
	}
	vlen := int(binary.LittleEndian.Uint32(sl[oVLen:]))
	total := 0
	for _, e := range exts {
		if e.Len <= 0 || !s.inDataArea(e.Off, e.Len) {
			return nil, fmt.Errorf("%w: extent outside data area", ErrCorrupt)
		}
		total += e.Len
	}
	if total != vlen {
		return nil, fmt.Errorf("%w: extent lengths %d != value length %d", ErrCorrupt, total, vlen)
	}
	if binary.LittleEndian.Uint32(sl[oSlotSum:]) != slotSum(sl, s.slotKey(sl)) {
		return nil, fmt.Errorf("%w: slot checksum mismatch", ErrCorrupt)
	}
	chain := int(binary.LittleEndian.Uint32(sl[oChain:])) - 1
	for hops := 0; chain >= 0; hops++ {
		if chain >= s.cfg.MetaSlots || hops >= s.cfg.MetaSlots {
			return nil, fmt.Errorf("%w: broken extent chain", ErrCorrupt)
		}
		cs := s.slot(chain)
		if binary.LittleEndian.Uint32(cs[oSlotSum:]) != chainSum(cs) {
			return nil, fmt.Errorf("%w: chain slot checksum mismatch", ErrCorrupt)
		}
		chain = int(binary.LittleEndian.Uint32(cs[oChainNext:])) - 1
	}
	return exts, nil
}

func (s *Store) inDataArea(off, n int) bool {
	return off >= s.dataBase && off+n <= s.dataBase+s.cfg.DataSlots*s.cfg.DataBufSize
}

// clearSeqLocked clears slot idx's commit word and fences the clear: from
// here on no scan sees the record.
func (s *Store) clearSeqLocked(idx int) {
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
	d, _ := s.findGE(start, keyPrefix(start), nil) // cannot tear under s.mu
	for d != nil {
		// A damaged value awaiting deferred parity repair is omitted from
		// iteration rather than handing out bytes that cannot be trusted
		// (point reads answer the typed error instead).
		if !d.gated.Load() && !fn(Record{Key: bytes.Clone(d.key), Ref: refFromDesc(d)}) {
			return nil
		}
		next := d.next[0].Load()
		if d = nil; next != 0 {
			d = s.meta[next-1].desc.Load()
		}
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
