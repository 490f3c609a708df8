package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"time"

	"packetstore/internal/checksum"
)

// PutOptions carries the zero-copy ingest description.
type PutOptions struct {
	// Extents locate the value bytes inside the data area. When nil, the
	// value is passed by copy via Put.
	Extents []Extent
	// KeyOff is the region offset of the key bytes inside the data area.
	KeyOff int
	// HasSum marks the extents' Sum fields as NIC-derived partial sums
	// (CHECKSUM_COMPLETE harvest); with Config.ChecksumReuse the store
	// then never reads the value bytes.
	HasSum bool
	// HWTime is the NIC hardware receive timestamp to persist as the
	// record's storage timestamp.
	HWTime time.Time
}

// PutExtents commits key -> value where the value (and key) bytes already
// live in the data area — the zero-copy ingest path. The data slots
// holding the extents and key must have been adopted (AdoptBuf).
func (s *Store) PutExtents(key []byte, vlen int, opt PutOptions) error {
	if len(key) == 0 || len(key) > 0xffff {
		return ErrKeyTooLong
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.stagePutLocked(key, vlen, opt); err != nil {
		return err
	}
	s.commitStagedLocked()
	return nil
}

// Put stores key -> value by copying both into freshly allocated data
// slots — the path for callers outside the network fast path (CLI tools,
// examples, tests). Integrity sums are computed in software.
func (s *Store) Put(key, value []byte) error {
	return s.putCopy(key, value, false)
}

// putCopy is the copying ingest shared by Put and PutStaged.
func (s *Store) putCopy(key, value []byte, staged bool) error {
	if len(key) == 0 || len(key) > 0xffff {
		return ErrKeyTooLong
	}
	s.mu.Lock()
	defer s.mu.Unlock()

	t0 := s.tnow()
	// Lay key then value into data slots: key always fits one slot
	// (<=64KB keys would span; restrict keys to one slot).
	if len(key) > s.cfg.DataBufSize {
		return ErrKeyTooLong
	}
	need := len(key) + len(value)
	var slots []int
	for covered := 0; covered < need || len(slots) == 0; {
		off := s.pool.Slab().Alloc()
		if off < 0 {
			for _, o := range slots {
				s.pool.Slab().Free(o)
			}
			return ErrFull
		}
		slots = append(slots, off)
		covered += s.cfg.DataBufSize
	}
	// The key occupies the head of the first slot; value bytes follow and
	// spill into subsequent slots.
	var exts []Extent
	s.pm.Write(slots[0], key)
	vOffInSlot := len(key)
	rest := value
	for i, base := range slots {
		room := s.cfg.DataBufSize
		start := base
		if i == 0 {
			room -= vOffInSlot
			start += vOffInSlot
		}
		n := min(room, len(rest))
		if n > 0 {
			s.pm.Write(start, rest[:n])
			exts = append(exts, Extent{Off: start, Len: n})
			rest = rest[n:]
		}
	}
	s.bd.Copy += s.since(t0)

	// Mark the slots store-owned (refcounts incremented by stagePutLocked).
	for _, base := range slots {
		s.data[s.dataSlotIndex(base)].refs = 0
	}
	err := s.stagePutLocked(key, len(value), PutOptions{
		Extents: exts, KeyOff: slots[0], HasSum: false, HWTime: time.Now(),
	})
	if err != nil {
		for _, base := range slots {
			s.data[s.dataSlotIndex(base)].refs = -1
			s.pool.Slab().Free(base)
		}
		return err
	}
	if !staged {
		s.commitStagedLocked()
	}
	// Slots with no references (value smaller than reserved space never
	// happens here: key slot always referenced) — nothing to release.
	return nil
}

// stagePutLocked prepares a put for the next group commit: it writes
// the data, key, chains and the uncommitted (seq=0) slot image, links
// the record's descriptor into the index, and accumulates every dirty
// range into s.fs. Nothing is flushed or fenced here — a per-op put is
// simply a stage followed immediately by commitStagedLocked.
func (s *Store) stagePutLocked(key []byte, vlen int, opt PutOptions) error {
	s.beginMutLocked()
	defer s.endMutLocked()
	if s.cfg.Breakdown {
		s.bd.Ops++
	}
	tAlloc := s.tnow()
	nChains := 0
	if n := len(opt.Extents); n > inlineExtents {
		nChains = (n - inlineExtents + chainExtents - 1) / chainExtents
	}
	if len(s.metaFree) < 1+nChains {
		return ErrFull
	}
	slotIdx := int(s.metaFree[len(s.metaFree)-1])
	s.metaFree = s.metaFree[:len(s.metaFree)-1]
	s.meta[slotIdx].stamp = 0
	chains := make([]int, nChains)
	for i := range chains {
		chains[i] = int(s.metaFree[len(s.metaFree)-1])
		s.metaFree = s.metaFree[:len(s.metaFree)-1]
		s.meta[chains[i]].stamp = 0
	}
	s.bd.Alloc += s.since(tAlloc)

	// Integrity: reuse NIC sums or compute in software.
	tCsum := s.tnow()
	exts := opt.Extents
	var acc checksum.Accumulator
	if opt.HasSum && s.cfg.ChecksumReuse {
		for i := range exts {
			if !acc.AddPartial(exts[i].Sum, exts[i].Len) {
				// Odd alignment: fold this extent in by reading it.
				acc.Add(s.pm.Slice(exts[i].Off, exts[i].Len))
			}
		}
		s.stats.ChecksumReused++
	} else {
		for i := range exts {
			exts[i].Sum = checksum.Partial(0, s.pm.Slice(exts[i].Off, exts[i].Len))
			if !acc.AddPartial(exts[i].Sum, exts[i].Len) {
				acc.Add(s.pm.Slice(exts[i].Off, exts[i].Len))
			}
		}
		s.stats.ChecksumComputed++
	}
	combined := acc.Sum()
	s.bd.Checksum += s.since(tCsum)

	tMeta := s.tnow()
	var prev [maxHeight]*nodeDesc
	old := s.lookupLocked(key, &prev)
	kp := keyPrefix(key)

	// Build the slot image with seq=0 (uncommitted).
	img := make([]byte, s.cfg.SlotSize)
	binary.LittleEndian.PutUint32(img[oMagic:], slotMagic)
	img[oExtCnt] = byte(len(exts))
	binary.LittleEndian.PutUint64(img[oHWTime:], uint64(opt.HWTime.UnixNano()))
	binary.LittleEndian.PutUint32(img[oVCsum:], combined)
	binary.LittleEndian.PutUint32(img[oKLen:], uint32(len(key)))
	binary.LittleEndian.PutUint64(img[oKPrefix:], kp)
	binary.LittleEndian.PutUint32(img[oKOff:], uint32(opt.KeyOff))
	binary.LittleEndian.PutUint32(img[oVLen:], uint32(vlen))
	// Inline extents + chain slots.
	inline := exts
	if len(inline) > inlineExtents {
		inline = inline[:inlineExtents]
	}
	for i, e := range inline {
		base := oExt + i*extSize
		binary.LittleEndian.PutUint32(img[base:], uint32(e.Off))
		binary.LittleEndian.PutUint32(img[base+4:], uint32(e.Len))
		binary.LittleEndian.PutUint32(img[base+8:], e.Sum)
	}
	if nChains > 0 {
		binary.LittleEndian.PutUint32(img[oChain:], uint32(chains[0]+1))
		s.writeChainsLocked(chains, exts[inlineExtents:])
	}
	// The checksum covers the commit word, so compute it with the final
	// sequence stamped in, then restore seq=0: the image persists
	// uncommitted, and the later 8-byte commit write turns the slot into
	// exactly what the sum describes.
	seq := s.seq + 1
	binary.LittleEndian.PutUint64(img[oSeq:], seq)
	binary.LittleEndian.PutUint32(img[oSlotSum:], slotSum(img, key))
	binary.LittleEndian.PutUint64(img[oSeq:], 0)
	s.bd.Meta += s.since(tMeta)

	// Stage the write-back set: the uncommitted slot image, the data
	// lines and the key bytes have no mutual persist order, so they all
	// join the group's flush batch (deduplicated — an extent sharing a
	// line with the key, or two slots sharing a line, costs one clwb).
	tFlush := s.tnow()
	off := s.slotOff(slotIdx)
	s.pm.Write(off, img)
	for _, e := range exts {
		s.fs.Add(e.Off, e.Len)
	}
	s.fs.Add(opt.KeyOff, len(key))
	s.fs.Add(off, s.cfg.SlotSize)
	s.seq = seq
	s.bd.Flush += s.since(tFlush)

	// Link into the index; reference the data slots. Readers cannot
	// serve the record before Commit — stagedN forces the lock-free path
	// to fall back, and the locked read is the commit barrier — so they
	// see it exactly when its ack-gating group commit has made it durable.
	tLink := s.tnow()
	d := &nodeDesc{
		slot: slotIdx, key: bytes.Clone(key), kp: kp,
		exts: slices.Clone(exts), vlen: vlen, csum: combined,
		hwtime: opt.HWTime.UnixNano(), seq: seq, height: s.randomHeightLocked(),
	}
	s.insertLocked(d, old, &prev)
	s.bd.Meta += s.since(tLink)

	for _, e := range exts {
		s.refDataLocked(e.Off)
	}
	s.refDataLocked(opt.KeyOff)

	p := prepared{slot: slotIdx, seq: seq, old: -1}
	switch {
	case old == nil:
		s.count++
	default:
		if j := s.stagedIndexOf(old.slot); j >= 0 {
			// Overwriting an uncommitted put of the same batch: it is
			// superseded in place and this put inherits whatever
			// committed version it was replacing.
			p.old = s.supersedeStagedLocked(j)
		} else {
			p.old = old.slot
		}
	}
	s.staged = append(s.staged, p)
	s.stagedN.Add(1)
	s.stats.Puts++
	s.stats.BytesStored += uint64(vlen)
	return nil
}

// writeChainsLocked stages extent-continuation slots into the group's
// flush set. They persist in phase A, before any parent commit word is
// stamped in phase B, so recovery only ever follows complete chains —
// and they no longer cost their own flush calls and fence: the former
// per-chain Flush both re-covered lines the whole-slot flush already
// owned and paid an extra fence per chained put.
func (s *Store) writeChainsLocked(chains []int, exts []Extent) {
	for ci, idx := range chains {
		img := make([]byte, s.cfg.SlotSize)
		binary.LittleEndian.PutUint32(img[oMagic:], chainMagic)
		n := min(chainExtents, len(exts)-ci*chainExtents)
		binary.LittleEndian.PutUint32(img[oChainCnt:], uint32(n))
		for i := 0; i < n; i++ {
			e := exts[ci*chainExtents+i]
			base := oChainExt + i*extSize
			binary.LittleEndian.PutUint32(img[base:], uint32(e.Off))
			binary.LittleEndian.PutUint32(img[base+4:], uint32(e.Len))
			binary.LittleEndian.PutUint32(img[base+8:], e.Sum)
		}
		if ci+1 < len(chains) {
			binary.LittleEndian.PutUint32(img[oChainNext:], uint32(chains[ci+1]+1))
		}
		binary.LittleEndian.PutUint32(img[oSlotSum:], chainSum(img))
		off := s.slotOff(idx)
		s.pm.Write(off, img)
		s.fs.Add(off, s.cfg.SlotSize)
	}
}

// readExtentsLocked collects a record's extents (inline + chains) into
// buf's storage when it has room for the slot's extent count, else into
// a fresh slice (callers outside the rescan pass nil). It only reads PM
// and the store's fixed geometry, so the rescan's workers call it
// without s.mu.
func (s *Store) readExtentsLocked(sl []byte, buf []Extent) ([]Extent, error) {
	n := int(sl[oExtCnt])
	exts := buf[:0]
	if cap(exts) < n {
		exts = make([]Extent, 0, n)
	}
	for i := 0; i < min(n, inlineExtents); i++ {
		base := oExt + i*extSize
		exts = append(exts, Extent{
			Off: int(binary.LittleEndian.Uint32(sl[base:])),
			Len: int(binary.LittleEndian.Uint32(sl[base+4:])),
			Sum: binary.LittleEndian.Uint32(sl[base+8:]),
		})
	}
	chain := int(binary.LittleEndian.Uint32(sl[oChain:])) - 1
	for hops := 0; chain >= 0; hops++ {
		if chain >= s.cfg.MetaSlots || hops >= s.cfg.MetaSlots {
			// Out-of-range or cyclic chain pointer: corruption must not
			// crash or hang the scan.
			return nil, fmt.Errorf("%w: broken extent chain", ErrCorrupt)
		}
		cs := s.slot(chain)
		if binary.LittleEndian.Uint32(cs[oMagic:]) != chainMagic {
			return nil, fmt.Errorf("%w: broken extent chain", ErrCorrupt)
		}
		cnt := int(binary.LittleEndian.Uint32(cs[oChainCnt:]))
		if cnt > chainExtents {
			return nil, fmt.Errorf("%w: chain count %d", ErrCorrupt, cnt)
		}
		for i := 0; i < cnt; i++ {
			base := oChainExt + i*extSize
			exts = append(exts, Extent{
				Off: int(binary.LittleEndian.Uint32(cs[base:])),
				Len: int(binary.LittleEndian.Uint32(cs[base+4:])),
				Sum: binary.LittleEndian.Uint32(cs[base+8:]),
			})
		}
		chain = int(binary.LittleEndian.Uint32(cs[oChainNext:])) - 1
	}
	if len(exts) != n {
		return nil, fmt.Errorf("%w: extent count mismatch", ErrCorrupt)
	}
	return exts, nil
}

// retireLocked deletes an indexed, committed record: clear the commit
// word and fence it (crash-safe: the record simply disappears from the
// scan), then unlink its descriptor and recycle its slots and data
// references. Caller holds s.mu inside a mutation bracket.
func (s *Store) retireLocked(d *nodeDesc) {
	s.clearSeqLocked(d.slot)
	s.unlinkLocked(d)
	s.recycleRecordLocked(d.slot)
}

func (s *Store) randomHeightLocked() int {
	h := 1
	for h < maxHeight && s.rng.Intn(4) == 0 {
		h++
	}
	return h
}

// Ref describes a stored record without copying its value — the zero-copy
// read result handed to the transport.
type Ref struct {
	Extents []Extent
	VLen    int
	Csum    uint32 // combined unfolded partial sum of the value
	HWTime  time.Time
	Seq     uint64
}

// GetRef locates key and returns extent references. The referenced data
// is only guaranteed stable while pinned (PinExtents) or under the
// caller's own synchronization with deletes; GetRefPinned does lookup
// and pin in one atomic step. The common case completes lock-free
// (fastget.go).
func (s *Store) GetRef(key []byte) (Ref, bool, error) {
	if ref, ok, done := s.fastGetRef(key); done {
		return ref, ok, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.getRefLocked(key)
}

func (s *Store) getRefLocked(key []byte) (Ref, bool, error) {
	// Reads act as a commit barrier: a staged record must not be served
	// (and thereby observable) while its durability is still pending,
	// or a crash could lose a value another client already read.
	s.commitStagedLocked()
	s.gets.Add(1)
	d := s.lookupLocked(key, nil)
	if d == nil {
		return Ref{}, false, nil
	}
	if d.gated.Load() {
		// Known media damage awaiting a deferred parity repair: a typed
		// error, never bytes that cannot be trusted.
		return Ref{}, false, fmt.Errorf("%w: value bytes pending parity repair for key %q", ErrCorrupt, key)
	}
	s.hits.Add(1)
	return refFromDesc(d), true, nil
}

// Get returns a copy of the value stored under key, verifying its
// checksum when configured. The common case completes lock-free with
// pinned extents (fastget.go); the slow path copies under the store
// lock, so in either case the returned bytes are stable against
// concurrent in-place parity repairs rewriting the record's media.
func (s *Store) Get(key []byte) ([]byte, bool, error) {
	if val, ok, done := s.fastGet(key); done {
		return val, ok, nil
	}
	s.mu.Lock()
	ref, ok, err := s.getRefLocked(key)
	if err != nil || !ok {
		s.mu.Unlock()
		return nil, ok, err
	}
	out := make([]byte, 0, ref.VLen)
	var acc checksum.Accumulator
	nl := 0
	for _, e := range ref.Extents {
		b := s.pm.Slice(e.Off, e.Len)
		nl += lineSpan(e.Off, e.Len)
		out = append(out, b...)
		if s.cfg.VerifyOnGet {
			acc.Add(b)
		}
	}
	// One batched latency charge for the whole value instead of a
	// per-extent Touch: span-by-span charging paid the scheduler
	// hand-off per extent (the read-path twin of XorDeltaBatch's fix).
	off0 := 0
	if len(ref.Extents) > 0 {
		off0 = ref.Extents[0].Off
	}
	s.pm.TouchLines(off0, nl)
	s.mu.Unlock()
	if s.cfg.VerifyOnGet && checksum.Norm16(checksum.Fold(acc.Sum())) != checksum.Norm16(checksum.Fold(ref.Csum)) {
		return nil, false, fmt.Errorf("%w: checksum mismatch for key %q", ErrCorrupt, key)
	}
	return out, true, nil
}

// Delete removes key. Crash-safe: the commit word is cleared (and fenced)
// before the record is unlinked and recycled, so a crash can never
// resurrect the key.
func (s *Store) Delete(key []byte) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	// Deletes commit the pending group first: unlinking and recycling
	// assume every indexed record is committed.
	s.commitStagedLocked()
	s.stats.Deletes++
	d := s.lookupLocked(key, nil)
	if d == nil {
		return false, nil
	}
	s.beginMutLocked()
	defer s.endMutLocked()
	s.retireLocked(d)
	return true, nil
}
