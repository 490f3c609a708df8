package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"

	"packetstore/internal/checksum"
	"packetstore/internal/pmem"
)

// This file is the redundancy layer: RAID-5-style parity groups over the
// ShardedStore's shards. Each group of up to Config.ParityGroup member
// shards gets one parity partition appended after the shard partitions;
// the partition holds, line for line, the XOR of the members' *data
// areas* (values and key bytes — everything a value checksum or slot CRC
// covers that lives outside the metadata slots). Metadata damage is
// already handled by excision and quarantine; what only redundancy can
// survive is data-area loss, so that is exactly what parity covers.
//
// Maintenance is incremental and rides the existing commit pipeline:
// immediately before a group commit's phase-A flush batch, the store
// folds each dirty data-area line's delta (volatile XOR durable image)
// into the parity partition and adds the parity lines to the same
// FlushSet, so they persist under the same fence. XOR is commutative, so
// members of one group commit concurrently without a group lock: the
// per-line folds are atomic under the parity partition's own range lock
// and order does not matter.
//
// Repair reconstructs a damaged record's data-area ranges as the XOR of
// the parity partition and the surviving members' durable images, then
// re-validates the slot CRC and value checksum before accepting the
// bytes. All reconstruction in one group is serialised by a per-group
// repair mutex; in-place scrub repairs try-lock it and defer on
// contention, while a full rebuild (Rehydrate) blocks on it, which keeps
// the member-mutex quiescing below deadlock-free.

// ErrUnrecoverable marks data loss that exceeds the parity group's
// redundancy: two or more members of one group are damaged in the same
// stripe, so reconstruction cannot produce bytes that re-validate. It is
// always surfaced as a typed error — never as a silent miss.
var ErrUnrecoverable = errors.New("pktstore: data loss exceeds parity redundancy")

var (
	// errRepairDeferred: reconstruction cannot run right now (a group peer
	// is down or rebuilding, another repair holds the group, or the target
	// range has in-flight volatile writes). Retry on a later pass.
	errRepairDeferred = errors.New("pktstore: parity repair deferred")
	// errMetaDamage: the slot's metadata is damaged in a way parity cannot
	// fix (parity covers the data area only). The record takes the
	// excise/quarantine path instead.
	errMetaDamage = errors.New("pktstore: metadata damage outside parity coverage")
)

// parityRT is one member's runtime handle on its parity group, attached
// to the Store after open and immutable afterwards.
type parityRT struct {
	ss    *ShardedStore
	group []int // member shard indices, ascending
	self  int   // this member's shard index
	pbase int   // region offset of the group's parity partition
	// repairMu serialises every reconstruction touching this group —
	// scrub in-place repairs (TryLock; contention defers) and full
	// rebuilds (Lock, taken before any store mutex).
	repairMu *sync.Mutex
}

// parityStride is the per-group parity partition footprint: one member
// data area, page-aligned like the shard partitions.
func parityStride(cfg Config) int {
	return (cfg.DataSlots*cfg.DataBufSize + shardAlign - 1) &^ (shardAlign - 1)
}

// parityGroups returns the member-index groups for a configuration, or
// nil when parity is disabled (ParityGroup < 2 or a single shard — a
// group needs at least one member plus somewhere independent to lose).
func parityGroups(cfg Config, shards int) [][]int {
	if cfg.ParityGroup < 2 || shards < 2 {
		return nil
	}
	k := cfg.ParityGroup
	if k > shards {
		k = shards
	}
	var groups [][]int
	for lo := 0; lo < shards; lo += k {
		hi := lo + k
		if hi > shards {
			hi = shards
		}
		g := make([]int, 0, hi-lo)
		for m := lo; m < hi; m++ {
			g = append(g, m)
		}
		groups = append(groups, g)
	}
	return groups
}

// memberDataBase returns the region offset of shard i's data area.
func (ss *ShardedStore) memberDataBase(i int) int {
	return i*ss.stride + superblockSize + ss.cfg.MetaSlots*ss.cfg.SlotSize
}

// DataAreaBounds returns shard i's data area as a region offset and
// length — the unit the erase fault and partial-damage benchmarks target.
func (ss *ShardedStore) DataAreaBounds(i int) (off, n int) {
	return ss.memberDataBase(i), ss.cfg.DataSlots * ss.cfg.DataBufSize
}

// EraseDataArea destroys shard i's entire data area at media level (both
// images zeroed), modelling the loss of the PM rows behind one shard's
// receive pool. Only parity can bring the records back. Like
// SmashSuperblock, the erasure is serialized with the victim's serving
// and scrub operations via its store lock (peer repairs reading this
// member's bytes hold it too, through lockPeers), so injection lands
// between operations, never mid-read.
func (ss *ShardedStore) EraseDataArea(i int) {
	off, n := ss.DataAreaBounds(i)
	ss.mu.RLock()
	st := ss.shards[i]
	if st == nil {
		st = ss.parked[i]
	}
	ss.mu.RUnlock()
	if st != nil {
		st.mu.Lock()
		defer st.mu.Unlock()
		// Media mutation: bracket it so the victim's lock-free readers
		// discard any copy the erasure overlapped.
		st.beginMutLocked()
		defer st.endMutLocked()
	}
	ss.r.EraseRange(off, n)
}

// SmashSuperblock destroys shard i's superblock magic at media level —
// the shard-loss injection behind the supervised heal runs. The flip is
// serialized with the victim's serving operations via its store lock
// (CorruptRecord models media faults the same way): the damage lands
// between operations, never mid-read of the layout anchor the
// scrubber's health probe revalidates every pass.
func (ss *ShardedStore) SmashSuperblock(i int) {
	ss.mu.RLock()
	st := ss.shards[i]
	if st == nil {
		st = ss.parked[i]
	}
	ss.mu.RUnlock()
	if st == nil {
		return
	}
	st.mu.Lock()
	st.beginMutLocked()
	st.pm.Region().CorruptByte(st.base+sbOMagic, 0xff)
	st.endMutLocked()
	st.mu.Unlock()
}

// initParity attaches parity runtimes to the shards and recomputes every
// parity partition wholesale from the members' durable data areas. The
// recompute heals the write hole a crash can leave (parity lines and
// data lines of the cut batch diverge only for never-acked records), at
// the cost of baking in any member media damage that predates this boot
// — the same trade a RAID-5 resync after unclean shutdown makes.
func (ss *ShardedStore) initParity() {
	groups := parityGroups(ss.cfg, len(ss.shards))
	if groups == nil {
		return
	}
	if ss.cfg.SlotSize%pmem.LineSize != 0 || ss.cfg.DataBufSize%pmem.LineSize != 0 {
		panic("pktstore: parity groups need line-aligned geometry (SlotSize and DataBufSize multiples of 64)")
	}
	ss.parity = make([]*parityRT, len(ss.shards))
	pstride := parityStride(ss.cfg)
	pbase0 := len(ss.shards) * ss.stride
	dataLen := ss.cfg.DataSlots * ss.cfg.DataBufSize
	for gi, g := range groups {
		pbase := pbase0 + gi*pstride
		// The partition is its own lock range: members folding into it
		// contend with each other, not with any shard's own partition.
		ss.r.Carve(pbase, pstride)
		mu := new(sync.Mutex)
		srcs := make([]int, 0, len(g))
		for _, m := range g {
			ss.parity[m] = &parityRT{ss: ss, group: g, self: m, pbase: pbase, repairMu: mu}
			srcs = append(srcs, ss.memberDataBase(m))
		}
		ss.r.EraseRange(pbase, dataLen)
		ss.r.XorReconstruct(pbase, srcs, dataLen)
		for _, m := range g {
			if st := ss.shards[m]; st != nil {
				st.mu.Lock()
				st.parity = ss.parity[m]
				st.mu.Unlock()
			}
		}
	}
}

// VerifyParity checks, at durable-image level, that every parity
// partition equals the XOR of its members' data areas. Valid whenever
// the store is quiescent (every commit fences before releasing the
// store lock, and boot recomputes the partitions).
func (ss *ShardedStore) VerifyParity() error {
	groups := parityGroups(ss.cfg, ss.shardCount())
	if groups == nil {
		return nil
	}
	dataLen := ss.cfg.DataSlots * ss.cfg.DataBufSize
	pstride := parityStride(ss.cfg)
	pbase0 := ss.shardCount() * ss.stride
	acc := make([]byte, dataLen)
	tmp := make([]byte, dataLen)
	for gi, g := range groups {
		ss.r.ReadShadow(acc, pbase0+gi*pstride)
		for _, m := range g {
			ss.r.ReadShadow(tmp, ss.memberDataBase(m))
			for i := range acc {
				acc[i] ^= tmp[i]
			}
		}
		for i, b := range acc {
			if b != 0 {
				return fmt.Errorf("%w: parity group %d mismatch at data-area offset %d", ErrCorrupt, gi, i)
			}
		}
	}
	return nil
}

// applyParityLocked folds the staged group's data-area deltas into the
// parity partition and schedules the parity lines in the same flush
// batch, so they become durable under the group's phase-A fence. Called
// with the store lock held, immediately before the phase-A FlushBatch —
// the only point where data-area lines move toward durability. The
// whole batch folds through one XorDeltaBatch call, so its emulated
// write cost is charged once per commit rather than once per span.
func (s *Store) applyParityLocked() {
	rt := s.parity
	if rt == nil {
		return
	}
	dataEnd := s.dataBase + s.cfg.DataSlots*s.cfg.DataBufSize
	lines := 0
	s.parityFold = s.parityFold[:0]
	s.fs.VisitSpans(func(off, n int) {
		lo, hi := off, off+n
		if lo < s.dataBase {
			lo = s.dataBase
		}
		if hi > dataEnd {
			hi = dataEnd
		}
		if lo >= hi {
			return // metadata or superblock lines: not parity-covered
		}
		poff := rt.pbase + (lo - s.dataBase)
		s.parityFold = append(s.parityFold, pmem.XorSpan{Poff: poff, Off: lo, N: hi - lo})
		s.fs.Add(poff, hi-lo)
		lines += (hi - lo) / pmem.LineSize
	})
	if len(s.parityFold) == 0 {
		return
	}
	s.pm.XorDeltaBatch(s.parityFold)
	s.stats.ParityWrites += uint64(lines)
}

// lockPeers snapshots and locks every *other* serving member of the
// group, in ascending shard order. It fails (deferred repair) if any
// peer is down or rebuilding — its durable image cannot be trusted as a
// reconstruction source. The caller holds the group's repairMu, which
// excludes every other multi-store lock holder, so blocking on the peer
// mutexes (held elsewhere only by single-store operations) cannot
// deadlock. Callers must unlockPeers.
func (rt *parityRT) lockPeers() ([]*Store, bool) {
	rt.ss.mu.RLock()
	peers := make([]*Store, 0, len(rt.group)-1)
	for _, m := range rt.group {
		if m == rt.self {
			continue
		}
		st := rt.ss.shards[m]
		if st == nil {
			rt.ss.mu.RUnlock()
			return nil, false
		}
		peers = append(peers, st)
	}
	rt.ss.mu.RUnlock()
	for _, p := range peers {
		p.mu.Lock()
	}
	return peers, true
}

func (rt *parityRT) unlockPeers(peers []*Store) {
	for _, p := range peers {
		p.mu.Unlock()
	}
}

// recordRangesLocked returns the line-aligned, merged data-area ranges a
// record occupies (key bytes plus every value extent), or errMetaDamage
// if the metadata describing them is structurally insane — parity cannot
// repair metadata, so such a record takes the excise path.
func (s *Store) recordRangesLocked(sl []byte) ([][2]int, error) {
	klen := int(binary.LittleEndian.Uint32(sl[oKLen:]))
	koff := int(binary.LittleEndian.Uint32(sl[oKOff:]))
	if klen == 0 || klen > 0xffff || !s.inDataArea(koff, klen) {
		return nil, errMetaDamage
	}
	exts, err := s.readExtentsLocked(sl, nil)
	if err != nil {
		return nil, errMetaDamage
	}
	ranges := make([][2]int, 0, len(exts)+1)
	ranges = append(ranges, [2]int{koff, koff + klen})
	for _, e := range exts {
		if e.Len <= 0 || !s.inDataArea(e.Off, e.Len) {
			return nil, errMetaDamage
		}
		ranges = append(ranges, [2]int{e.Off, e.Off + e.Len})
	}
	for i := range ranges {
		ranges[i][0] &^= pmem.LineSize - 1
		ranges[i][1] = (ranges[i][1] + pmem.LineSize - 1) &^ (pmem.LineSize - 1)
	}
	sort.Slice(ranges, func(a, b int) bool { return ranges[a][0] < ranges[b][0] })
	out := ranges[:1]
	for _, rg := range ranges[1:] {
		if t := &out[len(out)-1]; rg[0] <= t[1] {
			if rg[1] > t[1] {
				t[1] = rg[1]
			}
			continue
		}
		out = append(out, rg)
	}
	return out, nil
}

// valueChecksumOKLocked re-reads the record's value bytes against its
// stored transport-derived checksum.
func (s *Store) valueChecksumOKLocked(sl []byte) bool {
	exts, err := s.readExtentsLocked(sl, nil)
	if err != nil {
		return false
	}
	var acc checksum.Accumulator
	for _, e := range exts {
		// A validation sweep misses cache by construction (the bytes were
		// not recently served), so it pays PM read latency — same charge
		// the scrubber's value re-read pays.
		s.pm.Touch(e.Off, e.Len)
		acc.Add(s.pm.Slice(e.Off, e.Len))
	}
	want := binary.LittleEndian.Uint32(sl[oVCsum:])
	return checksum.Norm16(checksum.Fold(acc.Sum())) == checksum.Norm16(checksum.Fold(want))
}

// liftDamageLocked clears the damage state of a successfully repaired
// record: the media-damage fences on its data slots are lifted (the
// bytes re-validated, so the slots recycle normally once their counts
// drain — the former permanent-fence capacity leak), the serving gate is
// dropped and the slot is stamped as freshly validated.
func (s *Store) liftDamageLocked(idx int) {
	sl := s.slot(idx)
	if exts, err := s.readExtentsLocked(sl, nil); err == nil {
		for _, e := range exts {
			s.data[s.dataSlotIndex(e.Off)].held = false
		}
	}
	koff := int(binary.LittleEndian.Uint32(sl[oKOff:]))
	s.data[s.dataSlotIndex(koff)].held = false
	s.setValueBadLocked(idx, false)
	s.slots.at(idx).stamp = s.scrubPass
}

// repairRecordLocked reconstructs the data-area bytes of the record in
// slot idx from parity and the surviving group members, accepting the
// result only if the slot CRC and value checksum then validate. Called
// with the store lock held; groupHeld says the caller already owns the
// group's repairMu (a rebuild), otherwise it is try-locked and
// contention defers the repair.
//
// Failure never leaves partial repairs behind: the target ranges are
// snapshotted first and rolled back (volatile and durable image — the
// rollback deliberately bypasses parity maintenance, restoring exactly
// the untracked damaged state) before a non-nil error returns.
//
// Returns nil on success, errRepairDeferred when reconstruction cannot
// run or complete right now, errMetaDamage when the reconstructed bytes
// satisfy the value checksum but not the slot CRC (the damage is in
// CRC-covered metadata parity does not span), and ErrUnrecoverable when
// even reconstructed bytes fail the value checksum — a second member of
// the group has lost the same stripe.
func (s *Store) repairRecordLocked(idx int, groupHeld bool) error {
	rt := s.parity
	if rt == nil {
		return errRepairDeferred
	}
	// Every caller (scrub step, rescan) already holds a mutation bracket;
	// nest one anyway so an in-place rewrite can never run with an even
	// sequence if a future caller forgets.
	s.beginMutLocked()
	defer s.endMutLocked()
	ranges, err := s.recordRangesLocked(s.slot(idx))
	if err != nil {
		return err
	}
	if !groupHeld {
		// A pinned slot has a borrower reading its bytes outside the store
		// lock (a transmit borrow, the server's key arena): rewriting it in
		// place would race that reader. Defer — either the pin drains before
		// the next scrub pass, or repeated deferral escalates to the rebuild
		// path, which quarantines the shard and owns the whole group.
		for _, rg := range ranges {
			for di := s.dataSlotIndex(rg[0]); di <= s.dataSlotIndex(rg[1]-1); di++ {
				if s.data[di].pins.Load() > 0 {
					return errRepairDeferred
				}
			}
		}
		if !rt.repairMu.TryLock() {
			return errRepairDeferred
		}
		defer rt.repairMu.Unlock()
	}
	peers, ok := rt.lockPeers()
	if !ok {
		return errRepairDeferred
	}
	saved := make([][]byte, len(ranges))
	for i, rg := range ranges {
		b := make([]byte, rg[1]-rg[0])
		s.pm.Region().ReadShadow(b, rg[0])
		saved[i] = b
	}
	skipped := 0
	srcs := make([]int, 0, len(peers)+1)
	for _, rg := range ranges {
		rel := rg[0] - s.dataBase
		srcs = srcs[:0]
		srcs = append(srcs, rt.pbase+rel)
		for _, p := range peers {
			srcs = append(srcs, p.dataBase+rel)
		}
		skipped += s.pm.Region().XorReconstruct(rg[0], srcs, rg[1]-rg[0])
	}
	rt.unlockPeers(peers)
	rollback := func() {
		for i, rg := range ranges {
			s.pm.Write(rg[0], saved[i])
			s.pm.Persist(rg[0], len(saved[i]))
		}
	}
	if skipped > 0 {
		// In-flight volatile writes share lines with the record (e.g. a key
		// arena mid-append): the repair is incomplete, try again later.
		rollback()
		return errRepairDeferred
	}
	sl := s.slot(idx)
	_, verr := s.validateSlot(sl, nil)
	crcOK := verr == nil
	valOK := s.valueChecksumOKLocked(sl)
	switch {
	case crcOK && valOK:
		s.liftDamageLocked(idx)
		s.stats.Reconstructions++
		return nil
	case !crcOK && valOK:
		rollback()
		return errMetaDamage
	default:
		rollback()
		s.stats.UnrecoverableSlots++
		return ErrUnrecoverable
	}
}

// coverDataLines sets, in cov (one bit per data-area line), the lines
// every committed record's key bytes and value extents occupy. Records
// whose metadata is too damaged to describe ranges contribute nothing —
// they are headed for excision, which parity cannot prevent anyway.
// Caller holds s.mu.
func (s *Store) coverDataLines(cov []uint64) {
	for i := 0; i < s.cfg.MetaSlots; i++ {
		sl := s.slot(i)
		if binary.LittleEndian.Uint32(sl[oMagic:]) != slotMagic ||
			binary.LittleEndian.Uint64(sl[oSeq:]) == 0 {
			continue
		}
		ranges, err := s.recordRangesLocked(sl)
		if err != nil {
			continue
		}
		for _, rg := range ranges {
			for off := rg[0]; off < rg[1]; off += pmem.LineSize {
				l := (off - s.dataBase) / pmem.LineSize
				cov[l/64] |= 1 << (l % 64)
			}
		}
	}
}

// resyncGroupParity re-derives st's group parity partition from the
// members' current durable data areas — but only on lines no live
// record of the rebuilt member covers. The rebuild path calls it after
// a rehydration that had to reconstruct records, i.e. when the member's
// data area demonstrably lost content: the rescan restores
// record-covered ranges, so those lines are parity-consistent again,
// but free-space bytes the rescan has no reason to restore (orphaned
// staged writes of a cut batch that a data-area erase then destroyed)
// would stay folded into the parity image and poison every member's
// repairs at those offsets. The member's record-covered lines keep
// their parity history untouched. On the resynced lines a *peer's*
// latent, not-yet-scrubbed damage does get baked in — but a line both
// lost on the rebuilt member and damaged on a peer exceeds single-
// parity redundancy anyway; the resync just makes the store's current
// state the new baseline, exactly as a RAID-5 resync after replacing a
// disk does. Skipped when a peer is down; the rebuild that brings it
// back resyncs again.
func (ss *ShardedStore) resyncGroupParity(st *Store) {
	rt := st.parity // immutable once attached
	if rt == nil {
		return
	}
	rt.repairMu.Lock()
	defer rt.repairMu.Unlock()
	peers, ok := rt.lockPeers()
	if !ok {
		return
	}
	defer rt.unlockPeers(peers)
	st.mu.Lock()
	defer st.mu.Unlock()
	dataLen := ss.cfg.DataSlots * ss.cfg.DataBufSize
	nl := dataLen / pmem.LineSize
	cov := make([]uint64, (nl+63)/64)
	st.coverDataLines(cov)
	srcs := make([]int, len(rt.group))
	for i, m := range rt.group {
		srcs[i] = ss.memberDataBase(m)
	}
	run := -1
	shifted := make([]int, len(srcs))
	flush := func(end int) {
		if run < 0 {
			return
		}
		off := run * pmem.LineSize
		n := end*pmem.LineSize - off
		for i, s := range srcs {
			shifted[i] = s + off
		}
		ss.r.EraseRange(rt.pbase+off, n)
		ss.r.XorReconstruct(rt.pbase+off, shifted, n)
		run = -1
	}
	for l := 0; l < nl; l++ {
		if cov[l/64]&(1<<(l%64)) != 0 {
			flush(l)
		} else if run < 0 {
			run = l
		}
	}
	flush(nl)
}

// HeldDataSlots counts data slots currently fenced by the media-damage
// hold — capacity the allocator cannot reuse until a parity repair
// lifts the fence (or, without parity, ever).
func (s *Store) HeldDataSlots() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for i := range s.data {
		if s.data[i].held {
			n++
		}
	}
	return n
}
