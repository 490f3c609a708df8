package core

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"

	"packetstore/internal/checksum"
)

// recover rebuilds the store from the persistent metadata slots after a
// reboot or crash: it scans every slot, keeps the committed records
// (newest sequence per key), builds the index over them, reconstructs
// the volatile allocation state (metadata free list, data-slot reference
// counts), and restores the sequence counter. The scan is the ground
// truth: no index state is persisted.
func (s *Store) recover() error { return s.rescan(false) }

// Scan geometry. Worker w of W validates slot blocks w, w+W, w+2W, … —
// interleaved, not contiguous ranges: live records cluster (after churn
// nearly all of them sit in one part of the slot array), and a split
// into ranges hands that part to one worker. Descriptors, key copies and
// extent lists are carved from per-worker chunks rather than allocated
// one heap object per record.
const (
	scanBlock = 512      // slots per block
	descChunk = 512      // descriptors per full chunk
	keyChunk  = 16 << 10 // key bytes per full chunk
	extChunk  = 1024     // extents per full chunk
)

// scanFault is a committed slot that failed validation during the scan.
type scanFault struct {
	slot int
	err  error
}

// scanPart is one worker's share of a rescan: its candidates sorted for
// the dedup merge (cmpCand), its failures in slot order, the highest
// commit sequence among its candidates, and the chunks it carves
// descriptors from.
type scanPart struct {
	sorted []*nodeDesc
	faults []scanFault
	maxSeq uint64
	descs  []nodeDesc
	keys   []byte
	exts   []Extent
}

// rescan is the scan-and-rebuild pass behind boot recovery and, with
// online set, the rebuild of a quarantined store. At boot the volatile
// state is fresh and every live data slot must transition pool -> store
// exactly once (a double adoption is corruption). Online, the slab
// allocator is shared with a still-wired NIC and survives the rebuild,
// so adoption is tolerant of already-allocated slots, and store-owned
// reference counts are recomputed from scratch.
//
// The scan runs in two phases. The parallel one (scanParts) only reads:
// one worker per core validates its blocks' committed slots and sorts
// their candidate descriptors by (key, newest sequence, lowest slot).
// The sequential one does every write: failures in slot order (repair or
// quarantine), a k-way merge of the sorted lists that keeps the first
// version of each key and retires the rest, the value sweep, slot-order
// adoption with the hash table's fill, the free list, and the skip list
// in key order. The outcome does not depend on the worker count.
func (s *Store) rescan(online bool) error {
	used := make([]bool, s.cfg.MetaSlots)
	unrecoverable := 0
	// fenceUnrecoverable fences a damaged slot the group cannot
	// reconstruct right now without clearing its commit word: the media is
	// preserved, so a retry after the peer rejoins can still reconstruct.
	// The rescan as a whole then fails typed — the shard must not serve
	// while acked records are missing.
	fenceUnrecoverable := func(i int) {
		unrecoverable++
		s.quarantined++
		m := s.slots.at(i)
		m.fenced, m.stamp = true, 0
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
	s.seq, s.count, s.quarantined = 0, 0, 0
	if online {
		// At boot the tables are fresh — no chunk allocated, every bucket
		// empty, nothing to reset. Online, only allocated chunks can hold
		// state; slot stamps survive, so the value sweep below can trust
		// the scrubber's recent work.
		for l := range s.head.next {
			s.head.next[l].Store(0)
		}
		for c := range s.nodes {
			if chunk := s.nodes[c].Load(); chunk != nil {
				for i := range chunk {
					if chunk[i].desc.Load() != nil { // an atomic store costs ~20× a load
						chunk[i].desc.Store(nil)
					}
				}
			}
		}
		for c := range s.slots {
			if chunk := s.slots[c].Load(); chunk != nil {
				for i := range chunk {
					chunk[i].nodeXor, chunk[i].fenced = 0, false
				}
			}
		}
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

	parts := s.scanParts()

	// Failures, in slot order — the order the quarantine hook observes.
	// Records repaired here join the merge as one more sorted list.
	var repaired scanPart
	var faults []scanFault
	for i := range parts {
		faults = append(faults, parts[i].faults...)
	}
	slices.SortFunc(faults, func(a, b scanFault) int { return a.slot - b.slot })
	for _, f := range faults {
		i, sl, err := f.slot, s.slot(f.slot), f.err
		var d *nodeDesc
		if s.parity != nil && online {
			// The rebuild owns the group's repairMu (Rehydrate takes it
			// before the store lock), so reconstruction runs with the
			// whole group quiesced. Validate again first: a repair earlier
			// in this loop may have rewritten lines this slot shares.
			if d, err = repaired.take(s, i, sl); err != nil {
				switch rerr := s.repairRecordLocked(i, true); {
				case rerr == nil:
					d, err = repaired.take(s, i, sl) // repaired: a normal record
				case errors.Is(rerr, errMetaDamage):
					// Parity spans the data area only; metadata damage
					// still takes the excise path below.
				default:
					fenceUnrecoverable(i) // deferred (a group peer is down) or lost
					continue
				}
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
		repaired.sorted = append(repaired.sorted, d)
	}
	slices.SortFunc(repaired.sorted, cmpCand)

	// Dedup: the merge yields each key's versions newest first (equal
	// sequences: lowest slot first). The first of each run survives; the
	// others' commit words are cleared. keep[i] is slot i's survivor's
	// position in survivors + 1, or 0: half a pointer table's bytes, and
	// nothing for the collector to scan.
	lists := [][]*nodeDesc{repaired.sorted}
	n := len(repaired.sorted)
	s.seq = repaired.maxSeq
	for i := range parts {
		lists = append(lists, parts[i].sorted)
		n += len(parts[i].sorted)
		s.seq = max(s.seq, parts[i].maxSeq)
	}
	keep := make([]int32, s.cfg.MetaSlots)
	survivors := make([]*nodeDesc, 0, n) // key order
	mergeCands(lists, func(d *nodeDesc) {
		if k := len(survivors); k > 0 && bytes.Equal(survivors[k-1].key, d.key) {
			s.clearSeqLocked(d.slot)
			return
		}
		survivors = append(survivors, d)
		keep[d.slot] = int32(len(survivors))
	})

	if s.parity != nil && online {
		// Value sweep: slot CRCs cover metadata and keys, but only the
		// value checksum notices damaged value bytes, and boot-style scans
		// never read values. A rebuild with parity attached does — except
		// for records the scrubber validated within the last full pass,
		// whose stamps make the re-read redundant (the scrub-aware rebuild
		// hand-off that shrinks time-to-rejoin).
		for i, k := range keep {
			if k == 0 {
				continue
			}
			m := s.slots.at(i)
			switch {
			case m.stamp != 0 && s.scrubPass-m.stamp <= 1:
			case s.valueChecksumOKLocked(s.slot(i)):
				m.stamp = s.scrubPass
			case s.repairRecordLocked(i, true) == nil:
			default:
				fenceUnrecoverable(i)
				keep[i] = 0
			}
		}
	}

	// Mark used slots (records + their chains) and data references, in
	// slot order: after churn key order is a random walk over the slot
	// array and the data area. The same pass fills a fresh hash table,
	// sized to the survivors, under the hashes the scan workers computed;
	// it is published with the skip list below.
	b := newBuckets(len(survivors))
	for i, k := range keep {
		if k == 0 {
			continue
		}
		d := survivors[k-1]
		bucketStore(b, d.hash, i) // a survivor's node id is its slot
		used[i] = true
		sl := s.slot(i)
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

	// Free list: all unused slots, in one allocation sized as format()
	// sizes it (growing it by append costs a boot four times the list).
	s.metaFree = slices.Grow(s.metaFree[:0], s.cfg.MetaSlots)
	for i := s.cfg.MetaSlots - 1; i >= 0; i-- {
		if !used[i] {
			s.metaFree = append(s.metaFree, int32(i))
		}
	}

	// Build the index. A survivor's node id is its slot, so the node
	// table's chunks are the ones its slots touch, and the slot table
	// already maps it (a fresh or reset entry names the slot's own node).
	// One pass in reverse key order writes each survivor's node once:
	// its height drawn from the store's seeded generator, so the same
	// survivors always build the same skip list, and its successor per
	// level the last node written at that level.
	clear(s.nodeUsed)
	s.nodeLow = 0
	var succ [maxHeight]uint32
	for i := len(survivors) - 1; i >= 0; i-- {
		d := survivors[i]
		if keep[d.slot] == 0 {
			continue // fenced by the value sweep
		}
		s.count++
		e := s.publishLocked(d, d.slot)
		e.height = int32(s.randomHeightLocked())
		for l := range e.height {
			e.next[l].Store(succ[l])
			succ[l] = uint32(d.slot + 1)
		}
		s.nodeUsed[d.slot/64] |= 1 << (d.slot % 64)
	}
	for l := range succ {
		s.head.next[l].Store(succ[l])
	}
	s.buckets.Store(&b)

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

// scanParts is the rescan's parallel phase: one worker per core
// (runtime.GOMAXPROCS, never more than there are blocks), each over its
// interleaved blocks. The workers read PM and write only their own part.
func (s *Store) scanParts() []scanPart {
	workers := min(runtime.GOMAXPROCS(0), (s.cfg.MetaSlots+scanBlock-1)/scanBlock)
	parts := make([]scanPart, workers)
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			parts[w] = s.scanSlots(w, workers)
		}()
	}
	parts[0] = s.scanSlots(0, workers)
	wg.Wait()
	return parts
}

// scanSlots is worker w of workers: it validates the committed slots of
// blocks w, w+workers, … and sorts its candidates for the merge.
func (s *Store) scanSlots(w, workers int) scanPart {
	var p scanPart
	for b := w * scanBlock; b < s.cfg.MetaSlots; b += workers * scanBlock {
		for i := b; i < min(b+scanBlock, s.cfg.MetaSlots); i++ {
			sl := s.slot(i)
			if binary.LittleEndian.Uint32(sl[oMagic:]) != slotMagic ||
				binary.LittleEndian.Uint64(sl[oSeq:]) == 0 {
				continue // free, a chain slot, never committed, or deleted
			}
			d, err := p.take(s, i, sl)
			if err != nil {
				p.faults = append(p.faults, scanFault{i, err})
				continue
			}
			p.sorted = append(p.sorted, d)
		}
	}
	slices.SortFunc(p.sorted, cmpCand)
	return p
}

// take validates committed slot i (image sl) and, when it is sound,
// carves its candidate descriptor from p's chunks. Key and extents are
// capacity-limited sub-slices, so a published descriptor stays
// immutable whatever its chunk neighbours do.
func (p *scanPart) take(s *Store, i int, sl []byte) (*nodeDesc, error) {
	if n := int(sl[oExtCnt]); cap(p.exts)-len(p.exts) < n {
		p.exts = make([]Extent, 0, chunkCap(cap(p.exts), extChunk, n))
	}
	exts, err := s.validateSlot(sl, p.exts[len(p.exts):])
	if err != nil {
		return nil, err
	}
	p.exts = p.exts[:len(p.exts)+len(exts)]
	key := s.slotKey(sl)
	if cap(p.keys)-len(p.keys) < len(key) {
		p.keys = make([]byte, 0, chunkCap(cap(p.keys), keyChunk, len(key)))
	}
	p.keys = append(p.keys, key...)
	if len(p.descs) == cap(p.descs) {
		p.descs = make([]nodeDesc, 0, chunkCap(cap(p.descs), descChunk, 1))
	}
	p.descs = p.descs[:len(p.descs)+1]
	d := &p.descs[len(p.descs)-1]
	d.slot = i
	d.key = p.keys[len(p.keys)-len(key) : len(p.keys) : len(p.keys)]
	d.kp = keyPrefix(key)
	d.exts = exts[:len(exts):len(exts)]
	d.hash = s.hashKey(key)
	d.vlen = binary.LittleEndian.Uint32(sl[oVLen:])
	d.csum = binary.LittleEndian.Uint32(sl[oVCsum:])
	d.hwtime = int64(binary.LittleEndian.Uint64(sl[oHWTime:]))
	d.seq = binary.LittleEndian.Uint64(sl[oSeq:])
	p.maxSeq = max(p.maxSeq, d.seq)
	return d, nil
}

// chunkCap sizes a worker's next chunk: twice the last one, from 1/32 of
// full up to full, and never less than need — a store of a few dozen
// records zeroes a few kilobytes, not three full chunks.
func chunkCap(last, full, need int) int {
	return max(need, min(full, max(full/32, 2*last)))
}

// cmpCand orders scan candidates for the dedup merge: by key, then
// newest sequence first, then lowest slot — so the first of each key's
// run is the version recovery keeps.
func cmpCand(a, b *nodeDesc) int {
	if c := cmpDesc(a.key, a.kp, b); c != 0 {
		return c
	}
	if c := cmp.Compare(b.seq, a.seq); c != 0 {
		return c
	}
	return a.slot - b.slot
}

// mergeCands calls fn on every candidate of the cmpCand-sorted lists in
// cmpCand order: a k-way merge over a binary min-heap of list heads.
func mergeCands(lists [][]*nodeDesc, fn func(*nodeDesc)) {
	h := make([][]*nodeDesc, 0, len(lists))
	for _, l := range lists {
		if len(l) > 0 {
			h = append(h, l)
		}
	}
	down := func(i int) {
		for {
			m := i
			for _, c := range [2]int{2*i + 1, 2*i + 2} {
				if c < len(h) && cmpCand(h[c][0], h[m][0]) < 0 {
					m = c
				}
			}
			if m == i {
				return
			}
			h[i], h[m] = h[m], h[i]
			i = m
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		down(i)
	}
	for len(h) > 0 {
		fn(h[0][0])
		if h[0] = h[0][1:]; len(h[0]) == 0 {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		down(0)
	}
}

// quarantineSlotLocked fences a committed slot that failed validation
// and reports it to the quarantine hook.
func (s *Store) quarantineSlotLocked(i int, err error) {
	if s.onQuarantine != nil {
		s.onQuarantine(i, err)
	}
	s.quarantined++
	s.slots.at(i).fenced = true
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
// before trusting any of it, and returns the record's extents (read into
// buf as readExtentsLocked does; callers outside the rescan pass nil).
// Structural checks run first so the key read the checksum needs is
// itself safe. Like readExtentsLocked it only reads PM and the store's
// fixed geometry, so the rescan's workers call it without s.mu.
func (s *Store) validateSlot(sl []byte, buf []Extent) ([]Extent, error) {
	klen := int(binary.LittleEndian.Uint32(sl[oKLen:]))
	koff := int(binary.LittleEndian.Uint32(sl[oKOff:]))
	if klen == 0 || klen > 0xffff {
		return nil, fmt.Errorf("%w: key length %d", ErrCorrupt, klen)
	}
	if !s.inDataArea(koff, klen) {
		return nil, fmt.Errorf("%w: key outside data area", ErrCorrupt)
	}
	exts, err := s.readExtentsLocked(sl, buf)
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
	e, _, _ := s.findGE(start, keyPrefix(start), nil) // cannot tear under s.mu
	for e != nil {
		// A damaged value awaiting deferred parity repair is omitted from
		// iteration rather than handing out bytes that cannot be trusted
		// (point reads answer the typed error instead).
		d := e.desc.Load()
		if !d.gated.Load() && !fn(Record{Key: bytes.Clone(d.key), Ref: refFromDesc(d)}) {
			return nil
		}
		next := e.next[0].Load()
		if e = nil; next != 0 {
			e = s.nodes.load(int(next - 1))
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
