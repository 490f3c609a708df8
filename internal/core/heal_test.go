package core

import (
	"bytes"
	"fmt"
	"testing"

	"packetstore/internal/calib"
	"packetstore/internal/pmem"
)

// Self-healing tests: online rebuild of a quarantined shard and budgeted
// scrubbing of latent bit flips.
// The invariant throughout: a heal never loses an acked write that is
// not itself the damaged record, and a damaged record is excised or
// quarantined — never served with wrong bytes.

func healSetup(t *testing.T) (*pmem.Region, *Store) {
	t.Helper()
	cfg := Config{MetaSlots: 64, SlotSize: 128, DataSlots: 64, DataBufSize: 512, VerifyOnGet: true}
	r := pmem.New(cfg.RegionSize(), calib.Off())
	s, err := Open(r, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"alpha", "beta", "gamma", "delta"} {
		if err := s.Put([]byte(k), bytes.Repeat([]byte(k), 20)); err != nil {
			t.Fatal(err)
		}
	}
	return r, s
}

// fullScrub sweeps the whole slot array once.
func fullScrub(s *Store) (checked, bad, excised int) {
	cursor := 0
	for {
		res := s.ScrubSlots(cursor, 16)
		checked += res.Checked
		bad += res.Bad
		excised += res.Excised
		cursor = res.Next
		if cursor == 0 {
			return
		}
	}
}

func wantKey(t *testing.T, s *Store, key string) {
	t.Helper()
	v, ok, err := s.Get([]byte(key))
	if err != nil || !ok {
		t.Fatalf("Get(%q) = ok=%v err=%v, want present", key, ok, err)
	}
	if !bytes.Equal(v, bytes.Repeat([]byte(key), 20)) {
		t.Fatalf("Get(%q) returned wrong bytes", key)
	}
}

// wantGoneOrError accepts a miss or a detection error — never wrong
// bytes — for a deliberately damaged key.
func wantGoneOrError(t *testing.T, s *Store, key string) {
	t.Helper()
	v, ok, err := s.Get([]byte(key))
	if err == nil && ok && !bytes.Equal(v, bytes.Repeat([]byte(key), 20)) {
		t.Fatalf("Get(%q) served wrong bytes after corruption", key)
	}
	if err == nil && ok {
		t.Fatalf("Get(%q) still serving after scrub excision", key)
	}
}

func TestScrubDetectsSlotFieldFlip(t *testing.T) {
	_, s := healSetup(t)
	if off := s.CorruptRecord([]byte("beta"), FlipSlotField, 3, 0x40); off < 0 {
		t.Fatal("CorruptRecord found no slot")
	}
	_, bad, excised := fullScrub(s)
	if bad == 0 {
		t.Fatal("scrub missed a CRC-covered slot-field flip")
	}
	if excised == 0 {
		t.Fatal("scrub did not excise the damaged record")
	}
	if s.Quarantined() == 0 {
		t.Fatal("damaged slot not quarantined")
	}
	wantGoneOrError(t, s, "beta")
	for _, k := range []string{"alpha", "gamma", "delta"} {
		wantKey(t, s, k)
	}
	// A second sweep over the repaired store is clean.
	if _, bad, _ := fullScrub(s); bad != 0 {
		t.Fatalf("second scrub still found %d bad slots", bad)
	}
}

func TestScrubDetectsValueFlip(t *testing.T) {
	_, s := healSetup(t)
	if off := s.CorruptRecord([]byte("gamma"), FlipValueByte, 17, 0x08); off < 0 {
		t.Fatal("CorruptRecord found no slot")
	}
	_, bad, _ := fullScrub(s)
	if bad == 0 {
		t.Fatal("scrub missed a value-byte flip")
	}
	wantGoneOrError(t, s, "gamma")
	for _, k := range []string{"alpha", "beta", "delta"} {
		wantKey(t, s, k)
	}
	// Value damage retires the record but the meta slot is clean: it must
	// be reusable (back in the free list), unlike a CRC-quarantined slot.
	if err := s.Put([]byte("epsilon"), bytes.Repeat([]byte("epsilon"), 20)); err != nil {
		t.Fatalf("put after value excision: %v", err)
	}
}

func TestScrubDetectsKeyFlip(t *testing.T) {
	_, s := healSetup(t)
	if off := s.CorruptRecord([]byte("delta"), FlipKeyByte, 2, 0x01); off < 0 {
		t.Fatal("CorruptRecord found no slot")
	}
	_, bad, _ := fullScrub(s)
	if bad == 0 {
		t.Fatal("scrub missed a key-byte flip (slot CRC covers keys)")
	}
	wantGoneOrError(t, s, "delta")
	for _, k := range []string{"alpha", "beta", "gamma"} {
		wantKey(t, s, k)
	}
}

func TestScrubHookObservesDamage(t *testing.T) {
	_, s := healSetup(t)
	var seen []int
	s.SetQuarantineHook(func(slot int, err error) { seen = append(seen, slot) })
	idx := slotOf(t, s, "beta")
	s.CorruptRecord([]byte("beta"), FlipSlotField, 0, 0xff)
	fullScrub(s)
	found := false
	for _, sl := range seen {
		if sl == idx {
			found = true
		}
	}
	if !found {
		t.Fatalf("quarantine hook saw %v, want slot %d", seen, idx)
	}
}

// TestScrubCatchesReservedFlip: slot bytes [48,80) are reserved, written
// zero and covered by the slot CRC, so a media flip in any of them is
// ordinary metadata damage — the scrub reports it and excises that one
// record. Nothing walks PM to find a key, so between injection and
// detection every key (the victim included: its value bytes are intact)
// still reads, on both read paths.
func TestScrubCatchesReservedFlip(t *testing.T) {
	keys := []string{"alpha", "beta", "gamma", "delta"}
	for b := oReserved; b < oExt; b++ {
		for _, locked := range []bool{false, true} {
			r, s := healSetup(t)
			s.cfg.LockedReads = locked
			r.CorruptByte(s.slotOff(slotOf(t, s, "beta"))+b, 0x20)
			for _, k := range keys {
				wantKey(t, s, k)
			}
			if _, bad, excised := fullScrub(s); bad != 1 || excised != 1 {
				t.Fatalf("byte %d: scrub bad=%d excised=%d, want 1/1", b, bad, excised)
			}
			wantGoneOrError(t, s, "beta")
			for _, k := range []string{"alpha", "gamma", "delta"} {
				wantKey(t, s, k)
			}
		}
	}
}

// TestReservedFlipWithParityTakesRebuild: parity spans the data area
// only, so with parity attached a reserved-byte flip is metadata damage
// the in-place repair cannot fix: the scrub asks for a group rebuild,
// and the rebuild excises the one record while every other record of
// the group keeps its bytes and the parity invariant holds.
func TestReservedFlipWithParityTakesRebuild(t *testing.T) {
	_, ss := parityOpen(t, parityCfg(2), 2)
	ref := parityFill(t, ss, 24)
	const victim = "key005"
	sh := ss.ShardFor([]byte(victim))
	st := ss.Shard(sh)
	ss.Region().CorruptByte(st.slotOff(slotOf(t, st, victim))+oReserved+9, 0x01)
	wantAll(t, ss, ref) // not yet detected: served from intact bytes
	if res := scrubAll(st); res.Bad != 1 || res.NeedsRebuild != 1 || res.Excised != 0 {
		t.Fatalf("scrub = %+v, want Bad=1 NeedsRebuild=1", res)
	}
	ss.Quarantine(sh, fmt.Errorf("reserved flip"))
	if err := ss.Rebuild(sh); err != nil {
		t.Fatalf("Rebuild: %v", err)
	}
	if _, ok, err := ss.Get([]byte(victim)); ok || err != nil {
		t.Fatalf("victim after rebuild: ok=%v err=%v, want excised", ok, err)
	}
	if q := st.Quarantined(); q != 1 {
		t.Fatalf("%d slots quarantined, want 1", q)
	}
	delete(ref, victim)
	wantAll(t, ss, ref)
	if err := ss.VerifyParity(); err != nil {
		t.Fatal(err)
	}
}

// TestScrubExcisionKeepsIndex: excising one record unlinks that record
// alone — the other N-1 keep the very descriptors they had (a rescan
// would republish every one) and stay readable on both read paths, in
// order.
func TestScrubExcisionKeepsIndex(t *testing.T) {
	for _, target := range []FlipTarget{FlipSlotField, FlipKeyByte, FlipValueByte} {
		_, s := healSetup(t)
		before := map[string]*nodeDesc{}
		for _, k := range []string{"alpha", "beta", "gamma", "delta"} {
			before[k] = s.descAt(slotOf(t, s, k))
		}
		s.CorruptRecord([]byte("gamma"), target, 5, 0x10)
		if _, bad, excised := fullScrub(s); bad != 1 || excised != 1 {
			t.Fatalf("target %d: scrub bad=%d excised=%d, want 1/1", target, bad, excised)
		}
		if n := s.Len(); n != 3 {
			t.Fatalf("target %d: Len = %d after excision, want 3", target, n)
		}
		for _, locked := range []bool{false, true} {
			s.cfg.LockedReads = locked
			wantGoneOrError(t, s, "gamma")
			for _, k := range []string{"alpha", "beta", "delta"} {
				wantKey(t, s, k)
				if d := s.descAt(slotOf(t, s, k)); d != before[k] {
					t.Fatalf("target %d: %q was republished: excision rescanned", target, k)
				}
			}
		}
		recs := dump(t, s)
		if len(recs) != 3 || string(recs[0].Key) != "alpha" || string(recs[1].Key) != "beta" || string(recs[2].Key) != "delta" {
			t.Fatalf("target %d: Range after excision = %d records, want alpha beta delta", target, len(recs))
		}
	}
}

func TestRehydrateInPlace(t *testing.T) {
	_, s := healSetup(t)
	pool := s.Pool()
	// A pin taken before the rebuild survives it (pins are counted apart
	// from the record references the rescan recomputes) and its release
	// must drain the pin, not the recomputed record counts.
	ref, ok, err := s.GetRef([]byte("alpha"))
	if err != nil || !ok {
		t.Fatal("GetRef(alpha) failed")
	}
	release := s.PinExtents(ref.Extents)
	if epoch := s.Epoch(); epoch != 0 {
		t.Fatalf("fresh store epoch = %d, want 0", epoch)
	}
	if err := s.Rehydrate(); err != nil {
		t.Fatalf("Rehydrate: %v", err)
	}
	if epoch := s.Epoch(); epoch != 1 {
		t.Fatalf("post-rehydrate epoch = %d, want 1", epoch)
	}
	release()
	if s.Pool() != pool {
		t.Fatal("Rehydrate replaced the packet pool (NIC wiring would break)")
	}
	for _, k := range []string{"alpha", "beta", "gamma", "delta"} {
		wantKey(t, s, k)
	}
	// The store keeps working end to end after the rebuild.
	if err := s.Put([]byte("post"), []byte("post-heal value")); err != nil {
		t.Fatalf("put after rehydrate: %v", err)
	}
	if _, err := s.Delete([]byte("alpha")); err != nil {
		t.Fatalf("delete after rehydrate: %v", err)
	}
	if _, bad, _ := fullScrub(s); bad != 0 {
		t.Fatalf("scrub found %d bad slots after rehydrate", bad)
	}
}

// TestRehydrateReclaimsSlotsAfterChurn is the capacity-leak regression:
// an online rebuild must not fence surviving data slots from the NIC
// pool — post-rebuild deletes return every undamaged slot.
func TestRehydrateReclaimsSlotsAfterChurn(t *testing.T) {
	_, s := healSetup(t)
	if err := s.Rehydrate(); err != nil {
		t.Fatalf("Rehydrate: %v", err)
	}
	for _, k := range []string{"alpha", "beta", "gamma", "delta"} {
		if _, err := s.Delete([]byte(k)); err != nil {
			t.Fatalf("delete %q: %v", k, err)
		}
	}
	free := 0
	for s.Pool().Alloc(0) != nil {
		free++
	}
	if free != 64 {
		t.Fatalf("%d data slots allocatable after post-rebuild churn, want all 64 (rebuild leaked the rest)", free)
	}
}

// TestValueDamageFenceSurvivesRehydrate: the one fence that must NOT be
// reclaimed is a slot with confirmed media damage — it stays out of the
// pool across a rebuild while every healthy slot reclaims.
func TestValueDamageFenceSurvivesRehydrate(t *testing.T) {
	_, s := healSetup(t)
	if off := s.CorruptRecord([]byte("gamma"), FlipValueByte, 9, 0x04); off < 0 {
		t.Fatal("CorruptRecord found no slot")
	}
	if _, bad, _ := fullScrub(s); bad == 0 {
		t.Fatal("scrub missed the value flip")
	}
	if err := s.Rehydrate(); err != nil {
		t.Fatalf("Rehydrate: %v", err)
	}
	for _, k := range []string{"alpha", "beta", "delta"} {
		if _, err := s.Delete([]byte(k)); err != nil {
			t.Fatalf("delete %q: %v", k, err)
		}
	}
	free := 0
	for s.Pool().Alloc(0) != nil {
		free++
	}
	if free != 63 {
		t.Fatalf("%d data slots allocatable, want 63: the damaged slot stays fenced, everything else reclaims", free)
	}
}

func TestRehydrateRepairsSuperblock(t *testing.T) {
	r, s := healSetup(t)
	// Trash the superblock magic — the shard-loss flavor of the heal
	// torture mode.
	r.CorruptByte(0, 0xff)
	if err := s.CheckSuperblock(); err == nil {
		t.Fatal("CheckSuperblock missed a trashed magic")
	}
	if err := s.Rehydrate(); err != nil {
		t.Fatalf("Rehydrate: %v", err)
	}
	if err := s.CheckSuperblock(); err != nil {
		t.Fatalf("superblock still bad after rehydrate: %v", err)
	}
	for _, k := range []string{"alpha", "beta", "gamma", "delta"} {
		wantKey(t, s, k)
	}
}

func TestShardedRebuildRejoins(t *testing.T) {
	cfg := Config{MetaSlots: 64, SlotSize: 128, DataSlots: 64, DataBufSize: 512, VerifyOnGet: true}
	const shards = 4
	r := pmem.New(ShardedRegionSize(cfg, shards), calib.Off())
	ss, err := OpenSharded(r, cfg, shards)
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	for i := 0; i < 32; i++ {
		k := fmt.Sprintf("key-%03d", i)
		keys = append(keys, k)
		if err := ss.Put([]byte(k), []byte("value of "+k)); err != nil {
			t.Fatal(err)
		}
	}
	victim := 2
	before := ss.Shard(victim)
	ss.Quarantine(victim, fmt.Errorf("injected"))
	if st := ss.States()[victim]; st.State != "down" {
		t.Fatalf("victim state = %q, want down", st.State)
	}
	// Non-victim keys keep serving; victim keys answer ErrShardDown.
	for _, k := range keys {
		_, ok, err := ss.Get([]byte(k))
		if ShardOf([]byte(k), shards) == victim {
			if err == nil {
				t.Fatalf("quarantined shard served %q", k)
			}
		} else if err != nil || !ok {
			t.Fatalf("healthy shard lost %q: ok=%v err=%v", k, ok, err)
		}
	}
	if err := ss.Rebuild(victim); err != nil {
		t.Fatalf("Rebuild: %v", err)
	}
	if ss.Shard(victim) != before {
		t.Fatal("rebuild replaced the parked Store (pool wiring would break)")
	}
	if st := ss.States()[victim]; st.State != "serving" {
		t.Fatalf("victim state = %q after rebuild, want serving", st.State)
	}
	for _, k := range keys {
		v, ok, err := ss.Get([]byte(k))
		if err != nil || !ok || string(v) != "value of "+k {
			t.Fatalf("after rejoin, %q: ok=%v err=%v v=%q", k, ok, err, v)
		}
	}
	// Rebuild of a serving shard is a no-op.
	if err := ss.Rebuild(victim); err != nil {
		t.Fatalf("Rebuild of serving shard: %v", err)
	}
}
