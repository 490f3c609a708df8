package core

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"packetstore/internal/calib"
	"packetstore/internal/pmem"
)

// Parity-group tests. The redundancy invariants under test:
//   - every parity partition equals the XOR of its members' durable data
//     areas whenever the store is quiescent (maintenance rides the
//     commit fence, boot recomputes);
//   - losing one member's whole data area is survivable: rebuild or
//     in-place scrub re-materialises every record from parity + peers;
//   - losing two members of one group surfaces as typed
//     ErrUnrecoverable — never as silent misses or wrong bytes;
//   - a successful repair lifts the media-damage fences so the data
//     slots recycle (the capacity-leak regression).

func parityCfg(group int) Config {
	return Config{MetaSlots: 64, SlotSize: 128, DataSlots: 64, DataBufSize: 512,
		VerifyOnGet: true, ParityGroup: group}
}

func parityOpen(t *testing.T, cfg Config, shards int) (*pmem.Region, *ShardedStore) {
	t.Helper()
	r := pmem.New(ShardedRegionSize(cfg, shards), calib.Off())
	ss, err := OpenSharded(r, cfg, shards)
	if err != nil {
		t.Fatal(err)
	}
	return r, ss
}

// parityFill puts n records through the sharded front door and returns
// the reference map.
func parityFill(t *testing.T, ss *ShardedStore, n int) map[string]string {
	t.Helper()
	ref := map[string]string{}
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("key%03d", i)
		v := fmt.Sprintf("val-%03d-%03d", i, i*7)
		if err := ss.Put([]byte(k), []byte(v)); err != nil {
			t.Fatal(err)
		}
		ref[k] = v
	}
	return ref
}

func wantAll(t *testing.T, ss *ShardedStore, ref map[string]string) {
	t.Helper()
	for k, v := range ref {
		got, ok, err := ss.Get([]byte(k))
		if err != nil || !ok || string(got) != v {
			t.Fatalf("Get(%q) = %q,%v,%v want %q", k, got, ok, err, v)
		}
	}
}

// scrubAll sweeps one store's whole slot array, accumulating results.
func scrubAll(s *Store) ScrubResult {
	var sum ScrubResult
	cursor := 0
	for {
		res := s.ScrubSlots(cursor, 16)
		sum.Checked += res.Checked
		sum.Bad += res.Bad
		sum.Excised += res.Excised
		sum.Reconstructed += res.Reconstructed
		sum.Unrecoverable += res.Unrecoverable
		sum.NeedsRebuild += res.NeedsRebuild
		cursor = res.Next
		if cursor == 0 {
			return sum
		}
	}
}

// TestParityMaintainedUnderMixedLoad checks the incremental write-path
// maintenance: after an arbitrary mix of immediate puts, staged batches,
// overwrites and deletes, every parity partition still equals the XOR of
// its members' durable data areas.
func TestParityMaintainedUnderMixedLoad(t *testing.T) {
	_, ss := parityOpen(t, parityCfg(2), 4)
	for i := 0; i < 120; i++ {
		k := fmt.Sprintf("key%03d", i%40)
		switch i % 5 {
		case 3:
			if _, err := ss.Delete([]byte(k)); err != nil {
				t.Fatal(err)
			}
		case 4:
			if err := ss.PutStaged([]byte(k), []byte(fmt.Sprintf("staged-%04d", i))); err != nil {
				t.Fatal(err)
			}
			if i%10 == 9 {
				ss.Commit()
			}
		default:
			if err := ss.Put([]byte(k), []byte(fmt.Sprintf("val-%04d", i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	ss.Commit()
	if err := ss.VerifyParity(); err != nil {
		t.Fatalf("parity diverged under mixed load: %v", err)
	}
	if st := ss.Stats(); st.ParityWrites == 0 {
		t.Fatal("no parity lines written by the commit path")
	}
}

// TestParityRebuildRecoversErasedDataArea is the tentpole end-to-end:
// one member's entire data area is destroyed at media level, the shard
// is quarantined and rebuilt, and every record comes back bit-exact via
// reconstruction from parity and the surviving members.
func TestParityRebuildRecoversErasedDataArea(t *testing.T) {
	_, ss := parityOpen(t, parityCfg(3), 3)
	ref := parityFill(t, ss, 40)

	ss.EraseDataArea(1)
	ss.Quarantine(1, nil)
	// The surviving members keep serving their keyspace throughout.
	for k, v := range ref {
		if ShardOf([]byte(k), 3) == 1 {
			continue
		}
		got, ok, err := ss.Get([]byte(k))
		if err != nil || !ok || string(got) != v {
			t.Fatalf("survivor Get(%q) = %q,%v,%v want %q", k, got, ok, err, v)
		}
	}
	if err := ss.Rebuild(1); err != nil {
		t.Fatalf("rebuild after data-area erase: %v", err)
	}
	wantAll(t, ss, ref)
	if err := ss.VerifyParity(); err != nil {
		t.Fatalf("parity inconsistent after rebuild: %v", err)
	}
	if st := ss.Stats(); st.Reconstructions == 0 {
		t.Fatal("rebuild recovered an erased data area without reconstructions")
	}
}

// TestScrubHealsErasedDataAreaInPlace: the same whole-area loss healed
// by the budgeted scrubber alone — no quarantine, the shard keeps
// serving while successive scrub steps re-materialise each record.
func TestScrubHealsErasedDataAreaInPlace(t *testing.T) {
	_, ss := parityOpen(t, parityCfg(2), 2)
	ref := parityFill(t, ss, 30)

	ss.EraseDataArea(0)
	// During the damage window reads of the erased shard may miss or
	// fail typed — they must never return wrong bytes.
	for k, v := range ref {
		got, ok, err := ss.Get([]byte(k))
		if err == nil && ok && string(got) != v {
			t.Fatalf("Get(%q) served wrong bytes from erased data area", k)
		}
	}
	res := scrubAll(ss.Shard(0))
	if res.Reconstructed == 0 {
		t.Fatal("scrub reconstructed nothing from an erased data area")
	}
	if res.Unrecoverable != 0 || res.NeedsRebuild != 0 {
		t.Fatalf("single-member loss not fully repairable in place: %+v", res)
	}
	if ss.DownShards() != 0 {
		t.Fatal("in-place heal quarantined a shard")
	}
	wantAll(t, ss, ref)
	if err := ss.VerifyParity(); err != nil {
		t.Fatalf("parity inconsistent after in-place heal: %v", err)
	}
}

// TestParityTwoMemberLossIsTyped: destroying two members of one group
// exceeds the redundancy. The rebuild must fail with ErrUnrecoverable —
// the shards stay down with a typed reason and the other group's shards
// are untouched. Silent loss (a rebuild "succeeding" without the data)
// is the failure mode this test pins down.
func TestParityTwoMemberLossIsTyped(t *testing.T) {
	_, ss := parityOpen(t, parityCfg(2), 4) // groups {0,1} and {2,3}
	ref := parityFill(t, ss, 40)

	ss.EraseDataArea(0)
	ss.EraseDataArea(1)
	ss.Quarantine(0, nil)
	ss.Quarantine(1, nil)
	for _, i := range []int{0, 1} {
		err := ss.Rebuild(i)
		if err == nil {
			t.Fatalf("rebuild of shard %d succeeded after two-member loss", i)
		}
		if !errors.Is(err, ErrUnrecoverable) {
			t.Fatalf("rebuild of shard %d failed untyped: %v", i, err)
		}
		if herr := ss.Health()[i]; !errors.Is(herr, ErrUnrecoverable) {
			t.Fatalf("Health()[%d] = %v, want ErrUnrecoverable", i, herr)
		}
	}
	// The other group's records are all intact and served.
	for k, v := range ref {
		sh := ShardOf([]byte(k), 4)
		got, ok, err := ss.Get([]byte(k))
		if sh <= 1 {
			if err == nil {
				t.Fatalf("Get(%q) on lost shard %d returned no error (ok=%v)", k, sh, ok)
			}
			if !errors.Is(err, ErrShardDown) {
				t.Fatalf("Get(%q) on lost shard: %v, want ErrShardDown", k, err)
			}
			continue
		}
		if err != nil || !ok || string(got) != v {
			t.Fatalf("surviving group Get(%q) = %q,%v,%v want %q", k, got, ok, err, v)
		}
	}
}

// TestRepairLiftsDataHeldFence is the capacity-leak regression
// (satellite 2): value damage that cannot be repaired right away (group
// peer down) fences the data slots and gates the key typed; once the
// peer rejoins, the next scrub pass repairs the record, lifts the
// fences, and the slots recycle normally.
func TestRepairLiftsDataHeldFence(t *testing.T) {
	_, ss := parityOpen(t, parityCfg(2), 2)
	key := ""
	for i := 0; i < 64; i++ {
		if k := fmt.Sprintf("key%03d", i); ShardOf([]byte(k), 2) == 0 {
			key = k
			break
		}
	}
	val := bytes.Repeat([]byte(key), 8)
	if err := ss.Put([]byte(key), val); err != nil {
		t.Fatal(err)
	}
	st := ss.Shard(0)

	// Peer down: the repair has no reconstruction sources.
	ss.Quarantine(1, nil)
	if off := st.CorruptRecord([]byte(key), FlipValueByte, 9, 0x20); off < 0 {
		t.Fatal("CorruptRecord found no slot")
	}
	res := scrubAll(st)
	if res.Bad == 0 || res.Reconstructed != 0 {
		t.Fatalf("scrub with peer down: %+v, want Bad>0 and the repair deferred", res)
	}
	if held := st.HeldDataSlots(); held == 0 {
		t.Fatal("damaged value's data slots not fenced while unrepaired")
	}
	if _, _, err := ss.Get([]byte(key)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Get during deferred repair: %v, want typed ErrCorrupt", err)
	}

	// Peer rejoins; the next pass repairs in place and lifts the fences.
	if err := ss.Rebuild(1); err != nil {
		t.Fatalf("peer rebuild: %v", err)
	}
	res = scrubAll(st)
	if res.Reconstructed == 0 {
		t.Fatalf("scrub after peer rejoin repaired nothing: %+v", res)
	}
	got, ok, err := ss.Get([]byte(key))
	if err != nil || !ok || !bytes.Equal(got, val) {
		t.Fatalf("Get after repair = %q,%v,%v want %q", got, ok, err, val)
	}
	if held := st.HeldDataSlots(); held != 0 {
		t.Fatalf("%d data slots still fenced after successful repair (capacity leak)", held)
	}
	// The slots must actually recycle: delete and refill the shard's
	// data area well past the once-fenced slots.
	if _, err := ss.Delete([]byte(key)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 24; i++ {
		k := fmt.Sprintf("refill%03d", i)
		if ShardOf([]byte(k), 2) != 0 {
			continue
		}
		if err := ss.Put([]byte(k), bytes.Repeat([]byte("x"), 400)); err != nil {
			t.Fatalf("refill put %d after fence lift: %v", i, err)
		}
		if _, err := ss.Delete([]byte(k)); err != nil {
			t.Fatal(err)
		}
	}
}

// TestParityCrashCutPointSweep (satellite 4): cut the power at every
// persist-op index inside a parity-maintaining group commit. After each
// crash the reopened store must hold the acked baseline intact, the
// recomputed parity must verify, and — the part that proves the parity
// bytes are usable, not just self-consistent — a subsequent data-area
// erase of one member must be fully recoverable by rebuild.
func TestParityCrashCutPointSweep(t *testing.T) {
	pmem.SetCrashLogger(func(int64) {})
	defer pmem.SetCrashLogger(nil)
	cfg := parityCfg(3)
	const shards = 3

	baseline := map[string]string{}
	batch := map[string]string{}
	for i := 0; i < 6; i++ {
		baseline[fmt.Sprintf("base%02d", i)] = fmt.Sprintf("old-%02d", i)
	}
	for i := 0; i < 8; i++ {
		batch[fmt.Sprintf("fresh%02d", i)] = fmt.Sprintf("new-%02d", i)
	}
	setup := func() (*pmem.Region, *ShardedStore) {
		r, ss := parityOpen(t, cfg, shards)
		for k, v := range baseline {
			if err := ss.Put([]byte(k), []byte(v)); err != nil {
				t.Fatal(err)
			}
		}
		return r, ss
	}
	runBatch := func(ss *ShardedStore) {
		for i := 0; i < 8; i++ {
			k := fmt.Sprintf("fresh%02d", i)
			if err := ss.PutStaged([]byte(k), []byte(batch[k])); err != nil {
				t.Fatal(err)
			}
		}
		ss.Commit()
	}

	// Count the batch's persist ops once.
	r0, ss0 := setup()
	total := 0
	r0.SetPersistHook(func(op pmem.PersistOp) pmem.PersistDecision {
		total++
		return pmem.PersistDecision{}
	})
	runBatch(ss0)
	r0.SetPersistHook(nil)
	if total == 0 {
		t.Fatal("no persist ops observed")
	}

	for cut := 1; cut <= total; cut++ {
		for _, tear := range []int{0, 13} {
			r, ss := setup()
			n := 0
			r.SetPersistHook(func(op pmem.PersistOp) pmem.PersistDecision {
				n++
				if n == cut {
					return pmem.PersistDecision{Cut: true, TearBytes: tear}
				}
				return pmem.PersistDecision{}
			})
			runBatch(ss)
			r.SetPersistHook(nil)
			if !r.PowerFailed() {
				t.Fatalf("cut %d: power never failed", cut)
			}
			r.Crash(int64(cut*100 + tear))

			ss2, err := OpenSharded(r, cfg, shards)
			if err != nil {
				t.Fatalf("cut %d tear %d: reopen: %v", cut, tear, err)
			}
			if d := ss2.DownShards(); d != 0 {
				t.Fatalf("cut %d tear %d: %d shards down after clean-cut recovery", cut, tear, d)
			}
			if err := ss2.VerifyParity(); err != nil {
				t.Fatalf("cut %d tear %d: parity after recovery: %v", cut, tear, err)
			}
			// Acked baseline intact; batch keys hold the batch value or
			// nothing (the cut preceded the ack).
			state := map[string]string{}
			for k, v := range baseline {
				got, ok, gerr := ss2.Get([]byte(k))
				if gerr != nil || !ok || string(got) != v {
					t.Fatalf("cut %d tear %d: baseline %q = %q,%v,%v want %q",
						cut, tear, k, got, ok, gerr, v)
				}
				state[k] = v
			}
			for k, v := range batch {
				got, ok, gerr := ss2.Get([]byte(k))
				if gerr != nil {
					t.Fatalf("cut %d tear %d: batch key %q: %v", cut, tear, k, gerr)
				}
				if ok {
					if string(got) != v {
						t.Fatalf("cut %d tear %d: batch key %q = %q, want %q or absent",
							cut, tear, k, got, v)
					}
					state[k] = v
				}
			}

			// The recovered parity must be strong enough to survive a
			// member loss: erase one data area, rebuild, compare exactly.
			victim := cut % shards
			ss2.EraseDataArea(victim)
			ss2.Quarantine(victim, nil)
			if err := ss2.Rebuild(victim); err != nil {
				t.Fatalf("cut %d tear %d: post-crash rebuild of shard %d: %v", cut, tear, victim, err)
			}
			for k, v := range state {
				got, ok, gerr := ss2.Get([]byte(k))
				if gerr != nil || !ok || string(got) != v {
					t.Fatalf("cut %d tear %d: after erase+rebuild %q = %q,%v,%v want %q",
						cut, tear, k, got, ok, gerr, v)
				}
			}
			if err := ss2.VerifyParity(); err != nil {
				t.Fatalf("cut %d tear %d: parity after erase+rebuild: %v", cut, tear, err)
			}
		}
	}
}

// TestParityConcurrentCommitsShareParityLines: two members of one group
// commit concurrently. Fresh shards hand out data slots in the same
// order, so both fold into the same parity lines — through the parity
// partition's own lock range — and each fences only what it flushed. At
// quiescence nothing may be left pending and the durable parity
// must equal the XOR of the durable member data: both fences left the
// shared lines durable. (Dirty lines are not checked: upper index-tower
// links are written unflushed by design.)
func TestParityConcurrentCommitsShareParityLines(t *testing.T) {
	r, ss := parityOpen(t, parityCfg(2), 2)
	keys := make([][]string, 2)
	for i := 0; len(keys[0]) < 24 || len(keys[1]) < 24; i++ {
		k := fmt.Sprintf("key%04d", i)
		sh := ShardOf([]byte(k), 2)
		keys[sh] = append(keys[sh], k)
	}
	var wg sync.WaitGroup
	for sh := range keys {
		wg.Add(1)
		go func(ks []string) {
			defer wg.Done()
			for i, k := range ks[:24] {
				if err := ss.Put([]byte(k), []byte(fmt.Sprintf("val-%s-%d", k, i))); err != nil {
					t.Error(err)
				}
			}
		}(keys[sh])
	}
	wg.Wait()
	if st := ss.Stats(); st.ParityWrites == 0 {
		t.Fatal("no parity lines were written")
	}
	if p := r.PendingLines(); p != 0 {
		t.Fatalf("%d lines pending after both members' commits fenced", p)
	}
	if err := ss.VerifyParity(); err != nil {
		t.Fatal(err)
	}
}
