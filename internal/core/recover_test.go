package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"packetstore/internal/calib"
	"packetstore/internal/pmem"
)

// Recovery scan tests: the scan validates slot blocks on every core and
// merges the workers' sorted candidates, so these pin that its answer —
// index, free list, sequence, quarantine order — is the same for any
// worker count, and that duplicates and damage spread over blocks owned
// by different workers resolve exactly as a single pass would.

// withProcs runs the rest of the test under GOMAXPROCS n (the scan's
// worker count).
func withProcs(t *testing.T, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// keyOfClass returns record id's key, cycling through the three key
// length classes the index comparator treats differently: keys that fit
// the 8-byte prefix, 9–16 bytes, and longer.
func keyOfClass(id int) string {
	switch id % 3 {
	case 0:
		return fmt.Sprintf("k%05d", id) // 6 bytes
	case 1:
		return fmt.Sprintf("key-%011d", id) // 15 bytes
	}
	return fmt.Sprintf("a-much-longer-key-%08d", id) // 26 bytes
}

func valueOf(id int) []byte { return bytes.Repeat([]byte{byte(id), byte(id >> 8)}, 20+id%9) }

// recoverImage is a crafted region image spanning four scan blocks:
// records of all three key classes, a deleted record every 100 ids,
// three cross-block duplicate pairs and one CRC-damaged slot per block.
type recoverImage struct {
	cfg     Config
	img     []byte
	records map[string][]byte // what recovery must serve
	corrupt []int             // damaged slots, ascending
	winners map[int]int       // duplicate survivor slot -> loser slot
}

const imageRecords = 1800

func buildRecoverImage(t *testing.T) recoverImage {
	t.Helper()
	cfg := Config{MetaSlots: 4 * scanBlock, SlotSize: 128, DataSlots: 2048, DataBufSize: 128}
	r := pmem.New(cfg.RegionSize(), calib.Off())
	s, err := Open(r, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ri := recoverImage{cfg: cfg, records: map[string][]byte{}}
	for id := 0; id < imageRecords; id++ {
		if err := s.Put([]byte(keyOfClass(id)), valueOf(id)); err != nil {
			t.Fatal(err)
		}
		ri.records[keyOfClass(id)] = valueOf(id)
	}
	for id := 0; id < imageRecords; id += 100 {
		if ok, err := s.Delete([]byte(keyOfClass(id))); !ok || err != nil {
			t.Fatalf("delete %d: %v", id, err)
		}
		delete(ri.records, keyOfClass(id))
	}
	// Puts took slots in ascending order, one each: id's slot is id.
	slot := func(id int) int { return slotOf(t, s, keyOfClass(id)) }
	freeSlot := func(id int) int { // the slot a deleted id left behind
		if id%100 != 0 || !slices.Contains(s.metaFree, int32(id)) {
			t.Fatalf("slot %d is not a deleted record's", id)
		}
		return id
	}
	// clone copies slot from's committed image into slot to with commit
	// sequence seq, checksum recomputed: a second committed version of
	// the same key sharing the original's data slots.
	clone := func(from, to int, seq uint64) {
		img := bytes.Clone(s.slot(from))
		binary.LittleEndian.PutUint64(img[oSeq:], seq)
		binary.LittleEndian.PutUint32(img[oSlotSum:], slotSum(img, s.slotKey(img)))
		patch(r, s.slotOff(to), bytes.Clone(s.slot(to)), img)
	}
	seqOf := func(i int) uint64 { return binary.LittleEndian.Uint64(s.slot(i)[oSeq:]) }
	// Newer copy in a later block wins; older copy in an earlier block
	// loses; an equal-sequence copy in an earlier block wins the tie.
	a, b, c := slot(5), slot(1651), slot(1201)
	fa, fb, fc := freeSlot(1600), freeSlot(300), freeSlot(700)
	clone(a, fa, s.seq+1)
	clone(b, fb, seqOf(b)-1)
	clone(c, fc, seqOf(c))
	ri.winners = map[int]int{fa: a, b: fb, fc: c}
	for _, id := range []int{7, 601, 1102, 1703} {
		i := slot(id)
		r.CorruptByte(s.slotOff(i)+oSlotSum, 0x40)
		ri.corrupt = append(ri.corrupt, i)
		delete(ri.records, keyOfClass(id))
	}
	ri.img = bytes.Clone(r.Slice(0, r.Size()))
	return ri
}

// open reopens a private copy of the image.
func (ri recoverImage) open(t *testing.T) *Store {
	t.Helper()
	r := pmem.New(len(ri.img), calib.Off())
	r.Write(0, ri.img)
	r.Persist(0, len(ri.img))
	s, err := Open(r, ri.cfg)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	return s
}

// scanOutcome is everything a rescan decides that a reader can observe.
type scanOutcome struct {
	Index       []string // key/slot/height in index order
	MetaFree    []int32
	Seq         uint64
	Count       int
	Quarantined int
}

func outcomeOf(s *Store) scanOutcome {
	o := scanOutcome{MetaFree: slices.Clone(s.metaFree), Seq: s.seq, Count: s.count, Quarantined: s.quarantined}
	for w := s.head.next[0].Load(); w != 0; {
		e := s.nodes.load(int(w - 1))
		d := e.desc.Load()
		o.Index = append(o.Index, fmt.Sprintf("%s/%d/%d", d.key, d.slot, e.height))
		w = e.next[0].Load()
	}
	return o
}

// TestRecoverSameAnswerAnyWorkers reopens one image under 1, 2, 3 and 8
// scan workers, then rehydrates each store with a quarantine hook
// installed: boot and rebuild must produce the identical index (keys,
// slots, heights), free list, sequence and hook order every time.
func TestRecoverSameAnswerAnyWorkers(t *testing.T) {
	ri := buildRecoverImage(t)
	type run struct {
		Boot, Rebuilt scanOutcome
		Hooked        []int
	}
	var want run
	for _, procs := range []int{1, 2, 3, 8} {
		withProcs(t, procs)
		s := ri.open(t)
		var got run
		got.Boot = outcomeOf(s)
		s.SetQuarantineHook(func(slot int, err error) { got.Hooked = append(got.Hooked, slot) })
		if err := s.Rehydrate(); err != nil {
			t.Fatalf("procs %d: rehydrate: %v", procs, err)
		}
		got.Rebuilt = outcomeOf(s)
		if !slices.Equal(got.Hooked, ri.corrupt) {
			t.Fatalf("procs %d: quarantine hook saw %v, want %v (slot order)", procs, got.Hooked, ri.corrupt)
		}
		if procs == 1 {
			want = got
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("procs %d: scan outcome differs from one worker's", procs)
		}
	}
	if len(want.Boot.Index) != len(ri.records) {
		t.Fatalf("indexed %d records, want %d", len(want.Boot.Index), len(ri.records))
	}
}

// TestRecoverDuplicatesAcrossBlocks: two committed versions of one key in
// blocks owned by different workers — the newest wins (equal sequences:
// the lower slot), the loser's commit word is cleared and its slot is
// free, and the survivor serves.
func TestRecoverDuplicatesAcrossBlocks(t *testing.T) {
	withProcs(t, 4)
	ri := buildRecoverImage(t)
	s := ri.open(t)
	for win, lose := range ri.winners {
		if win/scanBlock == lose/scanBlock {
			t.Fatalf("duplicate pair %d/%d shares a block", win, lose)
		}
		if s.descAt(win) == nil {
			t.Errorf("slot %d should have won the dedup", win)
		}
		if s.descAt(lose) != nil || binary.LittleEndian.Uint64(s.slot(lose)[oSeq:]) != 0 {
			t.Errorf("loser slot %d still indexed or committed", lose)
		}
		if !slices.Contains(s.metaFree, int32(lose)) {
			t.Errorf("loser slot %d not free", lose)
		}
	}
	if got := s.Len(); got != len(ri.records) {
		t.Fatalf("len %d, want %d (a duplicate double-counted or lost)", got, len(ri.records))
	}
}

// TestRecoverCorruptAcrossBlocks: one damaged slot per block — each is
// quarantined (in slot order, see the worker test), the store opens,
// and every other record serves byte-exact.
func TestRecoverCorruptAcrossBlocks(t *testing.T) {
	withProcs(t, 4)
	ri := buildRecoverImage(t)
	s := ri.open(t)
	if got := s.Quarantined(); got != len(ri.corrupt) {
		t.Fatalf("quarantined %d, want %d", got, len(ri.corrupt))
	}
	for _, i := range ri.corrupt {
		if s.descAt(i) != nil || slices.Contains(s.metaFree, int32(i)) {
			t.Fatalf("damaged slot %d indexed or reusable", i)
		}
	}
	for k, v := range ri.records {
		if got, ok, err := s.Get([]byte(k)); err != nil || !ok || !bytes.Equal(got, v) {
			t.Fatalf("%q: ok=%v err=%v", k, ok, err)
		}
	}
}

// TestRecoverKeyLengthClasses: keys of ≤ 8, 9–16 and > 16 bytes come back
// in bytes.Compare order — the merge and the index comparator agree on
// every class boundary.
func TestRecoverKeyLengthClasses(t *testing.T) {
	withProcs(t, 3)
	ri := buildRecoverImage(t)
	s := ri.open(t)
	var keys []string
	for k := range ri.records {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	recs := dump(t, s)
	if len(recs) != len(keys) {
		t.Fatalf("%d records, want %d", len(recs), len(keys))
	}
	for i, rec := range recs {
		if string(rec.Key) != keys[i] || !bytes.Equal(rec.Value, ri.records[keys[i]]) {
			t.Fatalf("record %d: %q, want %q", i, rec.Key, keys[i])
		}
	}
}

// TestRecoverAllocsPerRecord is the allocation ratchet: descriptors, key
// copies and extent lists come from per-worker chunks, so reopening a
// store of 32 768 records costs at most 0.1 heap allocations per record
// (one map entry, one descriptor, one key and one extent slice each —
// 4.0 — before the chunks).
func TestRecoverAllocsPerRecord(t *testing.T) {
	const records = 32768
	cfg := Config{MetaSlots: records, SlotSize: 128, DataSlots: records, DataBufSize: 64}
	r := pmem.New(cfg.RegionSize(), calib.Off())
	s, err := Open(r, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < records; id++ {
		if err := s.Put([]byte(keyOfClass(id)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := Open(r, cfg); err != nil {
			t.Fatal(err)
		}
	})
	per := allocs / records
	if per > 0.1 {
		t.Fatalf("%.0f allocations to recover %d records: %.3f per record, want <= 0.1", allocs, records, per)
	}
	t.Logf("%.0f allocations to recover %d records: %.4f per record", allocs, records, per)
}
