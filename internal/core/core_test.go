package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"packetstore/internal/calib"
	"packetstore/internal/checksum"
	"packetstore/internal/pmem"
)

func newStore(t *testing.T, cfg Config) (*pmem.Region, *Store) {
	t.Helper()
	cfg2 := cfg
	r := pmem.New(cfg2.RegionSize(), calib.Off())
	s, err := Open(r, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r, s
}

func TestPutGetDelete(t *testing.T) {
	_, s := newStore(t, Config{VerifyOnGet: true})
	if err := s.Put([]byte("alpha"), []byte("value-1")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put([]byte("beta"), []byte("value-2")); err != nil {
		t.Fatal(err)
	}
	v, ok, err := s.Get([]byte("alpha"))
	if err != nil || !ok || string(v) != "value-1" {
		t.Fatalf("Get=%q,%v,%v", v, ok, err)
	}
	if s.Len() != 2 {
		t.Fatalf("Len=%d", s.Len())
	}
	found, err := s.Delete([]byte("alpha"))
	if err != nil || !found {
		t.Fatalf("Delete=%v,%v", found, err)
	}
	if _, ok, _ := s.Get([]byte("alpha")); ok {
		t.Fatal("deleted key visible")
	}
	if found, _ := s.Delete([]byte("alpha")); found {
		t.Fatal("double delete found the key")
	}
	if s.Len() != 1 {
		t.Fatalf("Len=%d after delete", s.Len())
	}
}

func TestOverwriteNewestWins(t *testing.T) {
	_, s := newStore(t, Config{VerifyOnGet: true})
	for i := 0; i < 10; i++ {
		if err := s.Put([]byte("key"), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	v, ok, err := s.Get([]byte("key"))
	if err != nil || !ok || string(v) != "v9" {
		t.Fatalf("Get=%q,%v,%v", v, ok, err)
	}
	if s.Len() != 1 {
		t.Fatalf("Len=%d", s.Len())
	}
	// Old versions' slots and data must have been recycled: store many
	// more overwrites than there are slots.
	for i := 0; i < 10000; i++ {
		if err := s.Put([]byte("key"), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatalf("overwrite %d: %v (slot leak?)", i, err)
		}
	}
}

func TestEmptyValueAndMissingKey(t *testing.T) {
	_, s := newStore(t, Config{VerifyOnGet: true})
	if err := s.Put([]byte("empty"), nil); err != nil {
		t.Fatal(err)
	}
	v, ok, err := s.Get([]byte("empty"))
	if err != nil || !ok || len(v) != 0 {
		t.Fatalf("empty value: %q,%v,%v", v, ok, err)
	}
	if _, ok, _ := s.Get([]byte("absent")); ok {
		t.Fatal("absent key found")
	}
	if err := s.Put(nil, []byte("v")); err != ErrKeyTooLong {
		t.Fatalf("empty key accepted: %v", err)
	}
}

func TestLargeValueSpansSlots(t *testing.T) {
	_, s := newStore(t, Config{VerifyOnGet: true, DataBufSize: 512})
	val := make([]byte, 10000)
	rand.New(rand.NewSource(1)).Read(val)
	if err := s.Put([]byte("big"), val); err != nil {
		t.Fatal(err)
	}
	got, ok, err := s.Get([]byte("big"))
	if err != nil || !ok || !bytes.Equal(got, val) {
		t.Fatalf("large value corrupted: %d bytes, %v, %v", len(got), ok, err)
	}
	ref, _, _ := s.GetRef([]byte("big"))
	if len(ref.Extents) <= inlineExtents {
		t.Fatalf("expected chained extents, got %d", len(ref.Extents))
	}
}

func TestZeroCopyPutExtents(t *testing.T) {
	_, s := newStore(t, Config{ChecksumReuse: true, VerifyOnGet: true})
	// Simulate a received packet: allocate from the store's pool (as the
	// NIC would), fill with "payload", adopt, and commit by reference.
	b := s.Pool().Alloc(0)
	payload := []byte("KEY1value-from-the-wire")
	copy(b.Append(len(payload)), payload)
	base := s.AdoptBuf(b)
	keyOff := base
	valOff := base + 4
	valLen := len(payload) - 4
	sum := checksum.Partial(0, payload[4:])
	err := s.PutExtents(payload[:4], valLen, PutOptions{
		Extents: []Extent{{Off: valOff, Len: valLen, Sum: sum}},
		KeyOff:  keyOff,
		HasSum:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	b.Release()
	s.ReleaseUnused(base) // must be a no-op: record references the slot

	v, ok, err := s.Get([]byte("KEY1"))
	if err != nil || !ok || string(v) != "value-from-the-wire" {
		t.Fatalf("Get=%q,%v,%v", v, ok, err)
	}
	st := s.Stats()
	if st.ChecksumReused != 1 || st.ChecksumComputed != 0 {
		t.Fatalf("checksum reuse not exercised: %+v", st)
	}
}

func TestMultiExtentChecksumCombine(t *testing.T) {
	_, s := newStore(t, Config{ChecksumReuse: true, VerifyOnGet: true})
	// A value split across three packets (three extents), each with its
	// NIC-provided partial sum; the combined stored checksum must match a
	// straight computation over the concatenation.
	var bufs [][]byte
	var exts []Extent
	whole := []byte{}
	key := []byte("multi")
	// Key lives in the first buffer.
	b0 := s.Pool().Alloc(0)
	copy(b0.Append(len(key)), key)
	base0 := s.AdoptBuf(b0)
	b0.Release()
	for i := 0; i < 3; i++ {
		part := make([]byte, 1000+i*3) // even and odd lengths
		rand.New(rand.NewSource(int64(i))).Read(part)
		b := s.Pool().Alloc(0)
		copy(b.Append(len(part)), part)
		base := s.AdoptBuf(b)
		b.Release()
		exts = append(exts, Extent{Off: base, Len: len(part), Sum: checksum.Partial(0, part)})
		whole = append(whole, part...)
		bufs = append(bufs, part)
	}
	_ = bufs
	err := s.PutExtents(key, len(whole), PutOptions{Extents: exts, KeyOff: base0, HasSum: true})
	if err != nil {
		t.Fatal(err)
	}
	got, ok, err := s.Get(key)
	if err != nil || !ok || !bytes.Equal(got, whole) {
		t.Fatalf("multi-extent get failed: %v %v", ok, err)
	}
	ref, _, _ := s.GetRef(key)
	if checksum.Fold(ref.Csum) != checksum.Fold(checksum.Partial(0, whole)) {
		t.Fatal("combined checksum does not match straight computation")
	}
}

func TestReleaseUnusedReturnsSlot(t *testing.T) {
	_, s := newStore(t, Config{DataSlots: 4})
	b := s.Pool().Alloc(0)
	base := s.AdoptBuf(b)
	b.Release()
	s.ReleaseUnused(base)
	// All four slots allocatable again.
	for i := 0; i < 4; i++ {
		if nb := s.Pool().Alloc(0); nb == nil {
			t.Fatal("slot leaked")
		}
	}
}

func TestVerifyDetectsCorruption(t *testing.T) {
	r, s := newStore(t, Config{})
	s.Put([]byte("good"), []byte("untouched-data"))
	s.Put([]byte("bad"), []byte("to-be-corrupted"))
	// Flip a bit in "bad"'s value inside the data area.
	img := r.Slice(0, r.Size())
	idx := bytes.Index(img, []byte("to-be-corrupted"))
	if idx < 0 {
		t.Fatal("value not found in region")
	}
	img[idx] ^= 0x80
	bad, err := s.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if len(bad) != 1 || string(bad[0]) != "bad" {
		t.Fatalf("Verify reported %q", bad)
	}
	// VerifyOnGet catches it too.
	_, s2 := newStore(t, Config{VerifyOnGet: true})
	_ = s2
}

func TestGetVerifyOnReadCorruption(t *testing.T) {
	r, s := newStore(t, Config{VerifyOnGet: true})
	s.Put([]byte("k"), []byte("sensitive-payload"))
	img := r.Slice(0, r.Size())
	idx := bytes.Index(img, []byte("sensitive-payload"))
	img[idx+3] ^= 0x01
	if _, _, err := s.Get([]byte("k")); err == nil {
		t.Fatal("corrupted read not detected")
	}
}

func TestRangeAndAscend(t *testing.T) {
	_, s := newStore(t, Config{})
	for i := 0; i < 50; i++ {
		s.Put([]byte(fmt.Sprintf("k%03d", i)), []byte(fmt.Sprintf("v%d", i)))
	}
	recs, err := s.Range([]byte("k010"), []byte("k020"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 10 {
		t.Fatalf("range size %d", len(recs))
	}
	for i, rec := range recs {
		if string(rec.Key) != fmt.Sprintf("k%03d", 10+i) {
			t.Fatalf("order broken at %d: %s", i, rec.Key)
		}
		if string(rec.Value) != fmt.Sprintf("v%d", 10+i) {
			t.Fatalf("value mismatch at %s", rec.Key)
		}
	}
	// Limit + unbounded end.
	recs, _ = s.Range([]byte("k045"), nil, 3)
	if len(recs) != 3 || string(recs[0].Key) != "k045" {
		t.Fatalf("limited range: %d", len(recs))
	}
	// Early-stop Ascend.
	n := 0
	s.Ascend(nil, func(rec Record) bool { n++; return n < 7 })
	if n != 7 {
		t.Fatalf("ascend early stop: %d", n)
	}
}

func TestMetaSlotExhaustion(t *testing.T) {
	_, s := newStore(t, Config{MetaSlots: 8, DataSlots: 64})
	var err error
	for i := 0; i < 100; i++ {
		if err = s.Put([]byte(fmt.Sprintf("key%04d", i)), []byte("v")); err != nil {
			break
		}
	}
	if err != ErrFull {
		t.Fatalf("want ErrFull, got %v", err)
	}
}

func TestDataSlotExhaustion(t *testing.T) {
	_, s := newStore(t, Config{MetaSlots: 512, DataSlots: 4, DataBufSize: 512})
	var err error
	for i := 0; i < 100; i++ {
		if err = s.Put([]byte(fmt.Sprintf("key%04d", i)), make([]byte, 400)); err != nil {
			break
		}
	}
	if err != ErrFull {
		t.Fatalf("want ErrFull, got %v", err)
	}
}

func TestRecoveryCleanReopen(t *testing.T) {
	r, s := newStore(t, Config{VerifyOnGet: true})
	ref := map[string]string{}
	for i := 0; i < 500; i++ {
		k, v := fmt.Sprintf("key%05d", i), fmt.Sprintf("value-%d", i)
		if err := s.Put([]byte(k), []byte(v)); err != nil {
			t.Fatal(err)
		}
		ref[k] = v
	}
	s2, err := Open(r, Config{VerifyOnGet: true})
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 500 {
		t.Fatalf("recovered %d records", s2.Len())
	}
	for k, v := range ref {
		got, ok, err := s2.Get([]byte(k))
		if err != nil || !ok || string(got) != v {
			t.Fatalf("reopen lost %s: %q,%v,%v", k, got, ok, err)
		}
	}
	// Writable after recovery; overwrites and deletes work.
	if err := s2.Put([]byte("key00000"), []byte("new")); err != nil {
		t.Fatal(err)
	}
	if v, _, _ := s2.Get([]byte("key00000")); string(v) != "new" {
		t.Fatal("post-recovery overwrite failed")
	}
}

func TestCrashRecoveryProperty(t *testing.T) {
	// Randomized crash consistency: after any crash, (a) every
	// acknowledged put that was not later overwritten/deleted is present
	// with intact data; (b) every deleted key is absent; (c) Verify
	// passes.
	for seed := int64(0); seed < 15; seed++ {
		cfg := Config{MetaSlots: 2048, DataSlots: 2048, VerifyOnGet: true}
		r := pmem.New(cfg.RegionSize(), calib.Off())
		s, err := Open(r, cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		ref := map[string]string{}
		ops := 200 + rng.Intn(400)
		for i := 0; i < ops; i++ {
			k := fmt.Sprintf("key%03d", rng.Intn(150))
			switch rng.Intn(5) {
			case 0:
				if _, err := s.Delete([]byte(k)); err != nil {
					t.Fatal(err)
				}
				delete(ref, k)
			default:
				v := fmt.Sprintf("val-%d-%d", seed, i)
				if err := s.Put([]byte(k), []byte(v)); err != nil {
					t.Fatal(err)
				}
				ref[k] = v
			}
		}
		r.Crash(rng.Int63())
		s2, err := Open(r, cfg)
		if err != nil {
			t.Fatalf("seed %d: recovery failed: %v", seed, err)
		}
		if s2.Len() != len(ref) {
			t.Fatalf("seed %d: recovered %d records, want %d", seed, s2.Len(), len(ref))
		}
		for k, v := range ref {
			got, ok, err := s2.Get([]byte(k))
			if err != nil || !ok || string(got) != v {
				t.Fatalf("seed %d: key %s = %q,%v,%v want %q", seed, k, got, ok, err, v)
			}
		}
		if bad, _ := s2.Verify(); len(bad) != 0 {
			t.Fatalf("seed %d: Verify failed for %q", seed, bad)
		}
		// The store remains fully usable: fill-and-check again.
		for i := 0; i < 50; i++ {
			k := fmt.Sprintf("post%03d", i)
			if err := s2.Put([]byte(k), []byte(k)); err != nil {
				t.Fatalf("seed %d: post-crash put: %v", seed, err)
			}
		}
	}
}

func TestCrashDuringOverwriteKeepsOneVersion(t *testing.T) {
	// Repeated overwrite + crash: after recovery exactly one committed
	// version exists (either old or new, never both, never neither —
	// unless the new one was never acknowledged, in which case old).
	for seed := int64(0); seed < 10; seed++ {
		cfg := Config{MetaSlots: 64, DataSlots: 64}
		r := pmem.New(cfg.RegionSize(), calib.Off())
		s, _ := Open(r, cfg)
		s.Put([]byte("k"), []byte("v0"))
		for i := 1; i <= 5; i++ {
			s.Put([]byte("k"), []byte(fmt.Sprintf("v%d", i)))
		}
		r.Crash(seed)
		s2, err := Open(r, cfg)
		if err != nil {
			t.Fatal(err)
		}
		v, ok, err := s2.Get([]byte("k"))
		if err != nil || !ok || string(v) != "v5" {
			t.Fatalf("seed %d: got %q,%v,%v want v5", seed, v, ok, err)
		}
		if s2.Len() != 1 {
			t.Fatalf("seed %d: %d records", seed, s2.Len())
		}
	}
}

func TestPinExtentsBlocksReclaim(t *testing.T) {
	_, s := newStore(t, Config{DataSlots: 8, DataBufSize: 512})
	s.Put([]byte("pinned"), []byte("payload"))
	ref, ok, _ := s.GetRef([]byte("pinned"))
	if !ok {
		t.Fatal("missing")
	}
	release := s.PinExtents(ref.Extents)
	// Delete while pinned: record goes away but data slot survives until
	// release (lent to the transport for retransmission).
	s.Delete([]byte("pinned"))
	got := s.Slice(ref.Extents[0].Off, ref.Extents[0].Len)
	if string(got) != "payload" {
		t.Fatal("pinned data reclaimed early")
	}
	release()
	release() // idempotent
	// Now all 8 slots are free again.
	free := 0
	for {
		if b := s.Pool().Alloc(0); b != nil {
			free++
		} else {
			break
		}
	}
	if free != 8 {
		t.Fatalf("%d slots free after release, want 8", free)
	}
}

func TestHWTimestampPersisted(t *testing.T) {
	_, s := newStore(t, Config{ChecksumReuse: true})
	b := s.Pool().Alloc(0)
	copy(b.Append(8), "KEYVALUE")
	base := s.AdoptBuf(b)
	b.Release()
	hw := time.Unix(0, 123456789)
	err := s.PutExtents([]byte("KEY"), 5, PutOptions{
		Extents: []Extent{{Off: base + 3, Len: 5, Sum: checksum.Partial(0, []byte("VALUE"))}},
		KeyOff:  base, HasSum: true, HWTime: hw,
	})
	if err != nil {
		t.Fatal(err)
	}
	ref, ok, _ := s.GetRef([]byte("KEY"))
	if !ok || !ref.HWTime.Equal(hw) {
		t.Fatalf("HWTime %v want %v", ref.HWTime, hw)
	}
}

func TestGeometryMismatchRejected(t *testing.T) {
	cfg := Config{MetaSlots: 128, DataSlots: 128}
	r := pmem.New(cfg.RegionSize(), calib.Off())
	s, err := Open(r, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Put([]byte("k"), []byte("v"))
	if _, err := Open(r, Config{MetaSlots: 256, DataSlots: 128}); err == nil {
		t.Fatal("geometry mismatch accepted")
	}
}

// TestOldFormatRefused: a region written by the previous slot format
// ("PKSTOR1"+'1': [48,80) outside the slot CRC) is refused whole — typed,
// and without touching a byte — instead of opening with every record
// quarantined.
func TestOldFormatRefused(t *testing.T) {
	cfg := Config{MetaSlots: 128, DataSlots: 128}
	r := pmem.New(cfg.RegionSize(), calib.Off())
	s, err := Open(r, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Put([]byte("k"), []byte("v"))
	const oldMagic = 0x31524f54534b5250
	r.WriteUint64(sbOMagic, oldMagic)
	r.Persist(sbOMagic, 8)
	before := bytes.Clone(r.Slice(0, r.Size()))
	if _, err := Open(r, cfg); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open over the old format = %v, want ErrCorrupt", err)
	}
	if !bytes.Equal(before, r.Slice(0, r.Size())) {
		t.Fatal("refusing the old format modified the region")
	}
}

func TestRegionTooSmall(t *testing.T) {
	r := pmem.New(4096, calib.Off())
	if _, err := Open(r, Config{}); err == nil {
		t.Fatal("tiny region accepted")
	}
}

func TestSlotSizeAblation(t *testing.T) {
	for _, slotSize := range []int{128, 256, 512} {
		cfg := Config{SlotSize: slotSize, MetaSlots: 256, DataSlots: 256}
		r := pmem.New(cfg.RegionSize(), calib.Off())
		s, err := Open(r, cfg)
		if err != nil {
			t.Fatalf("slot size %d: %v", slotSize, err)
		}
		for i := 0; i < 100; i++ {
			if err := s.Put([]byte(fmt.Sprintf("k%03d", i)), []byte("v")); err != nil {
				t.Fatalf("slot size %d: %v", slotSize, err)
			}
		}
		if _, ok, _ := s.Get([]byte("k050")); !ok {
			t.Fatalf("slot size %d: lost key", slotSize)
		}
	}
}

func TestBreakdownPhases(t *testing.T) {
	_, s := newStore(t, Config{Breakdown: true})
	for i := 0; i < 50; i++ {
		s.Put([]byte(fmt.Sprintf("k%03d", i)), make([]byte, 1024))
	}
	bd := s.Breakdown()
	if bd.Ops != 50 || bd.Checksum == 0 || bd.Copy == 0 || bd.Meta == 0 || bd.Flush == 0 {
		t.Fatalf("breakdown %+v", bd)
	}
	s.ResetBreakdown()
	if s.Breakdown().Ops != 0 {
		t.Fatal("reset failed")
	}
}

func BenchmarkPut1KCopyPath(b *testing.B) {
	cfg := Config{MetaSlots: 1 << 18, DataSlots: 1 << 18}
	r := pmem.New(cfg.RegionSize(), calib.Off())
	s, err := Open(r, cfg)
	if err != nil {
		b.Fatal(err)
	}
	val := make([]byte, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Put([]byte(fmt.Sprintf("key%012d", i%100000)), val); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGet1K(b *testing.B) {
	cfg := Config{MetaSlots: 1 << 17, DataSlots: 1 << 17}
	r := pmem.New(cfg.RegionSize(), calib.Off())
	s, _ := Open(r, cfg)
	val := make([]byte, 1024)
	for i := 0; i < 50000; i++ {
		s.Put([]byte(fmt.Sprintf("key%08d", i)), val)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Get([]byte(fmt.Sprintf("key%08d", (i*7919)%50000)))
	}
}
