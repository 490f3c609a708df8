package lsm

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"packetstore/internal/calib"
	"packetstore/internal/pmem"
)

func openNoveLSM(t *testing.T, r *pmem.Region, opts ...func(*Options)) *DB {
	t.Helper()
	opt := Options{PM: r, PMSize: r.Size(), ArenaSize: 1 << 20}
	for _, f := range opts {
		f(&opt)
	}
	db, err := Open(opt)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func testBasicOps(t *testing.T, db *DB) {
	t.Helper()
	if err := db.Put([]byte("alpha"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := db.Put([]byte("beta"), []byte("2")); err != nil {
		t.Fatal(err)
	}
	v, ok, err := db.Get([]byte("alpha"))
	if err != nil || !ok || string(v) != "1" {
		t.Fatalf("Get(alpha)=%q,%v,%v", v, ok, err)
	}
	// Overwrite: newest wins.
	db.Put([]byte("alpha"), []byte("1v2"))
	v, ok, _ = db.Get([]byte("alpha"))
	if !ok || string(v) != "1v2" {
		t.Fatalf("overwrite: %q", v)
	}
	// Delete.
	db.Delete([]byte("beta"))
	if _, ok, _ := db.Get([]byte("beta")); ok {
		t.Fatal("deleted key visible")
	}
	// Absent.
	if _, ok, _ := db.Get([]byte("nope")); ok {
		t.Fatal("absent key found")
	}
}

func TestBasicOpsNoveLSM(t *testing.T) {
	r := pmem.New(8<<20, calib.Off())
	db := openNoveLSM(t, r)
	defer db.Close()
	testBasicOps(t, db)
}

func TestManyKeysWithRotation(t *testing.T) {
	r := pmem.New(32<<20, calib.Off())
	db := openNoveLSM(t, r, func(o *Options) { o.ArenaSize = 256 << 10 })
	defer db.Close()
	val := make([]byte, 256)
	n := 2000
	for i := 0; i < n; i++ {
		if err := db.Put([]byte(fmt.Sprintf("key%06d", i)), val); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	if db.Immutables() == 0 {
		t.Fatal("no rotation happened")
	}
	for i := 0; i < n; i++ {
		_, ok, err := db.Get([]byte(fmt.Sprintf("key%06d", i)))
		if err != nil || !ok {
			t.Fatalf("lost key%06d after rotation: %v", i, err)
		}
	}
}

func TestRange(t *testing.T) {
	r := pmem.New(16<<20, calib.Off())
	db := openNoveLSM(t, r)
	defer db.Close()
	for i := 0; i < 100; i++ {
		db.Put([]byte(fmt.Sprintf("k%03d", i)), []byte(fmt.Sprintf("v%d", i)))
	}
	db.Delete([]byte("k050"))
	db.Put([]byte("k010"), []byte("updated"))

	kvs, err := db.Range([]byte("k010"), []byte("k060"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(kvs) != 49 { // k010..k059 minus deleted k050
		t.Fatalf("got %d results", len(kvs))
	}
	if string(kvs[0].Key) != "k010" || string(kvs[0].Value) != "updated" {
		t.Fatalf("first = %s:%s", kvs[0].Key, kvs[0].Value)
	}
	for _, kv := range kvs {
		if string(kv.Key) == "k050" {
			t.Fatal("tombstoned key in range result")
		}
	}
	// Limit.
	kvs, _ = db.Range([]byte("k000"), nil, 5)
	if len(kvs) != 5 {
		t.Fatalf("limit ignored: %d", len(kvs))
	}
}

// TestRangeAcrossTablesAndMemtables merges a range over the mutable
// memtable and the immutable ones; with the memtables in PM there are no
// tables to merge.
func TestRangeAcrossTablesAndMemtables(t *testing.T) {
	r := pmem.New(1<<20, calib.Off())
	db := openNoveLSM(t, r, func(o *Options) { o.ArenaSize = 64 << 10 })
	defer db.Close()
	val := make([]byte, 256)
	// A stride coprime to 500 scatters every memtable's keys over the
	// whole key space, so the range below merges all of them.
	for j := 0; j < 500; j++ {
		if err := db.Put([]byte(fmt.Sprintf("k%06d", j*7%500)), val); err != nil {
			t.Fatal(err)
		}
	}
	if db.Immutables() < 2 {
		t.Fatalf("%d immutable memtables, want at least 2", db.Immutables())
	}
	kvs, err := db.Range([]byte("k000100"), []byte("k000200"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(kvs) != 100 {
		t.Fatalf("range across memtables: %d results", len(kvs))
	}
	for i, kv := range kvs {
		if string(kv.Key) != fmt.Sprintf("k%06d", 100+i) {
			t.Fatalf("gap at %d: %s", i, kv.Key)
		}
	}
}

func TestChecksumDetectsCorruption(t *testing.T) {
	r := pmem.New(8<<20, calib.Off())
	db := openNoveLSM(t, r)
	defer db.Close()
	key := []byte("target")
	db.Put(key, []byte("precious data"))
	// Corrupt the stored value in PM (silent data corruption).
	img := r.Slice(0, r.Size())
	needle := []byte("precious")
	idx := bytes.Index(img, needle)
	if idx < 0 {
		t.Fatal("stored value not found in region")
	}
	img[idx] ^= 0x01
	if _, _, err := db.Get(key); err == nil {
		t.Fatal("silent corruption not detected by checksum")
	}
}

func TestNoveLSMCrashRecovery(t *testing.T) {
	r := pmem.New(16<<20, calib.Off())
	db := openNoveLSM(t, r, func(o *Options) { o.ArenaSize = 256 << 10 })
	ref := map[string]string{}
	for i := 0; i < 1500; i++ {
		k, v := fmt.Sprintf("key%06d", i), fmt.Sprintf("value-%d", i)
		if err := db.Put([]byte(k), []byte(v)); err != nil {
			t.Fatal(err)
		}
		ref[k] = v
	}
	seqBefore := db.Seq()

	r.Crash(7)

	db2 := openNoveLSM(t, r, func(o *Options) { o.ArenaSize = 256 << 10 })
	defer db2.Close()
	if db2.Seq() != seqBefore {
		t.Fatalf("seq after recovery %d want %d", db2.Seq(), seqBefore)
	}
	for k, v := range ref {
		got, ok, err := db2.Get([]byte(k))
		if err != nil || !ok || string(got) != v {
			t.Fatalf("after crash Get(%s)=%q,%v,%v", k, got, ok, err)
		}
	}
	// Still writable, with monotonically growing seqs.
	if err := db2.Put([]byte("post"), []byte("crash")); err != nil {
		t.Fatal(err)
	}
	if db2.Seq() != seqBefore+1 {
		t.Fatal("sequence did not resume")
	}
}

func TestNoveLSMRepeatedCrashes(t *testing.T) {
	r := pmem.New(16<<20, calib.Off())
	ref := map[string]string{}
	rng := rand.New(rand.NewSource(3))
	for round := 0; round < 4; round++ {
		db := openNoveLSM(t, r, func(o *Options) { o.ArenaSize = 512 << 10 })
		for i := 0; i < 300; i++ {
			k := fmt.Sprintf("r%d-%04d", round, i)
			v := fmt.Sprintf("v%d-%d", round, i)
			if err := db.Put([]byte(k), []byte(v)); err != nil {
				t.Fatal(err)
			}
			ref[k] = v
		}
		r.Crash(rng.Int63())
		db2 := openNoveLSM(t, r, func(o *Options) { o.ArenaSize = 512 << 10 })
		for k, v := range ref {
			got, ok, err := db2.Get([]byte(k))
			if err != nil || !ok || string(got) != v {
				t.Fatalf("round %d: lost %s", round, k)
			}
		}
		db2.Close()
	}
}

// TestDisableCompactionAccumulatesImmutables: the baseline is NoveLSM with
// compaction disabled, so a full memtable is retired to the immutable
// stack and stays there.
func TestDisableCompactionAccumulatesImmutables(t *testing.T) {
	r := pmem.New(8<<20, calib.Off())
	db := openNoveLSM(t, r, func(o *Options) { o.ArenaSize = 128 << 10 })
	defer db.Close()
	val := make([]byte, 512)
	for i := 0; i < 500; i++ {
		db.Put([]byte(fmt.Sprintf("key%05d", i)), val)
	}
	if db.Immutables() < 1 {
		t.Fatal("full memtables not retired to the immutable stack")
	}
}

// TestManifestReopen: with the memtables in PM there is no manifest; a
// clean Close and reopen recovers every arena in place.
func TestManifestReopen(t *testing.T) {
	r := pmem.New(4<<20, calib.Off())
	small := func(o *Options) { o.ArenaSize = 64 << 10 }
	db := openNoveLSM(t, r, small)
	val := func(i int) []byte { return bytes.Repeat([]byte{byte(i)}, 512) }
	for i := 0; i < 200; i++ {
		if err := db.Put([]byte(fmt.Sprintf("key%05d", i)), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	imms, seq := db.Immutables(), db.Seq()
	if imms < 1 {
		t.Fatal("no rotation before reopen")
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2 := openNoveLSM(t, r, small)
	defer db2.Close()
	if db2.Immutables() != imms || db2.Seq() != seq {
		t.Fatalf("reopen: %d immutables seq %d, want %d seq %d", db2.Immutables(), db2.Seq(), imms, seq)
	}
	for i := 0; i < 200; i++ {
		v, ok, err := db2.Get([]byte(fmt.Sprintf("key%05d", i)))
		if err != nil || !ok || !bytes.Equal(v, val(i)) {
			t.Fatalf("lost key%05d across reopen: %v %v", i, ok, err)
		}
	}
}

// TestCompactionKeepsData: without compaction, overwrites and tombstones
// in newer memtables must still shadow older versions left in the
// immutable ones.
func TestCompactionKeepsData(t *testing.T) {
	r := pmem.New(4<<20, calib.Off())
	db := openNoveLSM(t, r, func(o *Options) { o.ArenaSize = 64 << 10 })
	defer db.Close()
	ref := map[string]string{}
	deleted := map[string]bool{}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 3000; i++ {
		k := fmt.Sprintf("key%05d", rng.Intn(800))
		if rng.Intn(10) == 0 {
			if err := db.Delete([]byte(k)); err != nil {
				t.Fatal(err)
			}
			delete(ref, k)
			deleted[k] = true
		} else {
			v := fmt.Sprintf("val-%d", i)
			if err := db.Put([]byte(k), []byte(v)); err != nil {
				t.Fatal(err)
			}
			ref[k] = v
			delete(deleted, k)
		}
	}
	if db.Immutables() < 2 {
		t.Fatalf("%d immutable memtables, want at least 2", db.Immutables())
	}
	for k, v := range ref {
		got, ok, err := db.Get([]byte(k))
		if err != nil || !ok || string(got) != v {
			t.Fatalf("Get(%s)=%q,%v,%v want %q", k, got, ok, err, v)
		}
	}
	if len(deleted) == 0 {
		t.Fatal("workload left no deleted keys")
	}
	for k := range deleted {
		if _, ok, _ := db.Get([]byte(k)); ok {
			t.Fatalf("tombstone for %s lost across memtables", k)
		}
	}
}

func TestPMExhaustion(t *testing.T) {
	r := pmem.New(256<<10, calib.Off())
	db := openNoveLSM(t, r, func(o *Options) {
		o.ArenaSize = 128 << 10
		o.PMSize = 256 << 10
	})
	defer db.Close()
	val := make([]byte, 1024)
	var err error
	i := 0
	for ; i < 1000; i++ {
		if err = db.Put([]byte(fmt.Sprintf("key%05d", i)), val); err != nil {
			break
		}
	}
	if err != ErrPMFull {
		t.Fatalf("want ErrPMFull, got %v", err)
	}
	// The refused put was not stored; every acknowledged one stays
	// readable.
	if _, ok, _ := db.Get([]byte(fmt.Sprintf("key%05d", i))); ok {
		t.Fatalf("key%05d refused with ErrPMFull but stored", i)
	}
	for j := 0; j < i; j++ {
		if _, ok, err := db.Get([]byte(fmt.Sprintf("key%05d", j))); err != nil || !ok {
			t.Fatalf("key%05d lost after exhaustion: %v", j, err)
		}
	}
}

func TestBreakdownAccumulates(t *testing.T) {
	r := pmem.New(8<<20, calib.Off())
	db := openNoveLSM(t, r)
	defer db.Close()
	val := make([]byte, 1024)
	for i := 0; i < 100; i++ {
		db.Put([]byte(fmt.Sprintf("key%05d", i)), val)
	}
	bd := db.Breakdown()
	if bd.Ops != 100 || bd.Prep == 0 || bd.Checksum == 0 {
		t.Fatalf("breakdown %+v", bd)
	}
	if bd.Insert.Count != 100 || bd.Insert.Copy == 0 || bd.Insert.Alloc == 0 {
		t.Fatalf("insert stats %+v", bd.Insert)
	}
	db.ResetBreakdown()
	if db.Breakdown().Ops != 0 {
		t.Fatal("reset failed")
	}
}

func TestClosedDBErrors(t *testing.T) {
	r := pmem.New(8<<20, calib.Off())
	db := openNoveLSM(t, r)
	db.Close()
	if err := db.Put([]byte("k"), []byte("v")); err != ErrClosed {
		t.Fatalf("Put after close: %v", err)
	}
	if _, _, err := db.Get([]byte("k")); err != ErrClosed {
		t.Fatalf("Get after close: %v", err)
	}
	if _, err := db.Range(nil, nil, 0); err != ErrClosed {
		t.Fatalf("Range after close: %v", err)
	}
	if err := db.Close(); err != ErrClosed {
		t.Fatalf("double Close: %v", err)
	}
}

func TestIKeyOrdering(t *testing.T) {
	a1 := makeIKey([]byte("a"), 1, KindValue)
	a2 := makeIKey([]byte("a"), 2, KindValue)
	b1 := makeIKey([]byte("b"), 1, KindValue)
	if icmp(a2, a1) >= 0 {
		t.Fatal("higher seq should sort first")
	}
	if icmp(a1, b1) >= 0 {
		t.Fatal("user key order broken")
	}
	if ikey(a2).seq() != 2 || ikey(a2).kind() != KindValue {
		t.Fatal("trailer decode")
	}
	d := makeIKey([]byte("a"), 3, KindDelete)
	if ikey(d).kind() != KindDelete {
		t.Fatal("kind decode")
	}
	if string(ikey(d).userKey()) != "a" {
		t.Fatal("user key extract")
	}
}

// TestBaselinePersistCounts pins what Table 1's baseline flushes: the
// 40 000 x 1 KB put shape of the NoveLSM deployment (256 MB region,
// 32 MB arenas, one arena rotation) costs exactly these persist
// operations. Any drift in batch encoding, checksum placement, skip-list
// insertion or arena rotation changes them.
func TestBaselinePersistCounts(t *testing.T) {
	r := pmem.New(256<<20, calib.Off())
	db := openNoveLSM(t, r, func(o *Options) { o.ArenaSize = 32 << 20 })
	defer db.Close()
	val := make([]byte, 1024)
	for i := 0; i < 40000; i++ {
		if err := db.Put([]byte(fmt.Sprintf("key%08d", i)), val); err != nil {
			t.Fatal(err)
		}
	}
	if db.Immutables() != 1 {
		t.Fatalf("%d immutable memtables, want 1", db.Immutables())
	}
	st := r.Stats()
	if st.LinesFlushed != 760008 || st.Flushes != 120008 || st.Fences != 120008 || st.BytesWritten != 42947512 {
		t.Fatalf("persist counts drifted: LinesFlushed %d Flushes %d Fences %d BytesWritten %d, "+
			"want 760008 120008 120008 42947512", st.LinesFlushed, st.Flushes, st.Fences, st.BytesWritten)
	}
}

func TestBatchEncoding(t *testing.T) {
	b := NewBatch()
	b.Put([]byte("k1"), []byte("v1"))
	b.Delete([]byte("k2"))
	b.setSeq(42)
	want := []byte{
		42, 0, 0, 0, 0, 0, 0, 0, // base sequence
		2, 0, 0, 0, // record count
		byte(KindValue), 2, 'k', '1', 2, 'v', '1',
		byte(KindDelete), 2, 'k', '2',
	}
	if !bytes.Equal(b.rep, want) {
		t.Fatalf("batch %v\nwant  %v", b.rep, want)
	}
	b.Reset()
	if b.count != 0 || len(b.rep) != batchHeaderLen || !bytes.Equal(b.rep, make([]byte, batchHeaderLen)) {
		t.Fatalf("reset left %v (count %d)", b.rep, b.count)
	}
}

// TestRandomizedAgainstModel drives puts and deletes over small arenas
// (so the memtable rotates) and checks Get and Range against a map, with
// a power cut and reopen halfway through.
func TestRandomizedAgainstModel(t *testing.T) {
	r := pmem.New(4<<20, calib.Off())
	small := func(o *Options) { o.ArenaSize = 64 << 10 }
	db := openNoveLSM(t, r, small)
	ref := map[string]string{}
	rng := rand.New(rand.NewSource(11))
	check := func(i int) {
		t.Helper()
		for k, v := range ref {
			got, ok, err := db.Get([]byte(k))
			if err != nil || !ok || string(got) != v {
				t.Fatalf("iter %d: Get(%s)=%q,%v,%v want %q", i, k, got, ok, err, v)
			}
		}
		keys := make([]string, 0, len(ref))
		for k := range ref {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		kvs, err := db.Range(nil, nil, 0)
		if err != nil || len(kvs) != len(keys) {
			t.Fatalf("iter %d: Range gave %d entries (%v), model %d", i, len(kvs), err, len(keys))
		}
		for j, kv := range kvs {
			if string(kv.Key) != keys[j] || string(kv.Value) != ref[keys[j]] {
				t.Fatalf("iter %d: Range[%d] = %s:%s, want %s:%s", i, j, kv.Key, kv.Value, keys[j], ref[keys[j]])
			}
		}
	}
	for i := 0; i < 5000; i++ {
		k := fmt.Sprintf("key%04d", rng.Intn(500))
		switch rng.Intn(4) {
		case 0:
			if err := db.Delete([]byte(k)); err != nil {
				t.Fatal(err)
			}
			delete(ref, k)
		default:
			v := fmt.Sprintf("val-%d", i)
			if err := db.Put([]byte(k), []byte(v)); err != nil {
				t.Fatal(err)
			}
			ref[k] = v
		}
		if i == 2500 {
			seq := db.Seq()
			r.Crash(rng.Int63())
			db = openNoveLSM(t, r, small)
			if db.Seq() != seq {
				t.Fatalf("seq after reopen %d, want %d", db.Seq(), seq)
			}
		}
		if i%500 == 0 {
			check(i)
		}
	}
	if db.Immutables() < 2 {
		t.Fatalf("%d immutable memtables: the model run never rotated", db.Immutables())
	}
	check(5000)
	db.Close()
}

func BenchmarkPutNoveLSM1K(b *testing.B) {
	r := pmem.New(1<<30, calib.Off())
	db, err := Open(Options{PM: r, PMSize: r.Size(), ArenaSize: 32 << 20})
	if err != nil {
		b.Fatal(err)
	}
	val := make([]byte, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := db.Put([]byte(fmt.Sprintf("key%012d", i)), val); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPutNoveLSM1KPaperModel(b *testing.B) {
	r := pmem.New(1<<30, calib.Paper())
	db, err := Open(Options{PM: r, PMSize: r.Size(), ArenaSize: 32 << 20})
	if err != nil {
		b.Fatal(err)
	}
	val := make([]byte, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := db.Put([]byte(fmt.Sprintf("key%012d", i)), val); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGetNoveLSM(b *testing.B) {
	r := pmem.New(1<<28, calib.Off())
	db, err := Open(Options{PM: r, PMSize: r.Size(), ArenaSize: 32 << 20})
	if err != nil {
		b.Fatal(err)
	}
	val := make([]byte, 1024)
	for i := 0; i < 50000; i++ {
		db.Put([]byte(fmt.Sprintf("key%08d", i)), val)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db.Get([]byte(fmt.Sprintf("key%08d", (i*7919)%50000)))
	}
}
