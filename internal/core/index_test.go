package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"
	"unsafe"

	"packetstore/internal/calib"
	"packetstore/internal/pmem"
)

// Index tests: the prefix comparator against bytes.Compare, the skip
// list against a sorted model under churn and slot recycling, the entry
// table's layout and first-touch allocation, and allocation pins on the
// request paths.

// trickyKeys returns keys that exercise every comparator branch: random
// keys of 0–40 bytes sharing prefixes of 0, 8, 15, 16 and 17 bytes, with
// tails drawn from an alphabet rich in 0x00 so that zero-padded prefixes
// tie, plus fixed trailing-zero cases and the empty key.
func trickyKeys(rng *rand.Rand, n int) [][]byte {
	keys := [][]byte{
		{}, []byte("a"), []byte("a\x00"), []byte("a\x00\x00"), []byte("b"),
		make([]byte, 15), make([]byte, 16), make([]byte, 17),
		bytes.Repeat([]byte{0xff}, 16), bytes.Repeat([]byte{0xff}, 17),
	}
	alphabet := []byte{0x00, 0x00, 0x01, 'a', 'b', 0x7f, 0x80, 0xff}
	randBytes := func(n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return b
	}
	shared := [][]byte{nil}
	for _, l := range []int{8, 15, 16, 17} {
		shared = append(shared, randBytes(l))
	}
	for len(keys) < n {
		p := shared[rng.Intn(len(shared))]
		k := append(bytes.Clone(p), randBytes(rng.Intn(41-len(p)))...)
		keys = append(keys, k)
	}
	return keys
}

func sign(c int) int { return min(max(c, -1), 1) }

// TestIndexKeyOrder checks that the prefix comparator orders keys
// exactly as bytes.Compare, then drives 20 000 random puts, overwrites,
// same-batch overwrites and deletes through a store small enough to
// recycle its slots, and requires Ascend, the locked lookup and the
// lock-free walk to agree with a sorted model — and every level of the
// skip list to be sorted.
func TestIndexKeyOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	keys := trickyKeys(rng, 400)
	for _, a := range keys {
		for _, b := range keys {
			d := &nodeDesc{key: b, kp: keyPrefix(b)}
			if got, want := sign(cmpDesc(a, keyPrefix(a), d)), bytes.Compare(a, b); got != want {
				t.Fatalf("cmpDesc(%x, %x) = %d, bytes.Compare = %d", a, b, got, want)
			}
		}
	}

	cfg := Config{MetaSlots: 512, DataSlots: 1024, DataBufSize: 128}
	_, s := newStore(t, cfg)
	stored := slices.DeleteFunc(slices.Clone(keys), func(k []byte) bool { return len(k) == 0 })[:300]
	model := map[string][]byte{}
	val := func(i int) []byte { return []byte(fmt.Sprintf("v%d", i)) }
	for step := 0; step < 20000; step++ {
		k := stored[rng.Intn(len(stored))]
		switch op := rng.Intn(8); {
		case op < 2:
			if _, err := s.Delete(k); err != nil {
				t.Fatal(err)
			}
			delete(model, string(k))
		case op < 3: // same-batch overwrite: the first version is superseded
			if err := s.PutStaged(k, val(-step)); err != nil {
				t.Fatal(err)
			}
			if err := s.PutStaged(k, val(step)); err != nil {
				t.Fatal(err)
			}
			s.Commit()
			model[string(k)] = val(step)
		default: // put, or overwrite when the key is present
			if err := s.Put(k, val(step)); err != nil {
				t.Fatal(err)
			}
			model[string(k)] = val(step)
		}
	}

	sorted := make([][]byte, 0, len(model))
	for k := range model {
		sorted = append(sorted, []byte(k))
	}
	slices.SortFunc(sorted, bytes.Compare)
	var got [][]byte
	if err := s.Ascend(nil, func(rec Record) bool { got = append(got, rec.Key); return true }); err != nil {
		t.Fatal(err)
	}
	if !slices.EqualFunc(got, sorted, bytes.Equal) {
		t.Fatalf("Ascend yields %d keys, model has %d, or the order differs", len(got), len(sorted))
	}
	for level := 0; level < maxHeight; level++ {
		var last []byte
		for w := s.head.next[level].Load(); w != 0; w = s.nodes.load(int(w - 1)).next[level].Load() {
			e := s.nodes.load(int(w - 1))
			d := e.desc.Load()
			if d == nil || int(e.height) <= level || (last != nil && bytes.Compare(last, d.key) >= 0) {
				t.Fatalf("level %d: node %d out of order or unpublished", level, w-1)
			}
			last = d.key
		}
	}
	for _, k := range keys {
		want, present := model[string(k)]
		// The first model key >= k is what the walk must land on.
		i, _ := slices.BinarySearchFunc(sorted, k, bytes.Compare)
		s.mu.Lock()
		d := s.lookupLocked(k, s.hashKey(k))
		s.mu.Unlock()
		if (d != nil) != present || (present && !bytes.Equal(d.key, k)) {
			t.Fatalf("lookupLocked(%x) = %v, model present=%v", k, d != nil, present)
		}
		ge, hit, ok := s.findGE(k, keyPrefix(k), nil) // no mutator runs: the lock-free walk
		if !ok || hit != d {
			t.Fatalf("lock-free walk(%x): ok=%v hit=%v, locked lookup %v", k, ok, hit != nil, d != nil)
		}
		switch {
		case i == len(sorted):
			if ge != nil {
				t.Fatalf("walk(%x) found %x past the last key", k, ge.desc.Load().key)
			}
		case ge == nil || !bytes.Equal(ge.desc.Load().key, sorted[i]):
			t.Fatalf("walk(%x) did not land on %x", k, sorted[i])
		}
		if present {
			if v, ok, err := s.Get(k); err != nil || !ok || !bytes.Equal(v, want) {
				t.Fatalf("Get(%x) = %q, %v, %v; want %q", k, v, ok, err, want)
			}
		}
	}
}

// TestHashAndWalkAgree drives random puts, overwrites, same-batch
// overwrites and deletes, with power cuts and reopens, online rehydrates
// and scrub excisions mixed in, beside a map model. After every step,
// every key's hash probe must find exactly the descriptor the skip-list
// walk finds (and the model's bytes), the linked node count must equal
// Len, the buckets must name exactly the linked nodes and fill at most
// half the table, and the node ids
// taken must be exactly the linked ones (so live plus free ids cover
// MetaSlots once). Every so often an
// overwrite-only stretch must leave every link word and height as it
// was: an overwrite swaps a descriptor and relinks nothing.
func TestHashAndWalkAgree(t *testing.T) {
	pmem.SetCrashLogger(func(int64) {})
	defer pmem.SetCrashLogger(nil)
	rng := rand.New(rand.NewSource(39))
	cfg := Config{MetaSlots: 128, DataSlots: 256, DataBufSize: 128, VerifyOnGet: true}
	r := pmem.New(cfg.RegionSize(), calib.Off())
	s, err := Open(r, cfg)
	if err != nil {
		t.Fatal(err)
	}
	keys := slices.DeleteFunc(trickyKeys(rng, 90), func(k []byte) bool { return len(k) == 0 })
	model := map[string][]byte{}
	present := func() [][]byte {
		var ks [][]byte
		for _, k := range keys {
			if _, ok := model[string(k)]; ok {
				ks = append(ks, k)
			}
		}
		return ks
	}

	check := func(step int, what string) {
		t.Helper()
		n := s.Len()
		s.mu.Lock()
		linked := map[int]bool{}
		for w := s.head.next[0].Load(); w != 0; w = s.nodes.load(int(w - 1)).next[0].Load() {
			if d := s.nodes.load(int(w - 1)).desc.Load(); d == nil || int(d.node) != int(w-1) || s.descAt(d.slot) != d {
				s.mu.Unlock()
				t.Fatalf("step %d (%s): linked node %d unpublished or not its slot's", step, what, w-1)
			}
			linked[int(w-1)] = true
		}
		for id := 0; id < cfg.MetaSlots; id++ {
			if taken := s.nodeUsed[id/64]&(1<<(id%64)) != 0; taken != linked[id] {
				s.mu.Unlock()
				t.Fatalf("step %d (%s): node %d taken=%v, linked=%v", step, what, id, taken, linked[id])
			}
		}
		buckets := 0
		table := *s.buckets.Load()
		for i := range table {
			if w := table[i].Load(); w != 0 {
				buckets++
				if !linked[int(w-1)] {
					s.mu.Unlock()
					t.Fatalf("step %d (%s): bucket %d names unlinked node %d", step, what, i, w-1)
				}
			}
		}
		var probed []*nodeDesc
		for _, k := range keys {
			d, ok := s.probe(k, s.hashKey(k))
			_, hit, _ := s.findGE(k, keyPrefix(k), nil)
			if !ok || d != hit {
				s.mu.Unlock()
				t.Fatalf("step %d (%s): probe(%x) = %v ok=%v, walk = %v", step, what, k, d != nil, ok, hit != nil)
			}
			probed = append(probed, d)
		}
		s.mu.Unlock()
		if len(linked) != n || buckets != n || len(table) < 2*n {
			t.Fatalf("step %d (%s): %d linked, %d of %d buckets taken; Len %d", step, what, len(linked), buckets, len(table), n)
		}
		for i, k := range keys {
			want, ok := model[string(k)]
			if (probed[i] != nil) != ok {
				t.Fatalf("step %d (%s): probe(%x) found=%v, model present=%v", step, what, k, probed[i] != nil, ok)
			}
			if v, got, err := s.Get(k); err != nil || got != ok || !bytes.Equal(v, want) {
				t.Fatalf("step %d (%s): Get(%x) = %q, %v, %v; model %q", step, what, k, v, got, err, want)
			}
		}
	}
	links := func() []uint32 {
		s.mu.Lock()
		defer s.mu.Unlock()
		var out []uint32
		for l := range s.head.next {
			out = append(out, s.head.next[l].Load())
		}
		for w := s.head.next[0].Load(); w != 0; w = s.nodes.load(int(w - 1)).next[0].Load() {
			e := s.nodes.load(int(w - 1))
			out = append(out, w, uint32(e.height))
			for l := range e.height {
				out = append(out, e.next[l].Load())
			}
		}
		return out
	}
	val := func(step int) []byte { return []byte(fmt.Sprintf("v%d", step)) }
	put := func(k, v []byte) {
		if err := s.Put(k, v); err != nil {
			t.Fatal(err)
		}
		model[string(k)] = v
	}
	putTwice := func(k []byte, step int) { // a same-batch overwrite
		if err := s.PutStaged(k, val(-step)); err != nil {
			t.Fatal(err)
		}
		if err := s.PutStaged(k, val(step)); err != nil {
			t.Fatal(err)
		}
		s.Commit()
		model[string(k)] = val(step)
	}

	excised := 0
	for step := 0; step < 3000; step++ {
		k := keys[rng.Intn(len(keys))]
		what := ""
		switch op := rng.Intn(100); {
		case op < 45:
			what = "put"
			put(k, val(step))
		case op < 60:
			what = "same-batch put"
			putTwice(k, step)
		case op < 90:
			what = "delete"
			if _, err := s.Delete(k); err != nil {
				t.Fatal(err)
			}
			delete(model, string(k))
		case op < 93:
			what = "crash+reopen"
			r.Crash(int64(step))
			if s, err = Open(r, cfg); err != nil {
				t.Fatalf("step %d: reopen: %v", step, err)
			}
		case op < 96:
			what = "rehydrate"
			if err := s.Rehydrate(); err != nil {
				t.Fatalf("step %d: Rehydrate: %v", step, err)
			}
		case op < 98:
			ks := present()
			if excised >= 12 || len(ks) == 0 {
				continue
			}
			// A key-byte flip fails the slot CRC (quarantine and unlink);
			// a value-byte flip fails the value sum (retire).
			what = "scrub excision"
			k = ks[rng.Intn(len(ks))]
			target := []FlipTarget{FlipKeyByte, FlipValueByte}[rng.Intn(2)]
			if s.CorruptRecord(k, target, rng.Intn(64), 0x10) < 0 {
				t.Fatalf("step %d: CorruptRecord(%x) found no record", step, k)
			}
			if res := scrubAll(s); res.Excised != 1 {
				t.Fatalf("step %d: scrub excised %d records, want 1", step, res.Excised)
			}
			delete(model, string(k))
			excised++
		default:
			what = "overwrites only"
			before := links()
			for _, k := range present() {
				if rng.Intn(2) == 0 {
					put(k, val(step))
				} else {
					putTwice(k, step)
				}
			}
			if after := links(); !slices.Equal(before, after) {
				t.Fatalf("step %d: an overwrite-only stretch changed the skip list's links or heights", step)
			}
		}
		check(step, what)
	}
}

// chunksOf counts a table's allocated chunks.
func chunksOf[T any](t chunked[T]) int {
	n := 0
	for c := range t {
		if t[c].Load() != nil {
			n++
		}
	}
	return n
}

// TestEntryTable pins the node layout (one cache line) and the node
// table's first-touch allocation: an empty store allocates no chunk, a
// hundred puts one, a rehydrate none, and 16 384 records in a 65 536-slot
// store cost the node table at most 1.1 MiB (an eager table would be
// 4 MiB) and the slot table 16 chunks.
func TestEntryTable(t *testing.T) {
	if sz := unsafe.Sizeof(nodeEntry{}); sz != 64 {
		t.Fatalf("nodeEntry is %d bytes, want 64 (one cache line)", sz)
	}
	cfg := Config{MetaSlots: 65536, DataSlots: 16384, DataBufSize: 64}
	_, s := newStore(t, cfg)
	if n := chunksOf(s.nodes) + chunksOf(s.slots); n != 0 {
		t.Fatalf("an empty store allocated %d chunks", n)
	}
	for i := 0; i < 100; i++ {
		if err := s.Put([]byte(fmt.Sprintf("key%012d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if n := chunksOf(s.nodes); n != 1 {
		t.Fatalf("100 puts allocated %d chunks, want 1", n)
	}
	if err := s.Rehydrate(); err != nil {
		t.Fatal(err)
	}
	if n, l := chunksOf(s.nodes), s.Len(); n != 1 || l != 100 {
		t.Fatalf("after Rehydrate: %d chunks, %d records; want 1, 100", n, l)
	}
	for i := 100; i < 16384; i++ {
		if err := s.Put([]byte(fmt.Sprintf("key%012d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	table := len(s.nodes)*int(unsafe.Sizeof(s.nodes[0])) + chunksOf(s.nodes)*int(unsafe.Sizeof([tableChunk]nodeEntry{}))
	if table > 1100<<10 {
		t.Fatalf("the node table holds %d bytes for 16 384 records, want <= 1.1 MiB", table)
	}
	if n := chunksOf(s.slots); n > 16 {
		t.Fatalf("the slot table allocated %d chunks for 16 384 records, want <= 16", n)
	}
}

// TestAllocsPerOp is the allocation ratchet on the request paths: a
// copy-path Put, a Get and eight staged puts plus their Commit. The pins
// are the counts measured when the ratchet was added; lower them when a
// change removes an allocation, never raise them.
func TestAllocsPerOp(t *testing.T) {
	_, s := newStore(t, Config{MetaSlots: 4096, DataSlots: 8192})
	val := make([]byte, 1024)
	keys := make([][]byte, 512)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key%012d", i))
		if err := s.Put(keys[i], val); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	next := func() []byte { i++; return keys[i%len(keys)] }
	for _, c := range []struct {
		name string
		pin  float64
		fn   func()
	}{
		{"Put", 5, func() { s.Put(next(), val) }},
		{"Get", 1, func() { s.Get(next()) }},
		{"PutStaged x 8 + Commit", 40, func() {
			for j := 0; j < 8; j++ {
				s.PutStaged(next(), val)
			}
			s.Commit()
		}},
	} {
		if got := testing.AllocsPerRun(200, c.fn); got > c.pin {
			t.Errorf("%s: %v allocations, pinned at %v", c.name, got, c.pin)
		}
	}
}

// BenchmarkLookupCold16K times one ordered seek (findGE, the walk
// Ascend and a fresh insert make) among 16 384 perflab-shaped keys with
// the caches swept by an 8 MiB buffer before each, so every hop misses
// as it does between requests in a server loop. ns/lookup counts the
// seek alone; ns/op includes the sweep.
func BenchmarkLookupCold16K(b *testing.B) {
	benchLookupCold(b, func(s *Store, k []byte) *nodeDesc {
		_, hit, _ := s.findGE(k, keyPrefix(k), nil)
		return hit
	})
}

// BenchmarkPointLookupCold16K times one point lookup (the hash probe
// GET, PUT and DELETE make, hashing included) under the same cold
// caches as BenchmarkLookupCold16K.
func BenchmarkPointLookupCold16K(b *testing.B) {
	benchLookupCold(b, func(s *Store, k []byte) *nodeDesc {
		return s.lookupLocked(k, s.hashKey(k))
	})
}

func benchLookupCold(b *testing.B, lookup func(s *Store, k []byte) *nodeDesc) {
	const n = 16384
	cfg := Config{MetaSlots: 2 * n, DataSlots: 2 * n, DataBufSize: 64}
	r := pmem.New(cfg.RegionSize(), calib.Off())
	s, err := Open(r, cfg)
	if err != nil {
		b.Fatal(err)
	}
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key%012d", i))
		if err := s.Put(keys[i], []byte("v")); err != nil {
			b.Fatal(err)
		}
	}
	sweep := make([]byte, 8<<20)
	var walk time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < len(sweep); j += 64 {
			sweep[j]++
		}
		k := keys[(i*7919)%n]
		t0 := time.Now()
		s.mu.Lock()
		d := lookup(s, k)
		s.mu.Unlock()
		walk += time.Since(t0)
		if d == nil {
			b.Fatalf("lookup of %s missed", k)
		}
	}
	b.ReportMetric(float64(walk.Nanoseconds())/float64(b.N), "ns/lookup")
}
