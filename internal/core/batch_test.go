package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"packetstore/internal/calib"
	"packetstore/internal/pmem"
)

// batchOp is one step of a randomized workload for the equivalence
// property tests. Keys draw from a small space so overwrites, deletes
// of staged keys and same-key-twice-in-a-batch all occur.
type batchOp struct {
	Key byte
	Val uint16
	Del bool
}

func (op batchOp) key() []byte { return []byte(fmt.Sprintf("key-%02d", op.Key%32)) }

func (op batchOp) value() []byte {
	v := make([]byte, 32+int(op.Val)%480)
	for i := range v {
		v[i] = byte(int(op.Val) + i)
	}
	return v
}

// dump snapshots the store's logical contents (key -> value, ordered).
func dump(t testing.TB, s *Store) []Record {
	t.Helper()
	recs, err := s.Range(nil, nil, 0)
	if err != nil {
		t.Fatalf("Range: %v", err)
	}
	return recs
}

func sameContents(t testing.TB, a, b []Record) bool {
	t.Helper()
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i].Key, b[i].Key) || !bytes.Equal(a[i].Value, b[i].Value) {
			return false
		}
	}
	return true
}

// TestBatchedEquivalenceQuick: any op stream applied through the staged
// path (committing every k ops) leaves the store logically identical to
// the per-op path — same keys, same values, same record count, clean
// Verify.
func TestBatchedEquivalenceQuick(t *testing.T) {
	cfg := Config{MetaSlots: 512, DataSlots: 512, VerifyOnGet: true}
	property := func(ops []batchOp, kRaw uint8) bool {
		k := 1 + int(kRaw)%9
		_, perOp := newStore(t, cfg)
		_, batched := newStore(t, cfg)
		for i, op := range ops {
			if op.Del {
				if _, err := perOp.Delete(op.key()); err != nil {
					t.Fatalf("per-op delete: %v", err)
				}
				if _, err := batched.Delete(op.key()); err != nil {
					t.Fatalf("batched delete: %v", err)
				}
				continue
			}
			if err := perOp.Put(op.key(), op.value()); err != nil {
				t.Fatalf("per-op put: %v", err)
			}
			if err := batched.PutStaged(op.key(), op.value()); err != nil {
				t.Fatalf("staged put: %v", err)
			}
			if (i+1)%k == 0 {
				batched.Commit()
			}
		}
		batched.Commit()
		if perOp.Len() != batched.Len() {
			return false
		}
		if bad, err := batched.Verify(); err != nil || len(bad) > 0 {
			return false
		}
		return sameContents(t, dump(t, perOp), dump(t, batched))
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

// TestBatchedCrashEquivalence cuts the power at every persist-op index
// inside a batched commit and checks the recovered store holds exactly
// a prefix-consistent subset: every key either its last committed
// (pre-batch) value or the batch's value, no torn or phantom state,
// and nothing quarantined on a clean (untorn) cut.
func TestBatchedCrashEquivalence(t *testing.T) {
	pmem.SetCrashLogger(func(int64) {})
	defer pmem.SetCrashLogger(nil)
	cfg := Config{MetaSlots: 512, DataSlots: 512, VerifyOnGet: true}

	// The workload: 4 committed baseline records, then one batch of 8
	// staged puts (two overwriting baseline keys, two on the same fresh
	// key) and a commit.
	baseline := map[string]string{}
	runBatch := func(s *Store) {
		stage := func(k, v string) {
			if err := s.PutStaged([]byte(k), []byte(v)); err != nil {
				t.Fatal(err)
			}
		}
		stage("base-0", "newer-0") // overwrite
		stage("fresh-a", "va-1")
		stage("fresh-b", "vb-1")
		stage("base-1", "newer-1") // overwrite
		stage("fresh-a", "va-2")   // supersedes va-1 in-batch
		stage("fresh-c", "vc-1")
		stage("fresh-d", "vd-1")
		stage("fresh-e", "ve-1")
		s.Commit()
	}
	setup := func() (*pmem.Region, *Store) {
		r := pmem.New(cfg.RegionSize(), calib.Off())
		s, err := Open(r, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			k := fmt.Sprintf("base-%d", i)
			v := fmt.Sprintf("old-%d", i)
			baseline[k] = v
			if err := s.Put([]byte(k), []byte(v)); err != nil {
				t.Fatal(err)
			}
		}
		return r, s
	}
	batchVal := map[string]string{
		"base-0": "newer-0", "base-1": "newer-1",
		"fresh-a": "va-2", "fresh-b": "vb-1", "fresh-c": "vc-1",
		"fresh-d": "vd-1", "fresh-e": "ve-1",
	}

	// Count the batch's persist ops.
	r0, s0 := setup()
	total := 0
	r0.SetPersistHook(func(op pmem.PersistOp) pmem.PersistDecision {
		total++
		return pmem.PersistDecision{}
	})
	runBatch(s0)
	r0.SetPersistHook(nil)
	if total == 0 {
		t.Fatal("no persist ops observed")
	}
	// The whole batch must cost far fewer persist ops than 8 per-op puts
	// would (2 with overwrites pay 3 phases): group commit = 5 ops here
	// (A flush, A fence, B flush+fence, C flush+fence = 6) at most.
	if total > 6 {
		t.Fatalf("batched commit issued %d persist ops, want <= 6", total)
	}

	for cut := 1; cut <= total; cut++ {
		for _, tear := range []int{0, 13} {
			r, s := setup()
			n := 0
			r.SetPersistHook(func(op pmem.PersistOp) pmem.PersistDecision {
				n++
				if n == cut {
					return pmem.PersistDecision{Cut: true, TearBytes: tear}
				}
				return pmem.PersistDecision{}
			})
			runBatch(s)
			acked := !r.PowerFailed() // commit returned without a cut? (never here)
			if acked {
				t.Fatalf("cut %d: power never failed", cut)
			}
			r.Crash(int64(cut*100 + tear))
			s2, err := Open(r, cfg)
			if err != nil {
				t.Fatalf("cut %d tear %d: reopen: %v", cut, tear, err)
			}
			if q := s2.Quarantined(); q != 0 {
				t.Fatalf("cut %d tear %d: %d slots quarantined", cut, tear, q)
			}
			// The batch was never acked (the cut precedes commit's
			// return), so every key may hold its pre-batch state or the
			// batch state — but nothing else, and no key outside the
			// expected set may exist.
			recs := dump(t, s2)
			for _, rec := range recs {
				k, v := string(rec.Key), string(rec.Value)
				if bv, inBatch := batchVal[k]; inBatch {
					if v != bv && v != baseline[k] {
						t.Fatalf("cut %d tear %d: key %q = %q, want %q or %q", cut, tear, k, v, bv, baseline[k])
					}
					continue
				}
				if bl, ok := baseline[k]; ok {
					if v != bl {
						t.Fatalf("cut %d tear %d: baseline key %q = %q, want %q", cut, tear, k, v, bl)
					}
					continue
				}
				t.Fatalf("cut %d tear %d: phantom key %q", cut, tear, k)
			}
			// Baseline keys can never disappear: their old version's
			// commit word is cleared only after the replacement fenced.
			have := map[string]bool{}
			for _, rec := range recs {
				have[string(rec.Key)] = true
			}
			for k := range baseline {
				if !have[k] {
					t.Fatalf("cut %d tear %d: baseline key %q lost", cut, tear, k)
				}
			}
			if bad, err := s2.Verify(); err != nil || len(bad) > 0 {
				t.Fatalf("cut %d tear %d: verify bad=%d err=%v", cut, tear, len(bad), err)
			}
		}
	}
}

// TestGroupCommitFenceAmortization: N staged puts commit under 2 fences
// (3 when the group replaces committed records) instead of N*2, and
// nothing but data and commit words is flushed: no index state persists.
func TestGroupCommitFenceAmortization(t *testing.T) {
	_, s := newStore(t, Config{MetaSlots: 512, DataSlots: 512})
	r := s.Region()

	r.ResetStats()
	for i := 0; i < 16; i++ {
		if err := s.PutStaged([]byte(fmt.Sprintf("key-%02d", i)), []byte("value")); err != nil {
			t.Fatal(err)
		}
	}
	if st := r.Stats(); st.Fences != 0 {
		t.Fatalf("staging fenced %d times, want 0", st.Fences)
	}
	s.Commit()
	st := r.Stats()
	if st.Fences != 2 {
		t.Fatalf("fresh-key group commit used %d fences, want 2", st.Fences)
	}
	if st.Flushes != 2 {
		t.Fatalf("fresh-key group commit used %d flush calls, want 2", st.Flushes)
	}
	// Phase A: per put the two-line slot image plus the one data line
	// holding key and value; phase B: the line holding each commit word.
	if want := uint64(16*(2+1) + 16); st.LinesFlushed != want {
		t.Fatalf("fresh-key group commit flushed %d lines, want %d", st.LinesFlushed, want)
	}

	// Overwrites add exactly one more flush+fence (phase C).
	r.ResetStats()
	for i := 0; i < 16; i++ {
		if err := s.PutStaged([]byte(fmt.Sprintf("key-%02d", i)), []byte("value2")); err != nil {
			t.Fatal(err)
		}
	}
	s.Commit()
	if st := r.Stats(); st.Fences != 3 {
		t.Fatalf("overwrite group commit used %d fences, want 3", st.Fences)
	}

	cs := s.Stats()
	if cs.GroupCommits != 2 || cs.GroupedPuts != 32 {
		t.Fatalf("group stats = %d commits / %d puts, want 2/32", cs.GroupCommits, cs.GroupedPuts)
	}

	// A delete persists one thing: the cleared commit word.
	r.ResetStats()
	if found, err := s.Delete([]byte("key-07")); err != nil || !found {
		t.Fatalf("Delete = %v, %v", found, err)
	}
	if st := r.Stats(); st.Fences != 1 || st.Flushes != 1 || st.LinesFlushed != 1 {
		t.Fatalf("delete used %d fences / %d flushes / %d lines, want 1/1/1", st.Fences, st.Flushes, st.LinesFlushed)
	}
}

// TestCommitNoDuplicateLines: the commit protocol never issues a clwb
// for a line already sitting in the flushed-but-unfenced window — the
// assertion that the old per-extent + whole-slot double flushing is
// gone.
func TestCommitNoDuplicateLines(t *testing.T) {
	_, s := newStore(t, Config{MetaSlots: 512, DataSlots: 512})
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		key := []byte(fmt.Sprintf("key-%02d", rng.Intn(24)))
		val := make([]byte, 1+rng.Intn(1500))
		switch rng.Intn(4) {
		case 0:
			if err := s.Put(key, val); err != nil {
				t.Fatal(err)
			}
		case 1:
			if _, err := s.Delete(key); err != nil {
				t.Fatal(err)
			}
		default:
			if err := s.PutStaged(key, val); err != nil {
				t.Fatal(err)
			}
			if rng.Intn(3) == 0 {
				s.Commit()
			}
		}
	}
	s.Commit()
	if st := s.Region().Stats(); st.WastedFlushes != 0 {
		t.Fatalf("workload issued %d duplicate-line flushes, want 0", st.WastedFlushes)
	}
}

// TestStagedVisibilityBarriers: staged puts are not observable through
// reads until their group is durable — the read itself forces the
// commit.
func TestStagedVisibilityBarriers(t *testing.T) {
	_, s := newStore(t, Config{MetaSlots: 512, DataSlots: 512})
	if err := s.PutStaged([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if n := s.StagedPuts(); n != 1 {
		t.Fatalf("StagedPuts = %d, want 1", n)
	}
	r := s.Region()
	fencesBefore := r.Stats().Fences
	v, ok, err := s.Get([]byte("k"))
	if err != nil || !ok || string(v) != "v" {
		t.Fatalf("Get = %q,%v,%v", v, ok, err)
	}
	if r.Stats().Fences == fencesBefore {
		t.Fatal("read served a staged record without committing it")
	}
	if n := s.StagedPuts(); n != 0 {
		t.Fatalf("StagedPuts after read barrier = %d, want 0", n)
	}
}

func benchPut(b *testing.B, staged bool) {
	cfg := Config{MetaSlots: 1 << 18, DataSlots: 1 << 18}
	r := pmem.New(cfg.RegionSize(), calib.Off())
	s, err := Open(r, cfg)
	if err != nil {
		b.Fatal(err)
	}
	val := make([]byte, 1024)
	const group = 16
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := []byte(fmt.Sprintf("key-%07d", i%100000))
		if staged {
			if err := s.PutStaged(key, val); err != nil {
				b.Fatal(err)
			}
			if (i+1)%group == 0 {
				s.Commit()
			}
		} else {
			if err := s.Put(key, val); err != nil {
				b.Fatal(err)
			}
		}
	}
	if staged {
		s.Commit()
	}
}

func BenchmarkPut1KUnbatched(b *testing.B) { benchPut(b, false) }
func BenchmarkPut1KBatched16(b *testing.B) { benchPut(b, true) }

// TestSupersededSlotsHeldUntilCommit stages two puts of one key: the
// first is superseded inside the batch, yet its data and metadata slots
// must stay out of every free pool until Commit returns — its lines are
// still in the group's flush set, so a NIC DMA into a recycled buffer
// would race the phase A flush.
func TestSupersededSlotsHeldUntilCommit(t *testing.T) {
	cfg := Config{MetaSlots: 64, DataSlots: 64, DataBufSize: 512}
	s, err := Open(pmem.New(cfg.RegionSize(), calib.Off()), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutStaged([]byte("k"), bytes.Repeat([]byte{1}, 700)); err != nil {
		t.Fatal(err)
	}
	first := s.staged[0].slot
	var firstData []int // the first put's data slots (key slot + extents)
	for _, e := range s.meta[first].desc.Load().exts {
		firstData = append(firstData, s.dataBase+s.dataSlotIndex(e.Off)*cfg.DataBufSize)
	}
	if err := s.PutStaged([]byte("k"), bytes.Repeat([]byte{2}, 700)); err != nil {
		t.Fatal(err)
	}
	// allocatable drains the slab (and gives every slot back), reporting
	// which of the first put's data slots it could hand out.
	allocatable := func() (got []int) {
		var taken []int
		for off := s.pool.Slab().Alloc(); off >= 0; off = s.pool.Slab().Alloc() {
			taken = append(taken, off)
		}
		for _, off := range taken {
			if slices.Contains(firstData, off) {
				got = append(got, off)
			}
			s.pool.Slab().Free(off)
		}
		return got
	}
	if got := allocatable(); len(got) != 0 {
		t.Fatalf("superseded put's data slots %v allocatable before Commit", got)
	}
	if slices.Contains(s.metaFree, int32(first)) {
		t.Fatalf("superseded put's metadata slot %d free before Commit", first)
	}
	s.Commit()
	if got := allocatable(); len(got) != len(firstData) {
		t.Fatalf("after Commit %d of the superseded put's %d data slots are allocatable", len(got), len(firstData))
	}
	if !slices.Contains(s.metaFree, int32(first)) {
		t.Fatalf("superseded put's metadata slot %d not free after Commit", first)
	}
	if v, ok, err := s.Get([]byte("k")); err != nil || !ok || !bytes.Equal(v, bytes.Repeat([]byte{2}, 700)) {
		t.Fatalf("Get after Commit: ok=%v err=%v", ok, err)
	}
}
