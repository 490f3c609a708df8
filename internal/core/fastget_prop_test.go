package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"packetstore/internal/calib"
	"packetstore/internal/pmem"
)

// Property test for the lock-free read fast path: concurrent fast GETs
// (copying and pinned zero-copy) race against overwrites, deletes,
// injected media damage plus scrub repair, and live shard rebuilds. The
// invariant is byte-exactness: a read either misses, returns a typed
// error, or returns exactly the bytes some writer stored — never a torn
// or stale-beyond-bounds value.
//
// Version protocol (single writer per key): the writer publishes
// hi[k]=v before Put(propVal(v)) and lo[k]=v after it returns. A reader
// that loads lo before the read and hi after it may accept any version
// in [lo0, hi1]; the version is embedded in the value, so the reader
// recomputes the expected bytes and compares exactly.

// propVal derives a deterministic value from (key, version): the key,
// the version (LE64), then xorshift filler. Length varies with version
// so overwrites change extent shape.
func propVal(key []byte, ver uint64) []byte {
	n := 64 + int(ver%5)*48
	out := make([]byte, 0, len(key)+8+n)
	out = append(out, key...)
	var vb [8]byte
	binary.LittleEndian.PutUint64(vb[:], ver)
	out = append(out, vb[:]...)
	x := ver*2654435761 + 1
	for _, c := range key {
		x = x*31 + uint64(c)
	}
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		out = append(out, byte(x))
	}
	return out
}

// checkPropVal asserts val is byte-exact for a version within
// [lo0, hi1] (lo0 bound skipped for churn keys, whose delete/re-put
// cycles make the lower bound meaningless).
func checkPropVal(t *testing.T, key, val []byte, lo0, hi1 uint64, churn bool) {
	if len(val) < len(key)+8 {
		t.Errorf("key %q: short value %d bytes", key, len(val))
		return
	}
	v := binary.LittleEndian.Uint64(val[len(key):])
	if v > hi1 || (!churn && v < lo0) {
		t.Errorf("key %q: version %d outside [%d, %d]", key, v, lo0, hi1)
		return
	}
	if want := propVal(key, v); !bytes.Equal(val, want) {
		t.Errorf("key %q: torn read at version %d (%d bytes, want %d)", key, v, len(val), len(want))
	}
}

func TestFastGetPropertyUnderChaos(t *testing.T) {
	const shards = 4
	cfg := Config{MetaSlots: 64, SlotSize: 128, DataSlots: 128, DataBufSize: 128,
		VerifyOnGet: true, ParityGroup: 2}
	r := pmem.New(ShardedRegionSize(cfg, shards), calib.Off())
	ss, err := OpenSharded(r, cfg, shards)
	if err != nil {
		t.Fatal(err)
	}

	writerIters, chaosIters := 250, 25
	if testing.Short() {
		writerIters, chaosIters = 60, 8
	}

	// Key roles: stable keys are written once and become the chaos
	// targets (corruption + scrub repair); hot keys are overwritten by a
	// single writer under the version protocol; churn keys cycle through
	// put/delete. Readers never see injected damage on hot/churn keys,
	// so the pinned zero-copy path (no checksum) stays byte-exact there.
	const nKeys = 48
	keys := make([][]byte, nKeys)
	hi := make([]atomic.Uint64, nKeys)
	lo := make([]atomic.Uint64, nKeys)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("prop-key-%04d", i))
	}
	for i := 0; i < nKeys; i += 3 { // stable
		if err := ss.Put(keys[i], propVal(keys[i], 1)); err != nil {
			t.Fatal(err)
		}
		hi[i].Store(1)
		lo[i].Store(1)
	}

	tolerable := func(err error) bool {
		return errors.Is(err, ErrShardDown) || errors.Is(err, ErrCorrupt) ||
			errors.Is(err, ErrUnrecoverable)
	}

	var stop atomic.Bool
	var wg, readers sync.WaitGroup

	writer := func(role int) { // role 1 = hot, role 2 = churn
		defer wg.Done()
		for it := 0; it < writerIters; it++ {
			for k := role; k < nKeys; k += 3 {
				key := keys[k]
				v := hi[k].Load() + 1
				hi[k].Store(v)
				var err error
				if it%7 == 3 { // staged group path
					if err = ss.PutStaged(key, propVal(key, v)); err == nil {
						ss.Commit()
					}
				} else {
					err = ss.Put(key, propVal(key, v))
				}
				if err != nil {
					if !tolerable(err) {
						t.Errorf("put %q: %v", key, err)
					}
					continue
				}
				lo[k].Store(v)
				if role == 2 && it%3 == 1 {
					if _, err := ss.Delete(key); err != nil && !tolerable(err) {
						t.Errorf("delete %q: %v", key, err)
					}
				}
			}
		}
	}
	wg.Add(2)
	go writer(1)
	go writer(2)

	// Chaos: flip a value byte in a stable key's media and scrub the
	// shard so parity repairs it (repairs defer while readers hold
	// pins); periodically quarantine and rebuild a live shard.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for it := 0; it < chaosIters; it++ {
			k := keys[(it*3)%nKeys]
			if st := ss.StoreFor(k); st != nil {
				st.CorruptRecord(k, FlipValueByte, it, 0x40)
				scrubAll(st)
				scrubAll(st)
			}
			if it%5 == 4 {
				sh := it % shards
				ss.Quarantine(sh, fmt.Errorf("chaos"))
				if err := ss.Rebuild(sh); err != nil {
					t.Errorf("rebuild shard %d: %v", sh, err)
				}
			}
		}
	}()

	reader := func(seed int) {
		defer readers.Done()
		for it := 0; !stop.Load(); it++ {
			k := (it*7 + seed) % nKeys
			key, churn := keys[k], k%3 == 2
			lo0 := lo[k].Load()
			if (it+seed)%2 == 0 || k%3 == 0 {
				// Copying read (checksum-verified): the only safe read
				// for chaos-corrupted stable keys.
				val, ok, err := ss.Get(key)
				hi1 := hi[k].Load()
				switch {
				case err != nil:
					if !tolerable(err) {
						t.Errorf("get %q: %v", key, err)
					}
				case !ok:
					if !churn && lo0 > 0 {
						t.Errorf("get %q: lost (lo=%d)", key, lo0)
					}
				default:
					checkPropVal(t, key, val, lo0, hi1, churn)
				}
				continue
			}
			// Pinned zero-copy read: extents stay stable against
			// concurrent deletes, repairs, and recycling until release.
			st := ss.StoreFor(key)
			if st == nil {
				continue
			}
			ref, release, ok, err := st.GetRefPinned(key)
			hi1 := hi[k].Load()
			switch {
			case err != nil:
				if !tolerable(err) {
					t.Errorf("getref %q: %v", key, err)
				}
			case !ok:
				if !churn && lo0 > 0 {
					t.Errorf("getref %q: lost (lo=%d)", key, lo0)
				}
			default:
				val := make([]byte, 0, ref.VLen)
				for _, e := range ref.Extents {
					val = append(val, st.Slice(e.Off, e.Len)...)
				}
				release()
				checkPropVal(t, key, val, lo0, hi1, churn)
			}
		}
	}
	readers.Add(3)
	for i := 0; i < 3; i++ {
		go reader(i)
	}

	wg.Wait()
	stop.Store(true)
	readers.Wait()

	// Quiesce: repair any damage whose in-place rewrite was deferred by
	// reader pins, then every key must verify byte-exact at its final
	// committed version.
	for i := 0; i < shards; i++ {
		if st := ss.Shard(i); st != nil {
			scrubAll(st)
			scrubAll(st)
		}
	}
	for k, key := range keys {
		val, ok, err := ss.Get(key)
		if err != nil {
			t.Errorf("final get %q: %v", key, err)
			continue
		}
		if !ok {
			if k%3 != 2 && lo[k].Load() > 0 {
				t.Errorf("final get %q: lost", key)
			}
			continue
		}
		checkPropVal(t, key, val, lo[k].Load(), hi[k].Load(), k%3 == 2)
	}

	st := ss.Stats()
	if st.FastGets == 0 {
		t.Fatal("no GET completed on the lock-free fast path")
	}
	t.Logf("gets=%d fast=%d retries=%d fallbacks=%d",
		st.Gets, st.FastGets, st.FastGetRetries, st.FastGetFallbacks)
}

// TestReadPathsAgreeWithModel drives one store through a random stream
// of puts, overwrites, staged groups and deletes beside a map model,
// and at every checkpoint — mid-stream, after a power cut and reopen,
// after an online Rehydrate — requires the lock-free path, the locked
// path (LockedReads) and Range to answer exactly the model: same hits,
// same misses, same bytes, keys in order. The knob only picks lock vs no
// lock; both sit on the one index walker.
func TestReadPathsAgreeWithModel(t *testing.T) {
	pmem.SetCrashLogger(func(int64) {})
	defer pmem.SetCrashLogger(nil)
	cfg := Config{MetaSlots: 256, DataSlots: 256, DataBufSize: 512, VerifyOnGet: true}
	r := pmem.New(cfg.RegionSize(), calib.Off())
	s, err := Open(r, cfg)
	if err != nil {
		t.Fatal(err)
	}
	const nKeys = 96
	// Keys cover every comparator branch: distinct 8-byte prefixes, a
	// shared prefix decided by the full compare, and two short keys whose
	// zero-padded prefixes are equal so only length orders them.
	key := func(i int) []byte {
		switch {
		case i == 0:
			return []byte("ab")
		case i == 1:
			return []byte("ab\x00")
		case i%2 == 0:
			return []byte(fmt.Sprintf("k%03d", i))
		}
		return []byte(fmt.Sprintf("shared-prefix-%03d", i))
	}
	model := map[string][]byte{}
	ver := uint64(0)

	check := func(stage string) {
		t.Helper()
		for _, locked := range []bool{false, true} {
			s.cfg.LockedReads = locked
			fast0 := s.Stats().FastGets
			for i := 0; i < nKeys; i++ {
				k := key(i)
				want, present := model[string(k)]
				got, ok, err := s.Get(k)
				if err != nil || ok != present || !bytes.Equal(got, want) {
					t.Fatalf("%s locked=%v: Get(%q) = %d bytes, %v, %v; model present=%v", stage, locked, k, len(got), ok, err, present)
				}
				ref, ok, err := s.GetRef(k)
				if err != nil || ok != present || (ok && ref.VLen != len(want)) {
					t.Fatalf("%s locked=%v: GetRef(%q) = vlen %d, %v, %v; model present=%v", stage, locked, k, ref.VLen, ok, err, present)
				}
			}
			if fast := s.Stats().FastGets - fast0; (fast == 0) != locked {
				t.Fatalf("%s locked=%v: %d reads took the lock-free path", stage, locked, fast)
			}
			recs := dump(t, s)
			if len(recs) != len(model) {
				t.Fatalf("%s locked=%v: Range returned %d records, model has %d", stage, locked, len(recs), len(model))
			}
			for i, rec := range recs {
				if i > 0 && bytes.Compare(recs[i-1].Key, rec.Key) >= 0 {
					t.Fatalf("%s: Range out of order at %q", stage, rec.Key)
				}
				if !bytes.Equal(rec.Value, model[string(rec.Key)]) {
					t.Fatalf("%s: Range value for %q differs from the model", stage, rec.Key)
				}
			}
		}
		s.cfg.LockedReads = false
	}

	rng := rand.New(rand.NewSource(15))
	churn := func(n int) {
		for op := 0; op < n; op++ {
			k := key(rng.Intn(nKeys))
			switch rng.Intn(5) {
			case 0:
				if _, err := s.Delete(k); err != nil {
					t.Fatal(err)
				}
				delete(model, string(k))
			case 1: // staged group, committed by the next barrier
				ver++
				if err := s.PutStaged(k, propVal(k, ver)); err != nil {
					t.Fatal(err)
				}
				model[string(k)] = propVal(k, ver)
			default:
				ver++
				if err := s.Put(k, propVal(k, ver)); err != nil {
					t.Fatal(err)
				}
				model[string(k)] = propVal(k, ver)
			}
		}
		s.Commit()
	}

	churn(400)
	check("steady")
	r.Crash(15)
	if s, err = Open(r, cfg); err != nil {
		t.Fatalf("reopen: %v", err)
	}
	check("after crash+reopen")
	churn(200)
	check("after more churn")
	if err := s.Rehydrate(); err != nil {
		t.Fatalf("Rehydrate: %v", err)
	}
	check("after rehydrate")
	churn(200)
	check("final")
}
