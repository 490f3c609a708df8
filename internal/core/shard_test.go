package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"packetstore/internal/calib"
	"packetstore/internal/pmem"
)

func TestShardOfStableAndInRange(t *testing.T) {
	for shards := 1; shards <= 9; shards++ {
		for i := 0; i < 200; i++ {
			k := []byte(fmt.Sprintf("key%d", i))
			s := ShardOf(k, shards)
			if s < 0 || s >= shards {
				t.Fatalf("ShardOf(%q,%d)=%d out of range", k, shards, s)
			}
			if s != ShardOf(k, shards) {
				t.Fatalf("ShardOf(%q,%d) not stable", k, shards)
			}
		}
	}
}

func TestShardedSingleShardLayoutMatchesStore(t *testing.T) {
	// One shard must be bit-for-bit a plain Store: open the same region
	// both ways and check the records agree.
	cfg := Config{MetaSlots: 256, DataSlots: 256, VerifyOnGet: true}
	r := pmem.New(ShardedRegionSize(cfg, 1), calib.Off())
	ss, err := OpenSharded(r, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		k := fmt.Sprintf("key%03d", i)
		if err := ss.Put([]byte(k), []byte("v-"+k)); err != nil {
			t.Fatal(err)
		}
	}
	s, err := Open(r, cfg)
	if err != nil {
		t.Fatalf("plain Open over 1-shard layout: %v", err)
	}
	if s.Len() != 50 {
		t.Fatalf("plain Store sees %d records, want 50", s.Len())
	}
	v, ok, err := s.Get([]byte("key007"))
	if err != nil || !ok || string(v) != "v-key007" {
		t.Fatalf("Get=%q,%v,%v", v, ok, err)
	}
}

// TestOpenShardedRegionSizing: a single shard opens on a region of
// exactly cfg.RegionSize() even when that is no 4 KB multiple (pktstored
// sizes single-shard images that way on purpose), and a region too small
// for the layout is an error, never a panic.
func TestOpenShardedRegionSizing(t *testing.T) {
	cfg := Config{MetaSlots: 1000, DataSlots: 1001, VerifyOnGet: true}
	if cfg.RegionSize()%4096 == 0 {
		t.Fatal("geometry must not be 4 KB-aligned for this test to bite")
	}
	r := pmem.New(cfg.RegionSize(), calib.Off())
	ss, err := OpenSharded(r, cfg, 1)
	if err != nil {
		t.Fatalf("exact-size single shard: %v", err)
	}
	if err := ss.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	r.Crash(1)
	if ss, err = OpenSharded(r, cfg, 1); err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if v, ok, err := ss.Get([]byte("k")); err != nil || !ok || string(v) != "v" {
		t.Fatalf("Get after reopen = %q,%v,%v", v, ok, err)
	}
	for _, tc := range []struct{ size, shards int }{
		{cfg.RegionSize() - 64, 1},
		{ShardedRegionSize(cfg, 2) - 4096, 2},
		{cfg.RegionSize(), 2},
	} {
		if _, err := OpenSharded(pmem.New(tc.size, calib.Off()), cfg, tc.shards); err == nil {
			t.Errorf("%d shards on %d bytes: no error", tc.shards, tc.size)
		}
	}
	pcfg := cfg
	pcfg.ParityGroup = 2 // the parity partition must fit too
	if _, err := OpenSharded(pmem.New(ShardedRegionSize(cfg, 2), calib.Off()), pcfg, 2); err == nil {
		t.Error("region without room for the parity partition: no error")
	}
}

// shardedModel drives a ShardedStore and a reference map through the
// same random PUT/DELETE/RANGE schedule, crashes, recovers in parallel,
// and checks full agreement. Returns false (for testing/quick) on any
// divergence.
func shardedModel(t *testing.T, seed int64) bool {
	rng := rand.New(rand.NewSource(seed))
	shards := 1 + rng.Intn(8)
	cfg := Config{MetaSlots: 512, DataSlots: 512, VerifyOnGet: true}
	r := pmem.New(ShardedRegionSize(cfg, shards), calib.Off())
	ss, err := OpenSharded(r, cfg, shards)
	if err != nil {
		t.Logf("seed %d: open: %v", seed, err)
		return false
	}
	ref := map[string]string{}
	checkRange := func(tag string) bool {
		keys := make([]string, 0, len(ref))
		for k := range ref {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		// Random window and limit, plus the full scan.
		for _, probe := range [][2]string{
			{"", ""},
			{fmt.Sprintf("key%03d", rng.Intn(100)), fmt.Sprintf("key%03d", rng.Intn(100))},
		} {
			var start, end []byte
			if probe[0] != "" {
				start = []byte(probe[0])
			}
			if probe[1] != "" {
				end = []byte(probe[1])
			}
			if end != nil && bytes.Compare(start, end) > 0 {
				start, end = end, start
			}
			limit := 1 + rng.Intn(len(ref)+4)
			var want []string
			for _, k := range keys {
				if len(want) >= limit {
					break
				}
				if bytes.Compare([]byte(k), start) < 0 {
					continue
				}
				if len(end) > 0 && bytes.Compare([]byte(k), end) >= 0 {
					continue
				}
				want = append(want, k)
			}
			got, err := ss.Range(start, end, limit)
			if err != nil {
				t.Logf("seed %d %s: Range: %v", seed, tag, err)
				return false
			}
			if len(got) != len(want) {
				t.Logf("seed %d %s: Range[%q,%q) limit %d = %d records, want %d",
					seed, tag, start, end, limit, len(got), len(want))
				return false
			}
			for i, rec := range got {
				if string(rec.Key) != want[i] || string(rec.Value) != ref[want[i]] {
					t.Logf("seed %d %s: Range[%d] = %q=%q, want %q=%q",
						seed, tag, i, rec.Key, rec.Value, want[i], ref[want[i]])
					return false
				}
			}
		}
		return true
	}
	ops := 150 + rng.Intn(250)
	for i := 0; i < ops; i++ {
		k := fmt.Sprintf("key%03d", rng.Intn(120))
		switch rng.Intn(6) {
		case 0:
			found, err := ss.Delete([]byte(k))
			if err != nil {
				t.Logf("seed %d: delete: %v", seed, err)
				return false
			}
			_, want := ref[k]
			if found != want {
				t.Logf("seed %d: Delete(%q)=%v, want %v", seed, k, found, want)
				return false
			}
			delete(ref, k)
		case 1:
			if !checkRange("live") {
				return false
			}
		default:
			v := fmt.Sprintf("val-%d-%d", seed, i)
			if err := ss.Put([]byte(k), []byte(v)); err != nil {
				t.Logf("seed %d: put: %v", seed, err)
				return false
			}
			ref[k] = v
		}
	}
	// Crash, then parallel recovery must round-trip every committed
	// record at this shard count.
	r.Crash(rng.Int63())
	ss2, err := OpenSharded(r, cfg, shards)
	if err != nil {
		t.Logf("seed %d: recovery: %v", seed, err)
		return false
	}
	if ss2.Len() != len(ref) {
		t.Logf("seed %d (%d shards): recovered %d records, want %d",
			seed, shards, ss2.Len(), len(ref))
		return false
	}
	for k, v := range ref {
		got, ok, err := ss2.Get([]byte(k))
		if err != nil || !ok || string(got) != v {
			t.Logf("seed %d: post-crash %q = %q,%v,%v want %q", seed, k, got, ok, err, v)
			return false
		}
	}
	if bad, err := ss2.Verify(); err != nil || len(bad) != 0 {
		t.Logf("seed %d: Verify bad=%q err=%v", seed, bad, err)
		return false
	}
	ss = ss2
	return checkRange("recovered")
}

func TestShardedStoreQuick(t *testing.T) {
	// Property: a ShardedStore with a random shard count is
	// indistinguishable from an ordered map under random
	// PUT/DELETE/RANGE, including across a randomized crash and parallel
	// recovery.
	cfg := &quick.Config{MaxCount: 12}
	if testing.Short() {
		cfg.MaxCount = 4
	}
	if err := quick.Check(func(seed int64) bool {
		return shardedModel(t, seed)
	}, cfg); err != nil {
		t.Fatal(err)
	}
}
