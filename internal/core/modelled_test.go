package core

import (
	"fmt"
	"testing"
	"time"

	"packetstore/internal/calib"
	"packetstore/internal/pmem"
)

// TestModelledCostPins pins the PM time the paper profile charges per
// operation, and the stalls that wait it out, on one goroutine and a
// fixed stream: a 1 KB overwrite Put, a Get of a 1 KB value and eight
// staged 1 KB overwrites plus their Commit. Both columns are counts, not
// timings, so they hold with ==. Charged is the device model and must not
// move when only the way it is paid changes; a Put's stalls are its
// stage (the bracket close pays key, value and slot stores) and the
// three commit fences, a Get's its one batched read.
func TestModelledCostPins(t *testing.T) {
	cfg := Config{MetaSlots: 1024, DataSlots: 2048}
	r := pmem.New(cfg.RegionSize(), calib.Paper())
	s, err := Open(r, cfg)
	if err != nil {
		t.Fatal(err)
	}
	val := make([]byte, 1024)
	keys := make([][]byte, 64)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key%012d", i))
		if err := s.Put(keys[i], val); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	next := func() []byte { i++; return keys[i%len(keys)] }
	for _, c := range []struct {
		name    string
		charged time.Duration
		stalls  uint64
		fn      func()
	}{
		{"Put", 3825 * time.Nanosecond, 4, func() { s.Put(next(), val) }},
		{"Get", 4250 * time.Nanosecond, 1, func() { s.Get(next()) }},
		{"PutStaged x 8 + Commit", 29970 * time.Nanosecond, 11, func() {
			for j := 0; j < 8; j++ {
				s.PutStaged(next(), val)
			}
			s.Commit()
		}},
	} {
		for rep := 0; rep < 3; rep++ {
			before := r.Stats()
			c.fn()
			after := r.Stats()
			if got := after.Charged - before.Charged; got != c.charged {
				t.Errorf("%s: charged %v, pinned at %v", c.name, got, c.charged)
			}
			if got := after.Stalls - before.Stalls; got != c.stalls {
				t.Errorf("%s: %d stalls, pinned at %d", c.name, got, c.stalls)
			}
		}
	}
}

// TestDebtNeverOutlivesBracket: every store mutation pays what it owes
// before its outermost bracket closes, so once Put, a lone PutStaged,
// Commit, Delete, a scrub repair, Rehydrate or a shard rebuild returns,
// no handle owes modelled time.
func TestDebtNeverOutlivesBracket(t *testing.T) {
	// Every cost non-zero, so each store and write-back owes; all below
	// the spin floor, so the test does not wait.
	prof := calib.Profile{PMReadLine: 1, PMWriteLine: 1, PMFlushLine: 1, PMFence: 1}
	cfg := parityCfg(2)
	r := pmem.New(ShardedRegionSize(cfg, 2), prof)
	ss, err := OpenSharded(r, cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	owesNothing := func(after string) {
		t.Helper()
		for i, d := range append([]*pmem.Domain{&r.Domain}, ss.doms...) {
			if d.Owed() != 0 {
				t.Fatalf("after %s: handle %d owes %v", after, i, d.Owed())
			}
		}
	}
	owesNothing("open")
	s := ss.Shard(0)
	for i := 0; i < 20; i++ {
		if err := s.Put([]byte(fmt.Sprintf("key%03d", i)), []byte("value")); err != nil {
			t.Fatal(err)
		}
	}
	owesNothing("Put")
	if err := s.PutStaged([]byte("key001"), []byte("staged")); err != nil {
		t.Fatal(err)
	}
	owesNothing("PutStaged")
	s.Commit()
	owesNothing("Commit")
	if _, err := s.Delete([]byte("key002")); err != nil {
		t.Fatal(err)
	}
	owesNothing("Delete")
	ss.EraseDataArea(0)
	if res := scrubAll(s); res.Reconstructed == 0 {
		t.Fatalf("scrub repaired nothing after an erase: %+v", res)
	}
	owesNothing("scrub repair")
	if err := s.Rehydrate(); err != nil {
		t.Fatal(err)
	}
	owesNothing("Rehydrate")
	ss.EraseDataArea(0)
	ss.Quarantine(0, nil)
	if err := ss.Rebuild(0); err != nil {
		t.Fatal(err)
	}
	owesNothing("Rebuild")
	if err := ss.VerifyParity(); err != nil {
		t.Fatal(err)
	}
}
