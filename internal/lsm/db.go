package lsm

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"packetstore/internal/checksum"
	"packetstore/internal/pmem"
	"packetstore/internal/pskiplist"
)

// Errors.
var (
	ErrClosed = errors.New("lsm: db closed")
	ErrPMFull = errors.New("lsm: persistent memtable area exhausted")
)

// Options configures a DB: memtable arenas of ArenaSize bytes each
// (default 4MB) tile [0, PMSize) of PM.
type Options struct {
	PM        *pmem.Region
	PMSize    int
	ArenaSize int
}

// Breakdown accumulates per-phase time over all puts — the direct
// instrumentation behind the Table 1 reproduction.
type Breakdown struct {
	Ops      uint64
	Prep     time.Duration // write-batch encoding
	Checksum time.Duration // CRC32C over key+value
	Insert   pskiplist.InsertStats
}

// DB is the baseline key-value store.
type DB struct {
	mu  sync.Mutex
	opt Options

	seq      uint64
	mem      *pmMemtable
	imms     []*pmMemtable // newest first
	freeAr   []int         // arena bases not holding a memtable
	arenaTag uint64

	bd     Breakdown
	closed bool
	batch  *Batch // reusable per-put batch (DB calls are serialized by mu)
}

// Open creates or reopens a DB, recovering every memtable arena that
// survives in PM.
func Open(opt Options) (*DB, error) {
	if opt.ArenaSize == 0 {
		opt.ArenaSize = 4 << 20
	}
	if opt.PM == nil || opt.PMSize < opt.ArenaSize {
		return nil, fmt.Errorf("lsm: needs a PM area of at least one arena")
	}
	db := &DB{opt: opt, batch: NewBatch()}
	if err := db.recoverArenas(); err != nil {
		return nil, err
	}
	return db, nil
}

// recoverArenas scans the PM area for surviving memtable arenas and
// reconstructs the memtable stack; the arena with the highest tag stays
// mutable.
func (db *DB) recoverArenas() error {
	type found struct {
		mt  *pmMemtable
		tag uint64
	}
	var hits []found
	for base := 0; base+db.opt.ArenaSize <= db.opt.PMSize; base += db.opt.ArenaSize {
		mt, err := recoverPMMemtable(db.opt.PM, base, db.opt.ArenaSize)
		if err != nil {
			db.freeAr = append(db.freeAr, base)
			continue
		}
		hits = append(hits, found{mt, mt.sl.Tag()})
	}
	if len(hits) == 0 {
		// Fresh database.
		return db.newPMMemtableLocked()
	}
	// Newest (highest tag) becomes mutable.
	slices.SortFunc(hits, func(a, b found) int { return cmp.Compare(a.tag, b.tag) })
	newest := hits[len(hits)-1]
	db.mem = newest.mt
	db.arenaTag = newest.tag
	for i := len(hits) - 2; i >= 0; i-- {
		db.imms = append(db.imms, hits[i].mt)
	}
	// Restore the sequence counter from the highest stored seq.
	for _, h := range hits {
		it := h.mt.sl.NewIterator()
		for it.SeekToFirst(); it.Valid(); it.Next() {
			if s := ikey(it.Key()).seq(); s > db.seq {
				db.seq = s
			}
		}
	}
	return nil
}

// newPMMemtableLocked carves the next free arena and installs a fresh
// mutable memtable.
func (db *DB) newPMMemtableLocked() error {
	if len(db.freeAr) == 0 {
		return ErrPMFull
	}
	base := db.freeAr[len(db.freeAr)-1]
	db.freeAr = db.freeAr[:len(db.freeAr)-1]
	db.arenaTag++
	mt := newPMMemtable(db.opt.PM, base, db.opt.ArenaSize)
	mt.sl.SetTag(db.arenaTag)
	db.mem = mt
	return nil
}

// Breakdown returns the cumulative phase timings.
func (db *DB) Breakdown() Breakdown {
	db.mu.Lock()
	defer db.mu.Unlock()
	out := db.bd
	out.Insert.Add(db.mem.sl.Stats())
	return out
}

// ResetBreakdown zeroes the phase timings.
func (db *DB) ResetBreakdown() {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.bd = Breakdown{}
	*db.mem.sl.Stats() = pskiplist.InsertStats{}
}

// Put stores key -> value.
func (db *DB) Put(key, value []byte) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.applyLocked(KindValue, key, value)
}

// Delete removes key.
func (db *DB) Delete(key []byte) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.applyLocked(KindDelete, key, nil)
}

func (db *DB) applyLocked(kind Kind, key, value []byte) error {
	if db.closed {
		return ErrClosed
	}
	db.bd.Ops++

	// Phase 1 — integrity checksum over key+value, stored after the value.
	var stored []byte
	if kind == KindValue {
		t1 := time.Now()
		c := checksum.UpdateCRC32C(checksum.CRC32C(key), value)
		db.bd.Checksum += time.Since(t1)
		stored = append(append(make([]byte, 0, len(value)+4), value...),
			byte(c), byte(c>>8), byte(c>>16), byte(c>>24))
	}

	// Phase 2 — request preparation: encode the write batch.
	t0 := time.Now()
	b := db.batch
	b.Reset()
	if kind == KindValue {
		b.Put(key, stored)
	} else {
		b.Delete(key)
	}
	b.setSeq(db.seq + 1)
	db.bd.Prep += time.Since(t0)

	// Phase 3 — memtable copy + allocation + insertion (instrumented
	// inside the PM skip list itself).
	if !db.mem.add(db.seq+1, kind, key, stored) {
		// PM arena full: rotate and retry once.
		if err := db.rotateLocked(); err != nil {
			return err
		}
		if !db.mem.add(db.seq+1, kind, key, stored) {
			return ErrPMFull
		}
	}
	db.seq++

	if db.mem.sl.MemoryUsage() >= db.opt.ArenaSize-db.opt.ArenaSize/8 {
		// The put is durable either way: on ErrPMFull, the last eighth
		// of this arena still takes puts until it fills.
		_ = db.rotateLocked()
	}
	return nil
}

// rotateLocked retires the mutable memtable to the immutable stack and
// installs a fresh one in the next free arena.
func (db *DB) rotateLocked() error {
	cur := db.mem
	if err := db.newPMMemtableLocked(); err != nil {
		return err
	}
	db.bd.Insert.Add(cur.sl.Stats())
	db.imms = append([]*pmMemtable{cur}, db.imms...)
	return nil
}

// Get returns the newest value for key.
func (db *DB) Get(key []byte) ([]byte, bool, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return nil, false, ErrClosed
	}
	v, deleted, found := db.mem.get(key)
	for _, imm := range db.imms {
		if found {
			break
		}
		v, deleted, found = imm.get(key)
	}
	if !found || deleted {
		return nil, false, nil
	}
	val, err := decodeValue(key, v)
	if err != nil {
		return nil, false, err
	}
	return val, true, nil
}

// decodeValue strips and verifies the stored checksum.
func decodeValue(key, stored []byte) ([]byte, error) {
	if len(stored) < 4 {
		return nil, fmt.Errorf("lsm: stored value shorter than checksum")
	}
	val, c := stored[:len(stored)-4], stored[len(stored)-4:]
	want := uint32(c[0]) | uint32(c[1])<<8 | uint32(c[2])<<16 | uint32(c[3])<<24
	if got := checksum.UpdateCRC32C(checksum.CRC32C(key), val); got != want {
		return nil, fmt.Errorf("lsm: checksum mismatch for key %q", key)
	}
	return bytes.Clone(val), nil
}

// Seq returns the current sequence number (diagnostics).
func (db *DB) Seq() uint64 {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.seq
}

// Immutables reports how many retired memtables are queued.
func (db *DB) Immutables() int {
	db.mu.Lock()
	defer db.mu.Unlock()
	return len(db.imms)
}

// Close closes the DB. Everything it holds is already durable in PM.
func (db *DB) Close() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return ErrClosed
	}
	db.closed = true
	return nil
}
