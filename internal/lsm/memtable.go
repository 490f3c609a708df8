package lsm

import (
	"packetstore/internal/pmem"
	"packetstore/internal/pskiplist"
)

// pmMemtable is the NoveLSM persistent skip list of internal keys.
type pmMemtable struct {
	sl *pskiplist.List
}

// newPMMemtable initializes a fresh persistent memtable in [base,
// base+size) of r.
func newPMMemtable(r *pmem.Region, base, size int) *pmMemtable {
	return &pmMemtable{sl: pskiplist.New(r, base, size, icmp)}
}

// recoverPMMemtable reopens a persistent memtable after a crash.
func recoverPMMemtable(r *pmem.Region, base, size int) (*pmMemtable, error) {
	sl, err := pskiplist.Recover(r, base, size, icmp)
	if err != nil {
		return nil, err
	}
	return &pmMemtable{sl: sl}, nil
}

// add inserts an entry; false means the arena is full.
func (m *pmMemtable) add(seq uint64, kind Kind, userKey, value []byte) bool {
	return m.sl.Insert(makeIKey(userKey, seq, kind), value)
}

// get looks up the newest entry for userKey. found=false means the
// memtable has no entry; deleted=true means the newest entry is a
// tombstone.
func (m *pmMemtable) get(userKey []byte) (value []byte, deleted, found bool) {
	it := m.sl.NewIterator()
	it.Seek(lookupKey(userKey, MaxSeq))
	if !it.Valid() {
		return nil, false, false
	}
	k := ikey(it.Key())
	if !k.valid() || string(k.userKey()) != string(userKey) {
		return nil, false, false
	}
	if k.kind() == KindDelete {
		return nil, true, true
	}
	return it.Value(), false, true
}
