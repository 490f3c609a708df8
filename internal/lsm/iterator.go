package lsm

import (
	"bytes"

	"packetstore/internal/pskiplist"
)

// mergedIter performs an N-way merge of the memtables by internal-key
// order. Internal keys are unique across memtables (sequence numbers are
// global), so ties cannot occur.
type mergedIter struct {
	iters []*pskiplist.Iterator
	cur   int
}

func newMergedIter(iters []*pskiplist.Iterator) *mergedIter {
	m := &mergedIter{iters: iters, cur: -1}
	m.pick()
	return m
}

func (m *mergedIter) pick() {
	m.cur = -1
	for i, it := range m.iters {
		if !it.Valid() {
			continue
		}
		if m.cur < 0 || icmp(it.Key(), m.iters[m.cur].Key()) < 0 {
			m.cur = i
		}
	}
}

func (m *mergedIter) valid() bool   { return m.cur >= 0 }
func (m *mergedIter) key() []byte   { return m.iters[m.cur].Key() }
func (m *mergedIter) value() []byte { return m.iters[m.cur].Value() }
func (m *mergedIter) next() {
	m.iters[m.cur].Next()
	m.pick()
}

// KV is one result of a range scan.
type KV struct {
	Key   []byte
	Value []byte
}

// Range returns up to limit live entries with start <= key < end (end nil
// means unbounded) — the efficient range query NoveLSM's persistent skip
// list exists to support.
func (db *DB) Range(start, end []byte, limit int) ([]KV, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return nil, ErrClosed
	}
	if limit <= 0 {
		limit = 1 << 30
	}
	lk := lookupKey(start, MaxSeq)
	iters := make([]*pskiplist.Iterator, 0, 1+len(db.imms))
	for _, mt := range append([]*pmMemtable{db.mem}, db.imms...) {
		it := mt.sl.NewIterator()
		it.Seek(lk)
		iters = append(iters, it)
	}

	merged := newMergedIter(iters)
	var out []KV
	var lastUser []byte
	for merged.valid() && len(out) < limit {
		k := ikey(merged.key())
		uk := k.userKey()
		if end != nil && bytes.Compare(uk, end) >= 0 {
			break
		}
		if lastUser != nil && bytes.Equal(uk, lastUser) {
			merged.next()
			continue // shadowed older version
		}
		lastUser = append(lastUser[:0], uk...)
		if k.kind() != KindDelete {
			val, err := decodeValue(uk, merged.value())
			if err != nil {
				return nil, err
			}
			out = append(out, KV{Key: bytes.Clone(uk), Value: val})
		}
		merged.next()
	}
	return out, nil
}
