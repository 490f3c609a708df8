package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync/atomic"

	"packetstore/internal/core"
)

// Fixed input shape of every workload (ISSUE 13): 1 KB values over a
// 16 384-key space. The key space is a quarter of the store's slots, so
// the steady state is overwrites (slot recycle + old-record clear), never
// out-of-space.
const (
	keySpace  = 16384
	valueSize = 1024
)

// crashRecords is how many records crash_recover loads, cuts the power
// on, and reads back: half the store's slots.
const crashRecords = 32768

// Operation kinds, also the index into per-kind sample and count arrays.
const (
	opPut = iota
	opGet
	opDelete
	opKinds
)

// keyOf is the wire and store key of key id; every key is keyLen bytes.
func keyOf(id int) []byte { return []byte(fmt.Sprintf("key%012d", id)) }

const keyLen = len("key") + 12

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// fillValue writes the self-describing value of (key id, version) into
// buf: the 8-byte version, then bytes derived from id, version and the
// run seed, so a reader can tell which version it holds and whether a
// single byte of it is wrong.
func fillValue(buf []byte, seed uint64, id int, version uint64) {
	binary.LittleEndian.PutUint64(buf, version)
	x := splitmix(seed ^ uint64(id)<<32 ^ version)
	for i := 8; i+8 <= len(buf); i += 8 {
		x = splitmix(x)
		binary.LittleEndian.PutUint64(buf[i:], x)
	}
}

// model is the reference the store's answers are checked against: per
// key, the last acknowledged version and whether the key is present.
// Every key has exactly one writer (its owner), so versions are issued
// in order; readers on other connections load the acknowledged state
// before sending and accept that version or any later one.
type model struct {
	seed   uint64
	acked  []atomic.Uint64 // version<<1 | present
	issued []uint64        // touched only by the key's owner
}

func newModel(seed uint64, keys int) *model {
	return &model{seed: seed, acked: make([]atomic.Uint64, keys), issued: make([]uint64, keys)}
}

func (m *model) nextVersion(id int) uint64 {
	m.issued[id]++
	return m.issued[id]
}

func (m *model) ackPut(id int, version uint64) { m.acked[id].Store(version<<1 | 1) }
func (m *model) ackDelete(id int)              { m.acked[id].Store(m.issued[id] << 1) }

// state returns the acknowledged version of id and whether it is present.
func (m *model) state(id int) (version uint64, present bool) {
	s := m.acked[id].Load()
	return s >> 1, s&1 == 1
}

// live counts present keys and their user bytes (key + value).
func (m *model) live() (records int, userBytes int) {
	for id := range m.acked {
		if _, ok := m.state(id); ok {
			records++
			userBytes += keyLen + valueSize
		}
	}
	return
}

// checker verifies GET bodies; one per goroutine (it owns a scratch
// buffer).
type checker struct {
	m       *model
	scratch []byte
}

func newChecker(m *model) *checker { return &checker{m: m, scratch: make([]byte, valueSize)} }

// atLeast reports whether body is a byte-exact value of id at version
// floor or later — the check for a reader racing the key's writer.
func (c *checker) atLeast(id int, body []byte, floor uint64) bool {
	if len(body) != valueSize {
		return false
	}
	v := binary.LittleEndian.Uint64(body)
	if v < floor {
		return false
	}
	fillValue(c.scratch, c.m.seed, id, v)
	return bytes.Equal(body, c.scratch)
}

// exact reports whether (body, found) is exactly the acknowledged state
// of id — the check once writers are quiet.
func (c *checker) exact(id int, body []byte, found bool) bool {
	v, present := c.m.state(id)
	if !present || !found {
		return present == found
	}
	return len(body) == valueSize && binary.LittleEndian.Uint64(body) == v && c.atLeast(id, body, v)
}

// picker draws one worker's operations. -seed is the only source of
// randomness: worker i of a run draws from a generator seeded with
// (seed, i), so the same seed replays the same request stream.
type picker struct {
	rng    *rand.Rand
	zipf   *rand.Zipf
	w      *workload
	worker int
	own    []int // embedded workloads: the key ids this worker's shard owns
}

func newPicker(w *workload, seed uint64, worker int) *picker {
	p := &picker{rng: rand.New(rand.NewSource(int64(splitmix(seed) + uint64(worker)*7919))), w: w, worker: worker}
	if w.zipf {
		p.zipf = rand.NewZipf(p.rng, 1.1, 1, keySpace-1)
	}
	if w.kind == kindEmbedded {
		for id := 0; id < keySpace; id++ {
			if core.ShardOf(keyOf(id), w.workers) == worker {
				p.own = append(p.own, id)
			}
		}
	}
	return p
}

// next returns the next operation and key id. Writes always land on a key
// this worker owns: the drawn id is moved to the worker's residue class
// (network workloads) or drawn from the worker's shard (embedded), which
// keeps the distribution's shape and gives every key a single writer.
func (p *picker) next() (kind, id int) {
	r := p.rng.Intn(100)
	switch {
	case r < p.w.putPct:
		kind = opPut
	case r < p.w.putPct+p.w.getPct:
		kind = opGet
	default:
		kind = opDelete
	}
	if p.own != nil {
		return kind, p.own[p.rng.Intn(len(p.own))]
	}
	if p.zipf != nil {
		id = int(p.zipf.Uint64())
	} else {
		id = p.rng.Intn(keySpace)
	}
	if kind != opGet {
		id = id - id%p.w.workers + p.worker
	}
	return kind, id
}
