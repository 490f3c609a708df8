// Package kvserver implements the storage server application: one
// request engine (executor: handleBuf -> beginRequest -> dispatch ->
// finishConn) that parses KV-over-HTTP requests out of packet buffers
// and dispatches them to a storage backend, behind two transports that
// produce those buffers. Server runs it from busy-polling event loops
// over the simulated TCP stack (the paper's one-core server, one loop
// per NIC queue); NetServer runs it from one goroutine per OS socket
// (cmd/pktstored). DESIGN.md §5.17 says what the two share.
//
// Backends:
//
//   - Discard: parses and acknowledges without storing — the paper's
//     "networking only" configuration that isolates network overheads.
//   - RawPM: copy + flush into PM, no data management — Figure 2's
//     "Net. + persist." series.
//   - LSM: the NoveLSM baseline (PM memtable, no WAL, no compaction) —
//     Figure 2's "Net. + data mgmt. + persist." series.
//   - PktStore / ShardedPktStore: the paper's proposal. With a PM-backed
//     NIC receive pool the engine runs the zero-copy ingest path:
//     request values are committed where the NIC wrote them, with
//     NIC-derived checksums and hardware timestamps, and GET responses
//     are transmitted straight out of the store via packet fragments.
package kvserver

import (
	"packetstore/internal/core"
	"packetstore/internal/kvproto"
	"packetstore/internal/lsm"
	"packetstore/internal/rawpm"
)

// Backend stores and retrieves values (copy path).
type Backend interface {
	Name() string
	Put(key, value []byte) error
	Get(key []byte) (value []byte, ok bool, err error)
	Delete(key []byte) (found bool, err error)
	Range(start, end []byte, limit int) ([]kvproto.KV, error)
}

// Discard acknowledges everything and stores nothing.
type Discard struct{}

// Name implements Backend.
func (Discard) Name() string { return "discard" }

// Put implements Backend.
func (Discard) Put(key, value []byte) error { return nil }

// Get implements Backend.
func (Discard) Get(key []byte) ([]byte, bool, error) { return nil, false, nil }

// Delete implements Backend.
func (Discard) Delete(key []byte) (bool, error) { return false, nil }

// Range implements Backend.
func (Discard) Range(start, end []byte, limit int) ([]kvproto.KV, error) { return nil, nil }

// RawPM copies and persists values without data management.
type RawPM struct {
	S *rawpm.Store
}

// Name implements Backend.
func (RawPM) Name() string { return "rawpm" }

// Put implements Backend.
func (b RawPM) Put(key, value []byte) error { return b.S.Put(value) }

// Get implements Backend (raw PM keeps no index; reads always miss).
func (RawPM) Get(key []byte) ([]byte, bool, error) { return nil, false, nil }

// Delete implements Backend.
func (RawPM) Delete(key []byte) (bool, error) { return false, nil }

// Range implements Backend.
func (RawPM) Range(start, end []byte, limit int) ([]kvproto.KV, error) { return nil, nil }

// LSM adapts the NoveLSM baseline.
type LSM struct {
	DB *lsm.DB
}

// Name implements Backend.
func (LSM) Name() string { return "lsm" }

// Put implements Backend.
func (b LSM) Put(key, value []byte) error { return b.DB.Put(key, value) }

// Get implements Backend.
func (b LSM) Get(key []byte) ([]byte, bool, error) { return b.DB.Get(key) }

// Delete implements Backend.
func (b LSM) Delete(key []byte) (bool, error) {
	// The LSM always writes a tombstone; report found for protocol
	// symmetry.
	return true, b.DB.Delete(key)
}

// Range implements Backend.
func (b LSM) Range(start, end []byte, limit int) ([]kvproto.KV, error) {
	kvs, err := b.DB.Range(start, end, limit)
	if err != nil {
		return nil, err
	}
	out := make([]kvproto.KV, len(kvs))
	for i, kv := range kvs {
		out[i] = kvproto.KV{Key: kv.Key, Value: kv.Value}
	}
	return out, nil
}

// recordStore is the copy-path surface core.Store and core.ShardedStore
// share; pktStore turns either into a Backend.
type recordStore interface {
	Put(key, value []byte) error
	Get(key []byte) ([]byte, bool, error)
	Delete(key []byte) (bool, error)
	Range(start, end []byte, limit int) ([]core.Record, error)
}

// pktStore adapts a packetstore front-end — one Store, or a
// ShardedStore routing by key hash and merging RANGE across shards.
// These methods are the copy path: what a request takes when its bytes
// did not arrive in the owning shard's PM pool (every OS-socket request;
// DELETE and RANGE always).
type pktStore[T recordStore] struct {
	S T
}

// PktStore and ShardedPktStore are the paper's proposal as a Backend.
// Both servers detect them: an event loop whose NIC receive pool is a
// shard's PM partition switches to the zero-copy ingest and egress
// paths, and /healthz and the PUT body bound read the store's geometry.
type (
	PktStore        = pktStore[*core.Store]
	ShardedPktStore = pktStore[*core.ShardedStore]
)

// Name implements Backend.
func (pktStore[T]) Name() string { return "pktstore" }

// Put implements Backend.
func (b pktStore[T]) Put(key, value []byte) error { return b.S.Put(key, value) }

// Get implements Backend.
func (b pktStore[T]) Get(key []byte) ([]byte, bool, error) { return b.S.Get(key) }

// Delete implements Backend.
func (b pktStore[T]) Delete(key []byte) (bool, error) { return b.S.Delete(key) }

// Range implements Backend.
func (b pktStore[T]) Range(start, end []byte, limit int) ([]kvproto.KV, error) {
	recs, err := b.S.Range(start, end, limit)
	if err != nil {
		return nil, err
	}
	out := make([]kvproto.KV, len(recs))
	for i, rec := range recs {
		out[i] = kvproto.KV{Key: rec.Key, Value: rec.Value}
	}
	return out, nil
}
