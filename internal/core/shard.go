package core

import (
	"bytes"
	"fmt"
	"sync"

	"packetstore/internal/pkt"
	"packetstore/internal/pmem"
)

// shardAlign keeps every shard's superblock page-aligned so no cache
// line is shared between shards (independent flush/fence streams).
const shardAlign = 4096

// ShardOf maps a key to its owning shard: FNV-1a over the key bytes,
// folded onto the shard set. The kvserver's per-queue loops, the NIC RSS
// steering and aligned clients all use this one function — the
// hash-alignment invariant documented in DESIGN.md §5.7 holds only if
// every layer routes with ShardOf.
func ShardOf(key []byte, shards int) int {
	if shards <= 1 {
		return 0
	}
	h := uint32(2166136261)
	for _, b := range key {
		h ^= uint32(b)
		h *= 16777619
	}
	return int(h % uint32(shards))
}

// shardStride returns the per-shard region footprint.
func shardStride(cfg Config) int {
	return (cfg.RegionSize() + shardAlign - 1) &^ (shardAlign - 1)
}

// ShardedRegionSize returns the PM region size shards copies of cfg
// need when laid side by side, plus the parity partitions appended
// after them when Config.ParityGroup enables redundancy.
func ShardedRegionSize(cfg Config, shards int) int {
	if shards <= 1 {
		shards = 1
	}
	cc := cfg
	cc.fill()
	return shards*shardStride(cc) + len(parityGroups(cc, shards))*parityStride(cc)
}

// ShardedStore partitions a PM region into independent Stores — each
// with its own slab allocators, index, commit sequence and mutex — and
// routes operations by key hash. With a single shard it is a
// transparent wrapper: the layout and behaviour are bit-for-bit those
// of a plain Store.
type ShardedStore struct {
	r      *pmem.Region
	cfg    Config
	stride int
	doms   []*pmem.Domain // each shard's persist-domain handle

	// mu guards shards/down/parked/rebuilding: a shard can be quarantined
	// at runtime (nil entry + reason) while the others keep serving, and
	// later rebuilt online and re-admitted.
	mu     sync.RWMutex
	shards []*Store
	down   []error // per shard: non-nil reason when quarantined
	// parked holds a quarantined shard's Store object so Rebuild can
	// rehydrate it in place — same object, same packet pool, so the NIC's
	// receive wiring survives quarantine and rejoin.
	parked []*Store
	// rebuilding marks shards with a rebuild in flight (still down, but a
	// second rebuild must not race the first).
	rebuilding []bool

	// owners is the per-shard serialisation handle: the goroutine holding
	// owners[i] has the exclusive right to stage writes into shard i and
	// to group-commit what it staged. The token is indexed by shard, not
	// by Store object, so it survives quarantine and rebuild — whichever
	// goroutine drives a shard (its home event loop or a stealer) must
	// hold the token across its stage/commit window. Reads need no token:
	// every Store read takes the shard's own mutex and self-barriers
	// (commits any open staged group) before serving.
	owners []sync.Mutex

	// notifyMu guards notify; notify (if set) is invoked, outside ss.mu,
	// after each serving->down transition — the healer's push wakeup.
	notifyMu sync.Mutex
	notify   func(shard int, reason error)

	// parity holds each shard's parity-group runtime (nil slice when
	// redundancy is off). Built once by initParity, immutable afterwards;
	// Rebuild re-attaches entries to freshly opened Stores.
	parity []*parityRT

	// NUMA placement (SetNUMAPlacement): socket count and each shard's
	// home node. Written once before serving, read-only afterwards.
	numaNodes int
	homeNodes []int
}

// OpenSharded formats or recovers a ShardedStore of shards partitions
// over r. Each shard gets an independent copy of cfg's geometry.
// Recovery scans all shards in parallel: each partition's metadata scan
// and index rebuild is independent, so post-crash restart time scales
// with the largest shard, not the sum.
//
// Graceful degradation: in a multi-shard store, a shard whose recovery
// fails is quarantined (its keyspace answers ErrShardDown) rather than
// failing the whole open; only a single-shard store, or all shards
// failing, makes Open return an error.
func OpenSharded(r *pmem.Region, cfg Config, shards int) (*ShardedStore, error) {
	if shards <= 0 {
		shards = 1
	}
	cc := cfg
	cc.fill()
	// Each shard's event loop is its own simulated core, driving PM
	// through the shard's own persist domain — a lone shard through the
	// default one, so a region of exactly cfg.RegionSize() still opens.
	r.SetCores(shards)
	ss := &ShardedStore{
		r: r, cfg: cc, stride: shardStride(cc), doms: []*pmem.Domain{&r.Domain},
		shards:     make([]*Store, shards),
		down:       make([]error, shards),
		parked:     make([]*Store, shards),
		rebuilding: make([]bool, shards),
		owners:     make([]sync.Mutex, shards),
	}
	if shards > 1 {
		if need := ShardedRegionSize(cc, shards); need > r.Size() {
			return nil, fmt.Errorf("pktstore: region %d bytes, need %d for %d shards", r.Size(), need, shards)
		}
		ss.doms = make([]*pmem.Domain, shards)
		for i := range ss.doms { // every range before the concurrent opens below
			ss.doms[i] = r.Carve(i*ss.stride, ss.stride)
		}
	}
	var wg sync.WaitGroup
	errs := make([]error, shards)
	for i := 0; i < shards; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ss.shards[i], errs[i] = openAt(ss.doms[i], cc, i*ss.stride)
		}(i)
	}
	wg.Wait()
	downCount := 0
	for i, err := range errs {
		if err != nil {
			if shards == 1 {
				return nil, fmt.Errorf("shard %d: %w", i, err)
			}
			ss.shards[i] = nil
			ss.down[i] = err
			downCount++
		}
	}
	if downCount == shards {
		return nil, fmt.Errorf("all %d shards failed: %w", shards, errs[0])
	}
	ss.initParity()
	return ss, nil
}

// WrapSharded presents an existing single Store as a one-shard
// ShardedStore (servers use the sharded API uniformly).
func WrapSharded(s *Store) *ShardedStore {
	return &ShardedStore{
		r: s.pm.Region(), cfg: s.cfg, stride: shardStride(s.cfg), doms: []*pmem.Domain{s.pm},
		shards: []*Store{s}, down: make([]error, 1),
		parked: make([]*Store, 1), rebuilding: make([]bool, 1),
		owners: make([]sync.Mutex, 1),
	}
}

// Acquire blocks until the caller holds shard i's ownership token — the
// exclusive right to stage writes into the shard and group-commit them.
// The single-writer invariant of the event loops is carried by this
// token alone: any goroutine may drive any shard, provided it wraps its
// stage/commit window in Acquire/Release.
func (ss *ShardedStore) Acquire(i int) { ss.owners[i].Lock() }

// TryAcquire takes shard i's ownership token without blocking,
// reporting whether it succeeded — the steal path's admission gate: a
// contended token means another loop is already driving the shard's
// mutations.
func (ss *ShardedStore) TryAcquire(i int) bool { return ss.owners[i].TryLock() }

// Release returns shard i's ownership token. The holder must have
// committed (or abandoned to a poisoned-cycle abort) everything it
// staged: the next holder's group must never interleave with this one.
func (ss *ShardedStore) Release(i int) { ss.owners[i].Unlock() }

// OnQuarantine installs fn to be called — outside the router's lock,
// from whichever goroutine quarantined the shard — after every
// serving->down transition. The healer registers here so a quarantine
// wakes it immediately instead of waiting out the scrub-probe cadence.
func (ss *ShardedStore) OnQuarantine(fn func(shard int, reason error)) {
	ss.notifyMu.Lock()
	ss.notify = fn
	ss.notifyMu.Unlock()
}

// Quarantine fences shard i off at runtime: a recovery rescan or a
// Verify scrub found it untrustworthy. Its keyspace answers ErrShardDown
// from then on; the other shards keep serving. Idempotent — the first
// reason wins. The Store object is parked, not discarded, so Rebuild can
// rehydrate it in place and re-admit it without disturbing the NIC's
// pool wiring.
func (ss *ShardedStore) Quarantine(i int, reason error) {
	if reason == nil {
		reason = ErrCorrupt
	}
	ss.mu.Lock()
	transitioned := ss.down[i] == nil
	if transitioned {
		ss.down[i] = reason
		ss.parked[i] = ss.shards[i]
		ss.shards[i] = nil
	}
	ss.mu.Unlock()
	if transitioned {
		ss.notifyMu.Lock()
		fn := ss.notify
		ss.notifyMu.Unlock()
		if fn != nil {
			fn(i, reason)
		}
	}
}

// Rebuild re-runs recovery on quarantined shard i's PM area while the
// other shards keep serving, and re-admits the shard atomically on
// success. A parked Store (runtime quarantine) is rehydrated in place —
// same object, same packet pool; a shard that never opened (boot-time
// failure) is retried with a fresh open. Returns nil if the shard is
// already serving. On failure the shard stays down with the rebuild
// error as its new reason; the supervisor retries with backoff.
func (ss *ShardedStore) Rebuild(i int) error {
	ss.mu.Lock()
	if ss.down[i] == nil {
		ss.mu.Unlock()
		return nil
	}
	if ss.rebuilding[i] {
		ss.mu.Unlock()
		return fmt.Errorf("pktstore: shard %d rebuild already in progress", i)
	}
	ss.rebuilding[i] = true
	st := ss.parked[i]
	ss.mu.Unlock()

	// The expensive part runs outside ss.mu: the other shards' routing
	// is never blocked by a rebuild.
	var err error
	var reconsBefore uint64
	if st != nil {
		reconsBefore = st.Stats().Reconstructions
		err = st.Rehydrate()
	} else {
		st, err = openAt(ss.doms[i], ss.cfg, i*ss.stride)
		if err == nil && ss.parity != nil {
			// A fresh open recovers without parity attached (slots whose CRC
			// fails are fenced, not repaired). Attach the group runtime and,
			// if anything was fenced, run the reconstruction pass over it.
			st.mu.Lock()
			st.parity = ss.parity[i]
			st.mu.Unlock()
			if st.Quarantined() > 0 {
				err = st.Rehydrate()
			}
		}
	}

	if err == nil && st.Stats().Reconstructions > reconsBefore {
		// The rescan had to repair records, so the member's data area lost
		// content — including free-space bytes the rescan does not restore.
		// Re-derive the group's parity from what the members hold now.
		ss.resyncGroupParity(st)
	}

	ss.mu.Lock()
	defer ss.mu.Unlock()
	ss.rebuilding[i] = false
	if err != nil {
		ss.down[i] = fmt.Errorf("rebuild failed: %w", err)
		return err
	}
	ss.shards[i] = st
	ss.parked[i] = nil
	ss.down[i] = nil
	return nil
}

// ShardStatus is one shard's serving state for health reporting.
type ShardStatus struct {
	// State is "serving", "rebuilding" or "down".
	State string
	// Reason is the quarantine reason for a non-serving shard.
	Reason string
}

// States snapshots every shard's serving state — the health endpoint's
// data source.
func (ss *ShardedStore) States() []ShardStatus {
	ss.mu.RLock()
	defer ss.mu.RUnlock()
	out := make([]ShardStatus, len(ss.down))
	for i := range ss.down {
		switch {
		case ss.down[i] == nil:
			out[i].State = "serving"
		case ss.rebuilding[i]:
			out[i].State = "rebuilding"
			out[i].Reason = ss.down[i].Error()
		default:
			out[i].State = "down"
			out[i].Reason = ss.down[i].Error()
		}
	}
	return out
}

// ServingStore returns shard i's Store when it is serving, or the typed
// ErrShardDown explaining why it is not — one lock round trip for
// callers that need both (the event loops' per-request gate).
func (ss *ShardedStore) ServingStore(i int) (*Store, error) {
	ss.mu.RLock()
	defer ss.mu.RUnlock()
	if err := ss.shardErrLocked(i); err != nil {
		return nil, err
	}
	return ss.shards[i], nil
}

// Health returns per-shard status: nil for a serving shard, the
// quarantine reason for a down one.
func (ss *ShardedStore) Health() []error {
	ss.mu.RLock()
	defer ss.mu.RUnlock()
	out := make([]error, len(ss.down))
	copy(out, ss.down)
	return out
}

// DownShards counts quarantined shards.
func (ss *ShardedStore) DownShards() int {
	ss.mu.RLock()
	defer ss.mu.RUnlock()
	n := 0
	for _, e := range ss.down {
		if e != nil {
			n++
		}
	}
	return n
}

// ShardErr returns nil when shard i is serving, or its typed
// ErrShardDown (carrying index and reason) when quarantined.
func (ss *ShardedStore) ShardErr(i int) error {
	ss.mu.RLock()
	defer ss.mu.RUnlock()
	return ss.shardErrLocked(i)
}

func (ss *ShardedStore) shardErrLocked(i int) error {
	if ss.down[i] == nil {
		return nil
	}
	return fmt.Errorf("%w: shard %d: %v", ErrShardDown, i, ss.down[i])
}

// storeOr resolves key's shard, or the ErrShardDown explaining why it
// cannot serve.
func (ss *ShardedStore) storeOr(key []byte) (*Store, error) {
	i := ShardOf(key, ss.shardCount())
	ss.mu.RLock()
	defer ss.mu.RUnlock()
	if err := ss.shardErrLocked(i); err != nil {
		return nil, err
	}
	return ss.shards[i], nil
}

// shardCount returns the partition count (fixed at open; no lock
// needed for the length itself).
func (ss *ShardedStore) shardCount() int { return len(ss.down) }

// Shards returns the shard count (serving or not).
func (ss *ShardedStore) Shards() int { return ss.shardCount() }

// Shard returns shard i's Store, or nil if it is quarantined.
func (ss *ShardedStore) Shard(i int) *Store {
	ss.mu.RLock()
	defer ss.mu.RUnlock()
	return ss.shards[i]
}

// ShardFor returns the index of the shard owning key.
func (ss *ShardedStore) ShardFor(key []byte) int { return ShardOf(key, ss.shardCount()) }

// StoreFor returns the Store owning key, or nil if that shard is
// quarantined (storeOr returns the typed error instead).
func (ss *ShardedStore) StoreFor(key []byte) *Store { return ss.Shard(ss.ShardFor(key)) }

// Region returns the backing PM region.
func (ss *ShardedStore) Region() *pmem.Region { return ss.r }

// Pools returns each shard's data-area packet pool, indexed by shard —
// the per-RSS-queue NIC receive pools of the aligned configuration. A
// quarantined shard's entry is nil; deployments that wire NIC queues to
// shard pools require every shard healthy (NewCluster checks).
func (ss *ShardedStore) Pools() []*pkt.Pool {
	ss.mu.RLock()
	defer ss.mu.RUnlock()
	pools := make([]*pkt.Pool, len(ss.shards))
	for i, s := range ss.shards {
		if s != nil {
			pools[i] = s.Pool()
		}
	}
	return pools
}

// ShardByOff maps a region offset (e.g. a DMA buffer's PMOff) to the
// shard whose partition contains it, or -1 if outside every partition.
func (ss *ShardedStore) ShardByOff(off int) int {
	if off < 0 {
		return -1
	}
	i := off / ss.stride
	if i >= len(ss.shards) {
		return -1
	}
	return i
}

// Put routes the copying write to the owning shard; a quarantined
// shard's keys answer ErrShardDown.
func (ss *ShardedStore) Put(key, value []byte) error {
	s, err := ss.storeOr(key)
	if err != nil {
		return err
	}
	return s.Put(key, value)
}

// PutExtents routes the zero-copy write to the owning shard. The
// extents and key must live in that shard's data area (the caller
// checks alignment; misaligned ingest takes Put).
func (ss *ShardedStore) PutExtents(key []byte, vlen int, opt PutOptions) error {
	s, err := ss.storeOr(key)
	if err != nil {
		return err
	}
	return s.PutExtents(key, vlen, opt)
}

// PutStaged routes the copying write to the owning shard's staging
// area; Commit makes all shards' staged puts durable.
func (ss *ShardedStore) PutStaged(key, value []byte) error {
	s, err := ss.storeOr(key)
	if err != nil {
		return err
	}
	return s.PutStaged(key, value)
}

// PutExtentsStaged routes the zero-copy write to the owning shard's
// staging area.
func (ss *ShardedStore) PutExtentsStaged(key []byte, vlen int, opt PutOptions) error {
	s, err := ss.storeOr(key)
	if err != nil {
		return err
	}
	return s.PutExtentsStaged(key, vlen, opt)
}

// Commit group-commits every serving shard's staged puts, in shard
// order (deterministic persist-op sequence for fault replay). Shards
// with nothing staged cost one mutex round trip.
func (ss *ShardedStore) Commit() {
	for _, s := range ss.serving() {
		s.Commit()
	}
}

// Get routes the read to the owning shard.
func (ss *ShardedStore) Get(key []byte) ([]byte, bool, error) {
	s, err := ss.storeOr(key)
	if err != nil {
		return nil, false, err
	}
	return s.Get(key)
}

// GetRef routes the zero-copy read to the owning shard.
func (ss *ShardedStore) GetRef(key []byte) (Ref, bool, error) {
	s, err := ss.storeOr(key)
	if err != nil {
		return Ref{}, false, err
	}
	return s.GetRef(key)
}

// Delete routes the delete to the owning shard.
func (ss *ShardedStore) Delete(key []byte) (bool, error) {
	s, err := ss.storeOr(key)
	if err != nil {
		return false, err
	}
	return s.Delete(key)
}

// serving snapshots the live shards (quarantined ones excluded).
func (ss *ShardedStore) serving() []*Store {
	ss.mu.RLock()
	defer ss.mu.RUnlock()
	out := make([]*Store, 0, len(ss.shards))
	for _, s := range ss.shards {
		if s != nil {
			out = append(out, s)
		}
	}
	return out
}

// Len sums live records across serving shards.
func (ss *ShardedStore) Len() int {
	n := 0
	for _, s := range ss.serving() {
		n += s.Len()
	}
	return n
}

// Stats aggregates per-shard counters over serving shards.
func (ss *ShardedStore) Stats() Stats {
	var out Stats
	for _, s := range ss.serving() {
		st := s.Stats()
		out.Puts += st.Puts
		out.Gets += st.Gets
		out.Deletes += st.Deletes
		out.Ranges += st.Ranges
		out.Hits += st.Hits
		out.ChecksumReused += st.ChecksumReused
		out.ChecksumComputed += st.ChecksumComputed
		out.BytesStored += st.BytesStored
		out.Records += st.Records
		out.SlotsQuarantined += st.SlotsQuarantined
		out.GroupCommits += st.GroupCommits
		out.GroupedPuts += st.GroupedPuts
		out.ParityWrites += st.ParityWrites
		out.Reconstructions += st.Reconstructions
		out.UnrecoverableSlots += st.UnrecoverableSlots
		out.SlotsHeld += st.SlotsHeld
		out.FastGets += st.FastGets
		out.FastGetRetries += st.FastGetRetries
		out.FastGetFallbacks += st.FastGetFallbacks
	}
	return out
}

// Breakdown aggregates per-shard put-phase timings.
func (ss *ShardedStore) Breakdown() Breakdown {
	var out Breakdown
	for _, s := range ss.serving() {
		bd := s.Breakdown()
		out.Ops += bd.Ops
		out.Parse += bd.Parse
		out.Checksum += bd.Checksum
		out.Copy += bd.Copy
		out.Alloc += bd.Alloc
		out.Meta += bd.Meta
		out.Flush += bd.Flush
	}
	return out
}

// Range merges the per-shard ordered walks into one globally ordered
// result of up to limit records with start <= key < end. Each shard is
// consulted for at most limit records, then the sorted runs are merged.
func (ss *ShardedStore) Range(start, end []byte, limit int) ([]Record, error) {
	// The hash split spreads every key range across all shards, so a
	// range over a store with a quarantined shard would silently omit
	// that shard's records — fail it explicitly instead.
	ss.mu.RLock()
	for i := range ss.down {
		if err := ss.shardErrLocked(i); err != nil {
			ss.mu.RUnlock()
			return nil, err
		}
	}
	shards := make([]*Store, len(ss.shards))
	copy(shards, ss.shards)
	ss.mu.RUnlock()
	if len(shards) == 1 {
		return shards[0].Range(start, end, limit)
	}
	if limit <= 0 {
		limit = 1 << 30
	}
	runs := make([][]Record, len(shards))
	for i, s := range shards {
		recs, err := s.Range(start, end, limit)
		if err != nil {
			return nil, err
		}
		runs[i] = recs
	}
	return mergeRuns(runs, limit), nil
}

// mergeRuns k-way merges sorted record runs (keys are unique across
// shards, so no tie-breaking is needed).
func mergeRuns(runs [][]Record, limit int) []Record {
	var out []Record
	heads := make([]int, len(runs))
	for len(out) < limit {
		best := -1
		for i := range runs {
			if heads[i] >= len(runs[i]) {
				continue
			}
			if best < 0 || bytes.Compare(runs[i][heads[i]].Key, runs[best][heads[best]].Key) < 0 {
				best = i
			}
		}
		if best < 0 {
			break
		}
		out = append(out, runs[best][heads[best]])
		heads[best]++
	}
	return out
}

// Verify scrubs every serving shard, returning all keys whose stored
// bytes fail their transport-derived checksum.
func (ss *ShardedStore) Verify() ([][]byte, error) {
	var bad [][]byte
	for _, s := range ss.serving() {
		b, err := s.Verify()
		if err != nil {
			return nil, err
		}
		bad = append(bad, b...)
	}
	return bad, nil
}

// VerifyShards scrubs each serving shard and quarantines any whose scrub
// errors or reports corrupt records. It returns the number of shards
// newly quarantined — the graceful-degradation entry point for periodic
// integrity sweeps.
func (ss *ShardedStore) VerifyShards() int {
	n := 0
	for i := 0; i < ss.shardCount(); i++ {
		s := ss.Shard(i)
		if s == nil {
			continue
		}
		bad, err := s.Verify()
		switch {
		case err != nil:
			ss.Quarantine(i, err)
			n++
		case len(bad) > 0:
			ss.Quarantine(i, fmt.Errorf("%w: %d records failed checksum scrub", ErrCorrupt, len(bad)))
			n++
		}
	}
	return n
}

// Sync commits all shards' staged puts, then writes the region's
// durable image to its backing file, if any.
func (ss *ShardedStore) Sync() error {
	ss.Commit()
	return ss.r.Sync()
}

// Close commits staged puts, syncs the backing region and releases its
// file, surfacing write errors instead of dropping them.
func (ss *ShardedStore) Close() error {
	ss.Commit()
	return ss.r.Close()
}
