// Package core implements the paper's proposal: packets as persistent
// in-memory data structures.
//
// A Store lays a PM region out as a superblock, an array of fixed-size
// persistent packet-metadata slots, and a data area that doubles as the
// NIC's receive buffer pool (the PASTE configuration). A stored value IS
// the received packet bytes, in place: the NIC DMAs the request into the
// data area, the server flushes those lines, and commit is a metadata
// slot describing where the key and value extents live — no allocation in
// a storage-stack allocator, no data copy, and, when checksum reuse is
// on, no integrity pass over the data, because the NIC already verified
// the TCP checksum and exported the payload's ones-complement partial
// sum, which combines and subtracts algebraically into a per-extent
// value checksum (§4.2 of the paper).
//
// The metadata slot is deliberately compact (two cache lines by default,
// §5.1): magic, commit sequence, NIC hardware timestamp, value checksum,
// key prefix, 32 reserved bytes, and up to two inline value extents with
// a chain for more; one CRC32C covers all of it plus the key bytes. The
// slots are the store's only persistent structure and its source of
// truth. The index — a skip list ordered by key whose nodes are the
// slots' 64-byte DRAM entries (index.go) — is volatile: nothing of it is
// written to PM, and recovery rebuilds it by scanning the slot array for
// committed slots.
//
// Crash-consistency protocol: puts are staged, then committed as a
// group (a per-op put is a group of one). Staging writes the data
// lines, key bytes, chain slots and the uncommitted (seq=0) slot image,
// publishes the record's descriptor and links its slot's entry into the
// index, and accumulates every dirty range in a pmem.FlushSet. Commit
// then runs three phases, each one deduplicated flush batch plus one
// fence:
//
//	A: images + data + keys + chains      -> FlushBatch, Fence
//	B: seq words (8-byte atomic commits)  -> FlushBatch, Fence
//	C: old versions' seq words cleared    -> FlushBatch, Fence (only on
//	                                         overwrites)
//
// A crash between any two phases either loses the whole group (never
// acknowledged: acks are withheld until the B fence) or recovers a
// committed subset by scan, and recovery's same-key dedup (keep highest
// seq) makes any subset consistent. A delete clears the commit word and
// fences it, then unlinks the descriptor, so a crash can never resurrect
// a deleted key.
package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"packetstore/internal/pkt"
	"packetstore/internal/pmem"
)

// Geometry constants.
const (
	superblockSize = 4096
	slotMagic      = 0x656d4b50 // "PKme"
	chainMagic     = 0x74784b50 // "PKxt"
	// sbMagic's last byte is the slot-format version: '2' put [48,80)
	// under the slot CRC, so a '1' image is refused rather than opened
	// with every record quarantined.
	sbMagic = 0x32524f54534b5250 // "PKSTOR1" + '2'

	maxHeight   = 8
	minSlotSize = 128

	// Slot field offsets.
	oMagic    = 0
	oFlags    = 4
	oExtCnt   = 7
	oSeq      = 8
	oHWTime   = 16
	oVCsum    = 24
	oKLen     = 28
	oKPrefix  = 32
	oKOff     = 40
	oVLen     = 44
	oReserved = 48 // [48,80): zero
	oExt      = 80 // 2 * {off,len,sum u32}
	oChain    = 104

	extSize       = 12
	inlineExtents = 2
	chainExtents  = 9
	oChainCnt     = 4
	oChainExt     = 8
	oChainNext    = 116

	// oSlotSum holds a CRC32C over the whole image prefix [0, oSlotSum) —
	// including the commit sequence the slot will carry once committed —
	// plus, for record slots, the key bytes. Recovery rejects — and
	// quarantines — any committed slot whose stored sum does not match,
	// so a flipped bit in the commit word itself, or a stale slot
	// "resurrected" by a bit flip after its word was cleared, fails
	// validation too.
	oSlotSum = 120

	// Superblock field offsets.
	sbOMagic     = 0
	sbOMetaBase  = 16
	sbOMetaSlots = 24
	sbOSlotSize  = 32
	sbODataBase  = 40
	sbODataSlots = 48
	sbOBufSize   = 56
)

// Errors.
var (
	ErrFull       = errors.New("pktstore: out of metadata or data slots")
	ErrKeyTooLong = errors.New("pktstore: key exceeds 64KB")
	ErrCorrupt    = errors.New("pktstore: corrupt store")
	// ErrShardDown marks an operation routed to a quarantined shard: its
	// recovery or verification failed, so it is fenced off while the rest
	// of the store keeps serving. Errors carry the shard index and reason;
	// match with errors.Is.
	ErrShardDown = errors.New("pktstore: shard quarantined")
)

// slotCRCTable is the Castagnoli polynomial, the same one iSCSI/ext4 use
// for metadata integrity (hardware CRC32C on amd64/arm64).
var slotCRCTable = crc32.MakeTable(crc32.Castagnoli)

// chainSum is the integrity checksum of an extent-chain slot: every chain
// field lives in [0, oSlotSum), and chain slots are never mutated after
// they persist, so the whole prefix is covered.
func chainSum(img []byte) uint32 {
	return crc32.Update(0, slotCRCTable, img[:oSlotSum])
}

// slotSum is a record slot's integrity checksum: the same prefix pass,
// continued over the key bytes, so a flipped bit in the metadata or the
// key itself is caught at recovery. Put computes it with the record's
// future commit sequence stamped into the image (the sequence is
// assigned before the image is built), so the sum stored with the
// uncommitted image already matches the committed slot.
func slotSum(img, key []byte) uint32 {
	return crc32.Update(chainSum(img), slotCRCTable, key)
}

// Config tunes a Store.
type Config struct {
	// MetaSlots is the number of persistent packet-metadata slots.
	MetaSlots int
	// SlotSize is the metadata slot size in bytes (>= 128; ablation E7
	// studies 128 vs 256).
	SlotSize int
	// DataSlots and DataBufSize shape the data area / NIC receive pool.
	DataSlots   int
	DataBufSize int
	// ChecksumReuse accepts NIC-provided partial sums instead of
	// computing CRC-style integrity sums in software (ablation E3).
	ChecksumReuse bool
	// VerifyOnGet recomputes and checks the value checksum on every read.
	VerifyOnGet bool
	// ParityGroup groups a ShardedStore's shards into RAID-5-style parity
	// groups of up to this many members, each backed by one parity
	// partition that makes single-member data-area loss survivable. 0 or
	// 1 disables parity (no layout or behaviour change); plain Stores and
	// single-shard stores ignore it. Requires SlotSize and DataBufSize to
	// be multiples of the cache-line size.
	ParityGroup int
	// Breakdown collects per-phase put timings (Breakdown()). Off by
	// default: the clock reads (4+ per put) are measurable against a
	// ~1µs operation, so only the E-series breakdown runs pay for them.
	Breakdown bool
	// LockedReads disables the lock-free GET fast path (fastget.go),
	// forcing every read through the store mutex. It exists as the A/B
	// baseline knob for the E14 read-mix benchmark; production
	// configurations leave it false.
	LockedReads bool
}

func (c *Config) fill() {
	if c.MetaSlots == 0 {
		c.MetaSlots = 4096
	}
	if c.SlotSize == 0 {
		c.SlotSize = minSlotSize
	}
	if c.SlotSize < minSlotSize {
		panic("pktstore: slot size below minimum")
	}
	if c.DataSlots == 0 {
		c.DataSlots = 4096
	}
	if c.DataBufSize == 0 {
		c.DataBufSize = 2048
	}
}

// RegionSize returns the PM region size the configuration needs.
func (c Config) RegionSize() int {
	cc := c
	cc.fill()
	return superblockSize + cc.MetaSlots*cc.SlotSize + cc.DataSlots*cc.DataBufSize
}

// Extent locates value bytes in the data area, with their unfolded
// Internet-checksum partial sum.
type Extent struct {
	Off int
	Len int
	Sum uint32
}

// Stats counts store operations.
type Stats struct {
	Puts, Gets, Deletes, Ranges uint64
	Hits                        uint64
	ChecksumReused              uint64
	ChecksumComputed            uint64
	BytesStored                 uint64
	Records                     int
	// SlotsQuarantined counts metadata slots fenced off by recovery after
	// failing structural or checksum validation.
	SlotsQuarantined int
	// GroupCommits counts Commit calls that retired more than one staged
	// put under a single group fence; GroupedPuts counts the puts they
	// retired (GroupedPuts/GroupCommits is the achieved batch size).
	GroupCommits uint64
	GroupedPuts  uint64
	// ParityWrites counts parity lines folded and flushed on the write
	// path (the incremental redundancy cost); Reconstructions counts
	// records successfully re-materialised from parity, and
	// UnrecoverableSlots counts repair attempts that failed because the
	// loss exceeded the group's redundancy.
	ParityWrites       uint64
	Reconstructions    uint64
	UnrecoverableSlots uint64
	// SlotsHeld gauges data slots currently fenced for media damage.
	SlotsHeld int
	// FastGets counts reads served entirely by the lock-free fast path
	// (hits and validated misses). FastGetRetries counts optimistic
	// attempts discarded by a mid-read sequence change; FastGetFallbacks
	// counts reads that conceded to the locked slow path (see the
	// fallback taxonomy in fastget.go). Gets = FastGets + fallbacks'
	// locked completions.
	FastGets         uint64
	FastGetRetries   uint64
	FastGetFallbacks uint64
}

// Breakdown accumulates per-phase put time for the Table 2 reproduction.
type Breakdown struct {
	Ops      uint64
	Parse    time.Duration // reserved for server-side accounting
	Checksum time.Duration // software checksum when reuse is off
	Copy     time.Duration // data copies (copy-path puts only)
	Alloc    time.Duration // slot allocation (volatile free lists)
	Meta     time.Duration // slot image construction + search + link
	Flush    time.Duration // cache-line write-backs and fences
}

// dataState is the volatile ownership state of one data slot.
type dataState struct {
	// refs is -1 while the NIC pool owns the slot, else the number of
	// records referencing it (guarded by Store.mu).
	refs int32
	// pins counts external borrows of a store-owned slot — transmit pins
	// (PinExtents), the server's key arena, and lock-free readers mid-copy
	// — separately from record references. An online rebuild (Rehydrate)
	// recomputes refs from the slot scan but preserves pins: the borrowers
	// still hold offsets into those slots, and their releases decrement
	// this counter unconditionally, so a slot re-admits to the pool the
	// moment both counts drain instead of leaking forever. Atomic because
	// the fast read path pins and unpins without the store mutex.
	pins atomic.Int32
	// recycleWanted marks a slot whose recycle a mutator deferred because
	// a lock-free reader held a pin: the final unpinner re-enters the lock
	// and completes it (unpinFast).
	recycleWanted atomic.Bool
	// held marks confirmed media damage (a value checksum failed over the
	// slot's bytes): it is never returned to the NIC pool when its counts
	// drain — the fault could recur and eat the next record too. The
	// fence survives online rebuilds; only a process restart (which
	// rebuilds volatile state from scratch) forgets it.
	held bool
}

// Store is the packetstore. A Store occupies [base, base+RegionSize())
// of its region; a ShardedStore lays several Stores side by side in one
// region, each with its own allocators, index and commit sequence.
type Store struct {
	mu sync.Mutex
	// pm is the store's persist-domain handle: every PM access goes
	// through it, so the store takes only its own partition's lock,
	// fences only what it flushed, and is billed as the NUMA node stamped
	// on it. A lone Store drives the region's default domain.
	pm  *pmem.Domain
	cfg Config

	base     int // region offset of this store's superblock
	metaBase int
	dataBase int

	pool     *pkt.Pool // data-area packet pool (shared with the NIC)
	metaFree []int32   // free metadata slot indices; int32 halves what every open allocates
	// meta is the per-slot entry table (index.go), in chunks of
	// metaChunk entries allocated on first touch.
	meta  []atomic.Pointer[metaChunkArr]
	data  []dataState
	seq   uint64
	count int
	// quarantined counts committed slots that failed validation during
	// recovery. They are fenced off: never served, never handed out for
	// reuse (the corruption may be a media fault that would recur).
	quarantined int
	// epoch increments on every Rehydrate. It is the acked-write gate:
	// a rebuild drops staged-but-unacked puts, so a server that buffered
	// acks against staged records compares the epoch it saw before
	// staging with the epoch after Commit — a mismatch means the staged
	// group may have been dropped and the buffered acks must not escape.
	epoch uint64
	// onQuarantine, when set, observes each slot the scan fences off
	// (test hook; per-store so parallel tests race-freely install their
	// own observers).
	onQuarantine func(slot int, err error)

	// parity is this store's parity-group runtime (nil when redundancy is
	// off). Attached once after open, immutable afterwards.
	parity *parityRT
	// parityFold is applyParityLocked's reusable span batch (guarded by
	// mu, like every commit-path scratch).
	parityFold []pmem.XorSpan
	// scrubPass is the scrubber's current sweep generation (starts at 1
	// so a metaState stamp of 0 always means "never validated").
	scrubPass uint32

	rng   *rand.Rand
	stats Stats
	bd    Breakdown

	// Group-persist state: staged lists puts whose slot images are written
	// and whose descriptors are linked (visible to readers) but whose
	// commit words are not yet stamped; fs accumulates their dirty lines
	// for the group flush. Both live under mu; every read/delete/sync
	// entry point commits the pending group first, so staged state never
	// escapes the batch that created it. stagedN shadows len(staged)
	// atomically so the lock-free read path can honor the commit barrier
	// without the lock.
	staged  []prepared
	stagedN atomic.Int32
	fs      pmem.FlushSet

	// --- the index and its seqlock (index.go, fastget.go, DESIGN §5.13) ---

	// mutSeq is the store's seqlock word: even = stable, odd = a
	// mutation bracket is open. mutDepth (under mu) nests brackets.
	mutSeq   atomic.Uint64
	mutDepth int
	// oddHot is a leaky gauge of recent open-bracket sightings: +2 per
	// odd snapshot, -1 per even one. Readers consult it to decide
	// whether an open bracket is worth a yield-and-retry (read-mostly
	// traffic, gauge near zero) or an immediate concession to the lock
	// (sustained write pressure, gauge pinned high).
	oddHot atomic.Int32
	// head is the index's head node: only its links are used, the first
	// entry per level (slot index + 1, 0 = nil). Written under mu inside
	// mutation brackets, read with plain atomic loads by lock-free GETs.
	head metaState
	// Read-side counters, atomic so the fast path can count without the
	// lock; Stats() merges them into the snapshot.
	gets             atomic.Uint64
	hits             atomic.Uint64
	fastGets         atomic.Uint64
	fastGetRetries   atomic.Uint64
	fastGetFallbacks atomic.Uint64
}

// SetNUMANode declares which NUMA node the core currently driving this
// store runs on — the serving event loop stamps its own node at cycle
// start when it owns the shard, the thief's during a stolen cycle — by
// stamping the store's PM handle. Unstamped handles are node 0, which
// keeps Nodes=1 deployments on the pre-NUMA charge arithmetic.
func (s *Store) SetNUMANode(n int) { s.pm.SetNode(n) }

// Open formats (fresh region) or recovers (existing) a Store over r.
func Open(r *pmem.Region, cfg Config) (*Store, error) {
	return openAt(&r.Domain, cfg, 0)
}

// openAt opens a Store whose superblock starts at base within pm's
// region and which drives PM through pm (shard layouts place several
// stores in one region, each on its own carved domain).
func openAt(pm *pmem.Domain, cfg Config, base int) (*Store, error) {
	cfg.fill()
	r := pm.Region()
	if base+cfg.RegionSize() > r.Size() {
		return nil, fmt.Errorf("pktstore: region %d bytes, need %d at base %d", r.Size(), cfg.RegionSize(), base)
	}
	s := &Store{
		pm: pm, cfg: cfg,
		base:     base,
		metaBase: base + superblockSize,
		rng:      rand.New(rand.NewSource(0x9e3779b9)),
	}
	s.dataBase = s.metaBase + cfg.MetaSlots*cfg.SlotSize
	s.meta = make([]atomic.Pointer[metaChunkArr], (cfg.MetaSlots+metaChunk-1)/metaChunk)
	s.data = make([]dataState, cfg.DataSlots)
	for i := range s.data {
		s.data[i].refs = -1
	}
	s.scrubPass = 1
	s.pool = pkt.NewPMPool(r, s.dataBase, cfg.DataBufSize, cfg.DataSlots)

	switch magic := pm.ReadUint64(base + sbOMagic); magic {
	case sbMagic:
		if err := s.validateSuperblock(); err != nil {
			return nil, err
		}
		if err := s.recover(); err != nil {
			return nil, err
		}
		return s, nil
	case 0:
		s.format()
		return s, nil
	default:
		// Neither our magic nor a fresh (zeroed) device: formatting here
		// would silently destroy whatever the region holds.
		return nil, fmt.Errorf("%w: unrecognized superblock magic %#x (refusing to format over existing data)", ErrCorrupt, magic)
	}
}

// Pool returns the data-area packet pool; the NIC uses it as its receive
// pool so request payloads land directly in the store's persistent data
// area.
func (s *Store) Pool() *pkt.Pool { return s.pool }

// Region returns the backing PM region.
func (s *Store) Region() *pmem.Region { return s.pm.Region() }

// Len returns the number of live records.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.count
}

// Stats returns a snapshot of operation counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Gets = s.gets.Load()
	st.Hits = s.hits.Load()
	st.FastGets = s.fastGets.Load()
	st.FastGetRetries = s.fastGetRetries.Load()
	st.FastGetFallbacks = s.fastGetFallbacks.Load()
	st.Records = s.count
	st.SlotsQuarantined = s.quarantined
	for i := range s.data {
		if s.data[i].held {
			st.SlotsHeld++
		}
	}
	return st
}

// Quarantined reports how many metadata slots recovery fenced off as
// corrupt.
func (s *Store) Quarantined() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.quarantined
}

// Sync commits any staged puts, then writes the region's durable image
// to its backing file, if any.
func (s *Store) Sync() error {
	s.mu.Lock()
	s.commitStagedLocked()
	s.mu.Unlock()
	return s.pm.Region().Sync()
}

// Close commits staged puts, syncs the backing region and releases its
// file. The error surfaces write failures that would otherwise silently
// lose the durable image on file-backed deployments.
func (s *Store) Close() error {
	s.mu.Lock()
	s.commitStagedLocked()
	s.mu.Unlock()
	return s.pm.Region().Close()
}

// Breakdown returns cumulative put-phase timings.
func (s *Store) Breakdown() Breakdown {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bd
}

// ResetBreakdown zeroes the phase timings.
func (s *Store) ResetBreakdown() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.bd = Breakdown{}
}

func (s *Store) format() {
	s.writeSuperblock()
	s.metaFree = make([]int32, 0, s.cfg.MetaSlots)
	for i := s.cfg.MetaSlots - 1; i >= 0; i-- {
		s.metaFree = append(s.metaFree, int32(i))
	}
}

// writeSuperblock (re)writes the superblock from the configured geometry —
// formatting a fresh store, or repairing a damaged superblock during an
// online rebuild (the geometry is config-derived, so nothing in the
// superblock is unrecoverable state).
func (s *Store) writeSuperblock() {
	r := s.pm
	zero := make([]byte, superblockSize)
	r.Write(s.base, zero)
	r.WriteUint64(s.base+sbOMetaBase, uint64(s.metaBase))
	r.WriteUint64(s.base+sbOMetaSlots, uint64(s.cfg.MetaSlots))
	r.WriteUint64(s.base+sbOSlotSize, uint64(s.cfg.SlotSize))
	r.WriteUint64(s.base+sbODataBase, uint64(s.dataBase))
	r.WriteUint64(s.base+sbODataSlots, uint64(s.cfg.DataSlots))
	r.WriteUint64(s.base+sbOBufSize, uint64(s.cfg.DataBufSize))
	r.WriteUint64(s.base+sbOMagic, sbMagic)
	r.Persist(s.base, superblockSize)
}

// validateSuperblock checks the magic and geometry words against the
// configuration. The words are read in one range-locked copy, so a probe
// running beside a media fault (CheckSuperblock vs injection) sees them
// before or after it, never torn.
func (s *Store) validateSuperblock() error {
	var sb [sbOBufSize + 8]byte
	s.pm.CopyOut(sb[:], s.base)
	word := func(o int) int { return int(binary.LittleEndian.Uint64(sb[o:])) }
	if m := uint64(word(sbOMagic)); m != sbMagic {
		return fmt.Errorf("%w: superblock magic %#x", ErrCorrupt, m)
	}
	if word(sbOMetaBase) != s.metaBase ||
		word(sbOMetaSlots) != s.cfg.MetaSlots ||
		word(sbOSlotSize) != s.cfg.SlotSize ||
		word(sbODataBase) != s.dataBase ||
		word(sbODataSlots) != s.cfg.DataSlots ||
		word(sbOBufSize) != s.cfg.DataBufSize {
		return fmt.Errorf("%w: geometry mismatch with configuration", ErrCorrupt)
	}
	return nil
}

// --- slot accessors (idx is a slot index) ---

func (s *Store) slotOff(idx int) int { return s.metaBase + idx*s.cfg.SlotSize }

func (s *Store) slot(idx int) []byte { return s.pm.Slice(s.slotOff(idx), s.cfg.SlotSize) }

// slotKey reads a slot's key bytes from the data area.
func (s *Store) slotKey(sl []byte) []byte {
	klen := int(binary.LittleEndian.Uint32(sl[oKLen:]))
	koff := int(binary.LittleEndian.Uint32(sl[oKOff:]))
	return s.pm.Slice(koff, klen)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// dataSlotIndex maps a region offset into the data area to its slot.
func (s *Store) dataSlotIndex(off int) int {
	d := off - s.dataBase
	if d < 0 || d >= s.cfg.DataSlots*s.cfg.DataBufSize {
		panic("pktstore: offset outside data area")
	}
	return d / s.cfg.DataBufSize
}

// AdoptBuf transfers a PM-pool packet buffer's data slot from the NIC
// pool to the store (refcount 0 until a record references it). It returns
// the slot's base offset. The kvserver adopts each received buffer whose
// bytes may become stored data, then calls ReleaseUnused when done
// parsing.
func (s *Store) AdoptBuf(b *pkt.Buf) int {
	base := s.pool.TakeOver(b)
	s.mu.Lock()
	idx := s.dataSlotIndex(base)
	s.data[idx].refs = 0
	s.mu.Unlock()
	return base
}

// ReleaseUnused returns an adopted data slot to the pool if no record
// ended up referencing it (e.g. the packet held only GET requests) and
// no external pin borrows it.
func (s *Store) ReleaseUnused(base int) {
	s.mu.Lock()
	idx := s.dataSlotIndex(base)
	unused := s.data[idx].refs == 0 && s.data[idx].pins.Load() == 0 && !s.data[idx].held
	if unused {
		s.data[idx].refs = -1
	}
	s.mu.Unlock()
	if unused {
		s.pool.ReturnSlot(base)
	}
}

func (s *Store) refDataLocked(off int) {
	idx := s.dataSlotIndex(off)
	if s.data[idx].refs < 0 {
		panic("pktstore: referencing data in an unadopted slot")
	}
	s.data[idx].refs++
}

func (s *Store) unrefDataLocked(off int) {
	idx := s.dataSlotIndex(off)
	s.data[idx].refs--
	s.maybeRecycleLocked(idx)
}

// maybeRecycleLocked returns a store-owned data slot to the NIC pool
// once nothing refers to it: no record references, no external pins,
// and no media-damage fence.
func (s *Store) maybeRecycleLocked(idx int) {
	if s.data[idx].refs != 0 || s.data[idx].held {
		return
	}
	if s.data[idx].pins.Load() != 0 {
		// A lock-free reader still borrows the slot. Publish the recycle
		// intent and re-check: sequential consistency guarantees either
		// this load sees the pin drain, or the final unpinner sees the
		// intent and re-enters the lock to finish the recycle (unpinFast)
		// — the slot cannot leak.
		s.data[idx].recycleWanted.Store(true)
		if s.data[idx].pins.Load() != 0 {
			return
		}
	}
	s.data[idx].recycleWanted.Store(false)
	s.data[idx].refs = -1
	s.pool.ReturnSlot(s.dataBase + idx*s.cfg.DataBufSize)
}

// PinExtents borrows every data slot an extent list touches — used to
// lend stored data to the transport for zero-copy transmission, and by
// the server to hold its key arena open. Pins are counted separately
// from record references and survive an online rebuild (the borrower
// still holds offsets into the slot), so the returned release function
// always drops them — a slot re-admits to the pool once both counts
// drain, no matter how many rebuilds happened in between. Safe to call
// from packet-buffer fragment hooks.
func (s *Store) PinExtents(exts []Extent) func() {
	s.mu.Lock()
	for _, e := range exts {
		idx := s.dataSlotIndex(e.Off)
		if s.data[idx].refs < 0 {
			panic("pktstore: pinning data in an unadopted slot")
		}
		s.data[idx].pins.Add(1)
	}
	s.mu.Unlock()
	var once sync.Once
	return func() {
		once.Do(func() {
			s.mu.Lock()
			for _, e := range exts {
				idx := s.dataSlotIndex(e.Off)
				s.data[idx].pins.Add(-1)
				s.maybeRecycleLocked(idx)
			}
			s.mu.Unlock()
		})
	}
}

// Epoch returns the store's rebuild generation: it advances on every
// Rehydrate, which drops staged-but-uncommitted puts. A server that
// buffers acks against staged records snapshots the epoch before
// staging and re-checks it after Commit; a change means the group may
// have been dropped and those acks must not be flushed.
func (s *Store) Epoch() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.epoch
}

// Slice exposes data-area bytes (zero-copy read path).
func (s *Store) Slice(off, n int) []byte { return s.pm.Slice(off, n) }

// AllocDataSlot reserves a data slot for store-side use (for example the
// server's key arena) and marks it adopted with zero references. It
// returns -1 when the data area is exhausted. Pair with ReleaseUnused (or
// let record references recycle it).
func (s *Store) AllocDataSlot() int {
	off := s.pool.Slab().Alloc()
	if off < 0 {
		return -1
	}
	s.mu.Lock()
	idx := s.dataSlotIndex(off)
	s.data[idx].refs = 0
	s.mu.Unlock()
	return off
}

// WriteData writes bytes into the data area (key-arena writes). It takes
// no store lock, so their modelled PM time stays owed until the put they
// belong to pays it as its mutation bracket closes.
func (s *Store) WriteData(off int, b []byte) { s.pm.Write(off, b) }

// DataBufSize returns the data slot size.
func (s *Store) DataBufSize() int { return s.cfg.DataBufSize }
