// Package pmem simulates a byte-addressable persistent-memory device
// (Intel Optane DC PM in App-Direct mode, as used by the paper's testbed).
//
// The simulation models the two properties the experiments depend on:
//
//  1. Latency. Loads, stores and cache-line write-backs to PM cost more
//     than DRAM. A Region charges calibrated delays (internal/latency)
//     per cache line for reads, writes and flushes, per the profile it
//     was created with.
//
//  2. Persistence semantics. A store is NOT durable until the cache line
//     holding it has been written back (clwb/clflushopt, modelled by
//     Flush) and the write-back has been ordered by a fence (sfence,
//     modelled by Fence). A Region keeps one image of the device and,
//     for each line in flight — written since it was last durable, so
//     dirty or flushed-but-unfenced — a saved copy of its durable bytes,
//     taken by the first write that changes it. The durable image is
//     the saved copy where one exists and the volatile image elsewhere.
//     Flush moves dirty lines to a pending set; Fence makes the pending
//     set durable and drops its copies. Crash restores every saved copy
//     into the volatile image — flushed-but-unfenced lines survive with
//     50/50 probability per line, exactly the uncertainty window real
//     hardware exhibits — so crash-consistency bugs (missing flushes,
//     missing fences, wrong ordering) manifest as real data loss in
//     tests. The bookkeeping is per line in flight, not per byte of the
//     device.
//
// Every change to PM bytes goes through the Region: Write for the CPU,
// DMA for a device. Slice is a read view. A store through it would have
// no saved copy, so Crash could not take it back: writing through Slice
// is outside the model.
//
// A Region may be backed by a file, giving actual durability across
// process restarts for the CLI tools; the file holds the persisted image
// and is written on Sync and Close.
package pmem

import (
	"bytes"
	"errors"
	"fmt"
	"log"
	"math/bits"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"packetstore/internal/calib"
	"packetstore/internal/latency"
)

// LineSize is the cache-line granularity of flush operations, in bytes.
const LineSize = 64

// PersistOp identifies one durability-ordering operation on a Region, in
// issue order: every Flush and every Fence counts as one op. Fault plans
// index crash points by this count.
type PersistOp uint8

// Persist operations observed by a PersistHook.
const (
	OpFlush PersistOp = iota + 1
	OpFence
)

// PersistDecision is a fault plan's verdict on one persist operation.
type PersistDecision struct {
	// Cut simulates power loss at this operation: the operation and every
	// later Flush/Fence have no durable effect. The software under test
	// keeps running against the volatile image (harmlessly — the power is
	// already gone); the harness then calls Crash to discard it.
	Cut bool
	// TearBytes, with Cut at a Flush, persists only that prefix of the
	// first dirty line of the flushed range — a torn cache-line
	// write-back, the partial-line state real PM exposes when power dies
	// mid-write-back. 0 cuts cleanly. Values are clamped to LineSize-1.
	TearBytes int
	// Drop swallows this one operation and nothing else: the planted
	// protocol bug (a forgotten clwb or sfence) a crash sweep must catch.
	Drop bool
}

// PersistHook observes every Flush and Fence on a Region, whichever
// domain issues it, and may cut the power at any of them. It is called
// with every range lock of the region held (persist operations take them
// all while a hook is installed): it must decide from its own state only
// and must not call back into the Region.
type PersistHook func(op PersistOp) PersistDecision

// SetPersistHook installs (or, with nil, removes) a fault-injection hook
// consulted on every Flush and Fence. Crash removes the hook — the
// rebooted device persists normally again.
func (r *Region) SetPersistHook(h PersistHook) {
	r.lockAll()
	r.persistHook = h
	r.unlockAll()
}

// PowerFailed reports whether an installed hook has cut the power (and
// no Crash has rebooted the device yet). While failed, no Flush or Fence
// has any durable effect.
func (r *Region) PowerFailed() bool {
	r.Domain.mu.Lock()
	defer r.Domain.mu.Unlock()
	return r.failed
}

// Stats counts Region operations. Latencies are the emulated hardware
// delays charged; they are included in wall-clock measurements because
// charging spins — at the operation for a read, at the next stall point
// for a store or write-back (Domain.owe).
type Stats struct {
	Reads        uint64 // explicit charged reads (lines)
	Writes       uint64 // write calls
	BytesWritten uint64
	LinesFlushed uint64
	Flushes      uint64 // Flush + FlushBatch calls
	Fences       uint64
	// BatchFlushes counts FlushBatch calls (a subset of Flushes);
	// LinesCoalesced counts duplicate line references those batches
	// deduplicated away; WastedFlushes counts clwbs issued for lines
	// already in the flushed-but-unfenced window — redundant write-backs
	// a well-formed commit protocol never produces.
	BatchFlushes   uint64
	LinesCoalesced uint64
	WastedFlushes  uint64
	// ParityLines counts parity lines updated by XorDeltaBatch on the
	// write path; ReconstructedLines counts lines rebuilt from surviving
	// group members by XorReconstruct on the repair path.
	ParityLines        uint64
	ReconstructedLines uint64
	// LocalLines / RemoteLines attribute charged line accesses to the
	// accessing handle's socket when a NUMA map is installed (SetNUMA
	// with nodes > 1); both stay zero on single-node regions. RemoteExtra is
	// the total surcharge remote lines paid over the local rate — the
	// modeled cross-socket penalty a perfectly aligned placement would
	// have avoided.
	LocalLines  uint64
	RemoteLines uint64
	RemoteExtra time.Duration
	Charged     time.Duration // total emulated delay
	// Stalls counts the spins that waited modelled time out: one per
	// charged read, per Fence or Pay with time owed, per XorReconstruct.
	Stalls uint64
}

// Region is a simulated PM device. All mutating methods are safe for
// concurrent use. There is no region-wide lock: an access takes the lock
// of the range its address lies in — a carved persist domain (Carve) or
// the embedded default Domain, which owns every line not carved out and
// whose promoted methods are the Region's own PM accessors. Operations
// on the whole device (Crash, Sync, fault injection, reconstruction)
// take every range lock. Read-side helpers that return direct slices
// (Slice) do not synchronize with writers; callers partition the address
// space, as software sharing a real PM mapping must.
//
// The image lives outside the Go heap (newImage) for exactly as long as
// the Region object is reachable, which Close does not end: a closed
// Region is the powered-off device, and can be crashed and reopened. A
// slice into the image (Slice) is valid while its Region is reachable; a
// method that uses r.buf after its last use of r keeps r alive to the
// end (runtime.KeepAlive).
type Region struct {
	Domain            // default domain: every line no Carve claimed
	carved  []*Domain // ascending by address; fixed while serving (Carve)
	buf     []byte    // volatile image (CPU caches + PM, merged view)
	img     *image    // owns buf's memory
	dirty   []uint64  // bitset: line written since last flush
	pending []uint64  // bitset: line flushed but not yet fenced
	gen     []uint16  // per line: times retired from pending (see retire)
	// saved is, per line, 1 + the slot of its saved durable copy in the
	// owning domain's pool, or 0 when the volatile image is durable. A
	// line has a copy exactly while it is dirty or pending.
	saved []int32

	// Fault injection: persistHook is consulted on every Flush/Fence;
	// once it cuts the power, failed stays true until Crash reboots the
	// device and no durability operation has any effect. frozen snapshots
	// the pending lines' content at the instant of the cut: the software
	// under test keeps running against the volatile image, but stores
	// issued after power died must never reach the media, even when their
	// line was already in the clwb/sfence window. All three are written
	// only with every range lock held: any one suffices to read them.
	persistHook PersistHook
	failed      bool
	frozen      map[int][]byte

	// fileMu guards file and closed and serialises Sync/Close.
	fileMu sync.Mutex
	file   *os.File // nil if purely in-memory
	closed bool

	readLine  time.Duration
	writeLine time.Duration
	flushLine time.Duration
	fence     time.Duration

	// NUMA model (SetNUMA): lineNode maps each cache line to its home
	// socket; accesses from a handle on another socket are charged the
	// remote rates plus per-hop interconnect cost. numaNodes <= 1 means
	// no NUMA model: every access costs exactly the pre-NUMA arithmetic
	// with zero extra work on the hot path. The table and rates are
	// written only by SetNUMA on a quiescent region (before serving) and
	// read-only afterwards, so lock-free readers are safe.
	numaNodes   int
	lineNode    []int8
	remoteRead  time.Duration
	remoteWrite time.Duration
	remoteFlush time.Duration
	hopCost     time.Duration

	// yield: a PM stall yields instead of busy-waiting (SetCores).
	yield atomic.Bool
	// posted: some store or write-back costs modelled time, so a handle
	// can owe (Domain.owe). False under calib.Off: Fence and Pay then
	// check no debt. Fixed like the NUMA rates (New, SetNUMA).
	posted bool
}

// SetCores declares how many simulated cores drive the region at once (a
// sharded store passes its shard count, a harness its goroutine count;
// undeclared is the paper's single core). A PM stall busy-waits,
// stalling the issuing core exactly as a clwb/sfence drain stalls a real
// one — unless n exceeds runtime.GOMAXPROCS(0), where a busy wait would
// falsely stall the *other* simulated cores too, so stalls yield instead
// (the wall-clock charge is identical; only scheduling differs).
// GOMAXPROCS is sampled here: reading it takes the scheduler lock.
func (r *Region) SetCores(n int) { r.yield.Store(n > runtime.GOMAXPROCS(0)) }

// New creates an in-memory Region of the given size with latencies taken
// from profile. Size is rounded up to a whole number of lines.
func New(size int, profile calib.Profile) *Region {
	if size <= 0 {
		panic("pmem: non-positive size")
	}
	size = (size + LineSize - 1) &^ (LineSize - 1)
	nlines := size / LineSize
	buf, img := newImage(size)
	r := &Region{
		buf:       buf,
		img:       img,
		dirty:     make([]uint64, (nlines+63)/64),
		pending:   make([]uint64, (nlines+63)/64),
		gen:       make([]uint16, nlines),
		saved:     make([]int32, nlines),
		readLine:  profile.PMReadLine,
		writeLine: profile.PMWriteLine,
		flushLine: profile.PMFlushLine,
		fence:     profile.PMFence,
		posted:    profile.PMWriteLine > 0 || profile.PMFlushLine > 0,
	}
	r.Domain.r, r.Domain.lo, r.Domain.hi = r, -1, -1
	return r
}

// fileMagic distinguishes a Region backing file.
var fileMagic = []byte("PKTSPMEM")

// OpenFile opens (or creates) a file-backed Region of the given size. An
// existing file's persisted image is loaded; its size must match. The
// volatile image starts equal to the persisted image, as after a reboot.
func OpenFile(path string, size int, profile calib.Profile) (*Region, error) {
	r := New(size, profile)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("pmem: open %s: %w", path, err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	want := int64(len(fileMagic) + len(r.buf))
	switch {
	case st.Size() == 0:
		// Fresh device: the initial image is all zeros.
		if _, err := f.Write(fileMagic); err != nil {
			f.Close()
			return nil, err
		}
		if err := f.Truncate(want); err != nil {
			f.Close()
			return nil, err
		}
	case st.Size() == want:
		hdr := make([]byte, len(fileMagic))
		if _, err := f.ReadAt(hdr, 0); err != nil {
			f.Close()
			return nil, err
		}
		if string(hdr) != string(fileMagic) {
			f.Close()
			return nil, fmt.Errorf("pmem: %s is not a pmem image", path)
		}
		if err := r.load(f); err != nil {
			f.Close()
			return nil, err
		}
	default:
		f.Close()
		return nil, fmt.Errorf("pmem: %s has size %d, want %d", path, st.Size(), want)
	}
	r.file = f
	return r, nil
}

// loadChunk is the unit in which load reads a backing file.
const loadChunk = 64 << 10

// load reads the persisted image from f, copying only the chunks that
// hold a non-zero byte: the rest of the image is already zero, and an
// untouched page of it costs no memory.
func (r *Region) load(f *os.File) error {
	chunk, zero := make([]byte, loadChunk), make([]byte, loadChunk)
	for off := 0; off < len(r.buf); off += loadChunk {
		c := chunk[:min(loadChunk, len(r.buf)-off)]
		if _, err := f.ReadAt(c, int64(len(fileMagic)+off)); err != nil {
			return err
		}
		if !bytes.Equal(c, zero[:len(c)]) {
			copy(r.buf[off:], c)
		}
	}
	return nil
}

// Size returns the region size in bytes.
func (r *Region) Size() int { return len(r.buf) }

func (r *Region) check(off, n int) {
	if off < 0 || n < 0 || off+n > len(r.buf) {
		panic(fmt.Sprintf("pmem: access [%d,%d) outside region of %d bytes", off, off+n, len(r.buf)))
	}
}

func lines(off, n int) int {
	if n == 0 {
		return 0
	}
	first := off / LineSize
	last := (off + n - 1) / LineSize
	return last - first + 1
}

// Slice returns a direct read view of [off, off+n). Reads through the
// slice are not charged PM latency (they model cache hits / streaming
// reads). It is not a write path: a store through it has no saved
// durable copy, so Crash cannot revert it. Write and DMA change PM. The
// view is valid while the Region is reachable: the image is unmapped
// once it is not.
func (d *Domain) Slice(off, n int) []byte {
	d.r.check(off, n)
	return d.r.buf[off : off+n : off+n]
}

// Touch charges the PM read latency for a cache-missing read of [off,
// off+n). Index walks use it to model pointer-chasing loads. With a NUMA
// map installed, lines whose home socket differs from the handle's node
// are charged the remote read rate plus interconnect hops.
func (d *Domain) Touch(off, n int) {
	r := d.r
	r.check(off, n)
	nl := lines(off, n)
	var acc nodeAcc
	cost := r.spanCost(&acc, d.Node(), off, nl, r.readLine, r.remoteRead)
	d.reads.Add(uint64(nl))
	d.stall(0, cost, &acc, false)
}

// Read copies [off, off+len(dst)) into dst, charging read latency.
func (d *Domain) Read(dst []byte, off int) {
	copy(dst, d.Slice(off, len(dst)))
	d.Touch(off, len(dst))
}

// Write copies src into the region at off, marks the covered lines dirty,
// and charges write latency, which the handle owes until its next Fence
// or Pay. The store lands in the target DIMM's write-pending queue either
// way, but a cross-socket store pays the interconnect transfer first.
func (d *Domain) Write(off int, src []byte) {
	r := d.r
	o := d.own(off, len(src))
	var acc nodeAcc
	cost := r.spanCost(&acc, d.Node(), off, lines(off, len(src)), r.writeLine, r.remoteWrite)
	o.mu.Lock()
	o.markDirtyLocked(off, len(src))
	copy(r.buf[off:], src)
	o.stats.Writes++
	o.stats.BytesWritten += uint64(len(src))
	o.mu.Unlock()
	d.owe(cost, &acc)
}

// WriteUint64 stores an 8-byte little-endian value at off. off must be
// 8-byte aligned so the store is atomic with respect to crashes, the
// property commit words rely on.
func (d *Domain) WriteUint64(off int, v uint64) {
	if off%8 != 0 {
		panic("pmem: unaligned WriteUint64")
	}
	var b [8]byte
	putUint64(b[:], v)
	d.Write(off, b[:])
}

// ReadUint64 loads an 8-byte little-endian value (uncharged; callers that
// model a cache miss call Touch).
func (d *Domain) ReadUint64(off int) uint64 {
	v := getUint64(d.Slice(off, 8))
	runtime.KeepAlive(d)
	return v
}

// WriteUint32 stores a 4-byte little-endian value at a 4-byte-aligned off.
func (d *Domain) WriteUint32(off int, v uint32) {
	if off%4 != 0 {
		panic("pmem: unaligned WriteUint32")
	}
	var b [4]byte
	putUint32(b[:], v)
	d.Write(off, b[:])
}

// ReadUint32 loads a 4-byte little-endian value (uncharged).
func (d *Domain) ReadUint32(off int) uint32 {
	v := getUint32(d.Slice(off, 4))
	runtime.KeepAlive(d)
	return v
}

// DMA copies src into the region at off as a device writing into a
// packet buffer does: the covered lines are dirty (DDIO leaves them in
// the cache, unflushed) and nothing is charged or counted — the device
// charges its own cost. Like Write, it saves each line's durable bytes
// before changing them, under the owning range's lock.
func (d *Domain) DMA(off int, src []byte) {
	o := d.own(off, len(src))
	o.mu.Lock()
	o.markDirtyLocked(off, len(src))
	copy(d.r.buf[off:], src)
	o.mu.Unlock()
}

// Flush issues clwb for every line in [off, off+n): dirty lines move to
// the pending (flushed-but-unfenced) set and are charged flush latency,
// owed like a store's: clwb is posted, the fence waits for it.
// Lines that are not dirty cost nothing, as clwb of a clean line retires
// without a write-back. With a NUMA map, each freshly written-back line
// homed on another socket pays the remote flush rate plus interconnect
// hops (the write-back cannot complete until the line reaches the remote
// DIMM's ADR domain).
func (d *Domain) Flush(off, n int) {
	d.r.check(off, n)
	if n == 0 {
		return
	}
	sp := [1]lineSpan{{off / LineSize, (off + n - 1) / LineSize}}
	var bs BatchStats
	d.flushSpans(sp[:], &bs, false)
}

// flushSpans is the write-back under Flush and FlushBatch: one persist
// operation (one hook consult, one owed charge, Stats.Flushes + 1) over
// sorted, disjoint line spans of any ranges; it fills bs.Flushed/Wasted.
func (d *Domain) flushSpans(spans []lineSpan, bs *BatchStats, batch bool) {
	r := d.r
	node, numa := d.Node(), r.numaNodes > 1
	var acc nodeAcc
	o, end := d.extent(spans[0].first)
	all := r.enter(o)
	if r.failed || r.persistHook != nil && r.cut(OpFlush, spans) {
		r.leave(o, all)
		return
	}
	o.stats.Flushes++
	if batch {
		o.stats.BatchFlushes++
		o.stats.LinesCoalesced += uint64(bs.Coalesced)
	}
	d.fmu.Lock()
scan:
	for _, sp := range spans {
		for l := sp.first; l <= sp.last; l++ {
			if l >= end {
				var no *Domain
				if no, end = d.extent(l); no != o && !all {
					d.fmu.Unlock()
					o.mu.Unlock()
					o = no
					o.mu.Lock()
					d.fmu.Lock()
					if r.failed { // power was cut between the two ranges
						break scan
					}
				}
			}
			w, bit := l/64, uint64(1)<<(l%64)
			switch {
			case r.dirty[w]&bit != 0:
				r.dirty[w] &^= bit
				r.pending[w] |= bit
				bs.Flushed++
				if numa {
					r.accLine(&acc, node, l, r.flushLine, r.remoteFlush)
				}
			case r.pending[w]&bit != 0:
				bs.Wasted++ // already in flight: it still joins this fence
			default:
				continue
			}
			d.flushed = append(d.flushed, flushedLine{l, r.gen[l]})
		}
	}
	d.fmu.Unlock()
	cost := time.Duration(bs.Flushed) * r.flushLine
	if numa {
		cost = acc.cost
	}
	o.stats.LinesFlushed += uint64(bs.Flushed)
	o.stats.WastedFlushes += uint64(bs.Wasted)
	r.leave(o, all)
	d.owe(cost, &acc)
}

// cut consults the installed hook at a persist operation (the caller
// holds every range lock) and reports whether the operation must have no
// effect. On a Cut verdict it cuts the power: all later persist
// operations become no-ops until Crash. A torn flush persists tearBytes
// of the first dirty line of spans — the half-written-back line a real
// power cut can leave, never some unrelated dirty line.
func (r *Region) cut(op PersistOp, spans []lineSpan) bool {
	dec := r.persistHook(op)
	if !dec.Cut {
		return dec.Drop
	}
	r.failed = true
	// Snapshot the flushed-but-unfenced lines as they are right now:
	// Crash resolves each 50/50 from this snapshot, not from whatever the
	// still-running (but already powerless) software writes afterwards.
	r.frozen = make(map[int][]byte)
	r.eachPending(func(l int) {
		r.frozen[l] = append([]byte(nil), r.buf[l*LineSize:(l+1)*LineSize]...)
	})
	tear := min(dec.TearBytes, LineSize-1)
	for _, sp := range spans {
		for l := sp.first; l <= sp.last && tear > 0; l++ {
			if r.isDirty(l) { // so it has a saved copy: the durable bytes
				copy(r.durableLine(l)[:tear], r.buf[l*LineSize:])
				return true
			}
		}
	}
	return true
}

func (r *Region) isDirty(l int) bool { return r.dirty[l/64]&(1<<(l%64)) != 0 }

// retire takes line l out of the flushed-but-unfenced window, reporting
// whether it was in it, and bumps its generation so the entries other
// handles still list for it go stale. The caller holds l's range lock.
func (r *Region) retire(l int) bool {
	w, bit := l/64, uint64(1)<<(l%64)
	was := r.pending[w]&bit != 0
	r.pending[w] &^= bit
	r.gen[l]++
	return was
}

// eachPending visits every flushed-but-unfenced line of the region in
// address order; the caller holds every range lock.
func (r *Region) eachPending(fn func(l int)) {
	for w, bv := range r.pending {
		for ; bv != 0; bv &= bv - 1 {
			fn(w*64 + bits.TrailingZeros64(bv))
		}
	}
}

// Fence orders the lines this handle flushed, wherever they live: they
// are durable as they stand now, and their saved copies go. Lines other
// handles flushed stay pending until their own issuer fences, as an
// sfence orders only the issuing core's clwbs. It is the handle's stall
// point: one spin, timed from the call, waits out the fence and
// everything the handle owes, so retiring the lines runs inside the wait.
func (d *Domain) Fence() {
	r := d.r
	var start time.Duration
	if r.fence > 0 || r.posted {
		start = latency.Now()
	}
	all := r.enter(d)
	// A cut here kills the power before the sfence retires: the pending
	// (flushed but unordered) lines stay in their undefined window —
	// Crash resolves each 50/50, exactly as for a missing fence.
	if r.failed || r.persistHook != nil && r.cut(OpFence, nil) {
		r.leave(d, all)
		return
	}
	d.stats.Fences++
	d.fmu.Lock()
	mine := d.flushed
	d.flushed = nil
	d.fmu.Unlock()
	o := d
	for _, f := range mine {
		if no, _ := d.extent(f.l); no != o {
			if !all {
				o.mu.Unlock()
				no.mu.Lock()
			}
			o = no
			if r.failed { // power was cut between the two ranges
				break
			}
		}
		// A stale generation: another handle's fence retired the line since;
		// whoever flushed it again owes that write-back its own fence.
		if r.gen[f.l] == f.gen && r.retire(f.l) {
			o.settle(f.l)
		}
	}
	r.leave(o, all)
	d.fmu.Lock()
	if d.flushed == nil { // hand the buffer back unless a flush raced in
		d.flushed = mine[:0]
	}
	d.fmu.Unlock()
	d.stall(start, r.fence, &nodeAcc{}, true)
}

// Persist is the common flush-then-fence sequence for a single range.
func (d *Domain) Persist(off, n int) {
	d.Flush(off, n)
	d.Fence()
}

// crashLogger receives the seed of every injected crash. The default
// writes through the standard logger so a failing test's output names
// the seed that reproduces it; torture harnesses install a recorder.
var crashLogger atomic.Value // func(seed int64)

func logCrash(seed int64) { log.Printf("pmem: injected crash (reproduce with seed %d)", seed) }

func init() { crashLogger.Store(logCrash) }

// SetCrashLogger replaces the crash-seed logger (nil restores the
// default). Harnesses that inject thousands of crashes record the seeds
// into their results instead of spamming the log.
func SetCrashLogger(fn func(seed int64)) {
	if fn == nil {
		fn = logCrash
	}
	crashLogger.Store(fn)
}

// Crash simulates a power failure and reboot: every line in flight
// reverts to its durable bytes. Each line that was flushed but not yet
// fenced independently survives with probability 1/2, drawn from a
// generator seeded with the explicit seed — the undefined window between
// clwb and sfence. The seed is logged (SetCrashLogger) so any
// crash-consistency failure reproduces from its seed alone. The Region
// remains usable afterwards, representing the post-reboot device: any
// installed persist hook and power-failure state are cleared, and no
// handle owes modelled time.
func (r *Region) Crash(seed int64) {
	crashLogger.Load().(func(seed int64))(seed)
	rng := rand.New(rand.NewSource(seed))
	r.lockAll()
	defer r.unlockAll()
	r.persistHook = nil
	r.failed = false
	r.eachPending(func(l int) {
		if rng.Intn(2) == 0 {
			src := r.buf[l*LineSize : (l+1)*LineSize]
			if b, ok := r.frozen[l]; ok {
				// The power cut froze this line before later volatile
				// writes landed on it.
				src = b
			}
			copy(r.durableLine(l), src)
		}
	})
	r.frozen = nil
	// Every line in flight reverts to its saved copy, which frees the copy.
	for w := range r.dirty {
		for bv := r.dirty[w] | r.pending[w]; bv != 0; bv &= bv - 1 {
			l := w*64 + bits.TrailingZeros64(bv)
			o := r.owner(l)
			copy(r.buf[l*LineSize:], o.durable(l))
			o.drop(l)
		}
	}
	clear(r.dirty)
	clear(r.pending)
	r.each(func(d *Domain) {
		d.fmu.Lock()
		d.flushed = d.flushed[:0]
		d.fmu.Unlock()
		d.debt.Store(0) // the stores it was for are gone
	})
}

// CorruptByte XORs mask into the byte at off in both the volatile and the
// durable image — media corruption (a flipped bit in a PM row) that
// survives reboot. Fault injection uses it to prove checksum verification
// detects, quarantines, and never serves corrupted data.
func (r *Region) CorruptByte(off int, mask byte) {
	r.check(off, 1)
	r.lockAll()
	r.buf[off] ^= mask
	if l := off / LineSize; r.saved[l] != 0 {
		r.durableLine(l)[off%LineSize] ^= mask
	}
	r.unlockAll()
}

// Sync writes the durable image to the backing file, if any.
func (r *Region) Sync() error {
	r.fileMu.Lock()
	defer r.fileMu.Unlock()
	return r.syncLocked()
}

// syncLocked writes the volatile image, then the saved copies of the
// lines in flight over it — one snapshot of the durable image, taken with
// every range lock held — and flushes the file.
func (r *Region) syncLocked() error {
	if r.file == nil {
		return nil
	}
	r.lockAll()
	_, err := r.file.WriteAt(r.buf, int64(len(fileMagic)))
	for l, s := range r.saved {
		if s != 0 && err == nil {
			_, err = r.file.WriteAt(r.durableLine(l), int64(len(fileMagic)+l*LineSize))
		}
	}
	r.unlockAll()
	if err != nil {
		return err
	}
	return r.file.Sync()
}

// Close syncs (when file-backed) and releases the backing file. Only the
// first of several (even concurrent) calls syncs; the rest return an error.
// The image stays: a closed Region is the powered-off device.
func (r *Region) Close() error {
	r.fileMu.Lock()
	defer r.fileMu.Unlock()
	if r.closed {
		return errors.New("pmem: already closed")
	}
	r.closed = true
	if r.file == nil {
		return nil
	}
	err := r.syncLocked()
	if cerr := r.file.Close(); err == nil {
		err = cerr
	}
	r.file = nil
	return err
}

// Stats returns the operation counters summed over the domains (each
// read under its own lock: concurrent operations may land in between).
func (r *Region) Stats() Stats {
	var s Stats
	r.each(func(d *Domain) {
		d.mu.Lock()
		ds := d.stats
		d.mu.Unlock()
		ds.Reads, ds.LocalLines, ds.RemoteLines = d.reads.Load(), d.local.Load(), d.remote.Load()
		ds.RemoteExtra, ds.Charged = time.Duration(d.remoteExtra.Load()), time.Duration(d.charged.Load())
		ds.Stalls = d.stalls.Load()
		s.add(&ds)
	})
	return s
}

// add sums every counter (TestStatsAddCoversEveryField keeps it whole).
func (s *Stats) add(o *Stats) {
	s.Reads += o.Reads
	s.Writes += o.Writes
	s.BytesWritten += o.BytesWritten
	s.LinesFlushed += o.LinesFlushed
	s.Flushes += o.Flushes
	s.Fences += o.Fences
	s.BatchFlushes += o.BatchFlushes
	s.LinesCoalesced += o.LinesCoalesced
	s.WastedFlushes += o.WastedFlushes
	s.ParityLines += o.ParityLines
	s.ReconstructedLines += o.ReconstructedLines
	s.LocalLines += o.LocalLines
	s.RemoteLines += o.RemoteLines
	s.RemoteExtra += o.RemoteExtra
	s.Charged += o.Charged
	s.Stalls += o.Stalls
}

// ResetStats zeroes the operation counters.
func (r *Region) ResetStats() {
	r.each(func(d *Domain) {
		d.mu.Lock()
		d.stats = Stats{}
		d.mu.Unlock()
		d.reads.Store(0)
		d.local.Store(0)
		d.remote.Store(0)
		d.remoteExtra.Store(0)
		d.charged.Store(0)
		d.stalls.Store(0)
	})
}

// DirtyLines reports how many lines are dirty (unflushed); tests use it to
// assert that persistence protocols leave nothing behind.
func (r *Region) DirtyLines() int { return r.countLines(r.dirty) }

// PendingLines reports how many lines are flushed but not fenced.
func (r *Region) PendingLines() int { return r.countLines(r.pending) }

func (r *Region) countLines(set []uint64) int {
	r.lockAll()
	defer r.unlockAll()
	n := 0
	for _, w := range set {
		n += bits.OnesCount64(w)
	}
	return n
}

func putUint64(b []byte, v uint64) {
	_ = b[7]
	b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
	b[4], b[5], b[6], b[7] = byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56)
}

func getUint64(b []byte) uint64 {
	_ = b[7]
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

func putUint32(b []byte, v uint32) {
	_ = b[3]
	b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
}

func getUint32(b []byte) uint32 {
	_ = b[3]
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}
