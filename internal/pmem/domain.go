package pmem

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"packetstore/internal/latency"
)

// domainAlign is the granularity of Carve: 64 lines, one word of the
// dirty/pending bitsets, so no bitset word is shared by two range locks.
const domainAlign = 64 * LineSize

// Domain is a persist domain: the handle one simulated core (a shard's
// store) drives PM through, stamped with that core's NUMA node, and — if
// carved — the lock over its own lines. Three scopes differ on purpose:
//
//   - Lock scope is the address range. An access takes the lock of the
//     range that owns the address, whoever issues it: a store in its own
//     partition takes only its own lock; parity folds, NIC DMA and
//     CopyOut landing in another range take that range's. One access
//     must lie inside one range. More than one range lock is only ever
//     held in ascending address order, default first. The saved durable
//     copies of a range's lines in flight live in that range's pool,
//     under the same lock.
//   - Fence scope is the issuer, as sfence orders only the issuing
//     core's own clwbs: the handle lists the lines it flushed, wherever
//     they live, and Fence retires exactly those. A line another handle
//     already flushed joins this handle's list too: the first of the two
//     fences retires it, and a write-back issued after that is a new
//     generation the older list entry cannot retire.
//   - Power cuts are global: failed/frozen/Crash cover every domain.
type Domain struct {
	r      *Region
	lo, hi int // owned lines [lo, hi); -1, -1 for the default domain

	// mu guards the owned lines' dirty/pending bits and, against the
	// other locked mutators, their image bytes — plus stats, the
	// write-side counters of operations that landed in this range and of
	// the fences and folds this handle issued. Charged reads, delays and
	// stalls count in atomics on the issuing handle: a read takes no lock,
	// so lock-free GETs never meet the writer inside the simulator.
	mu                           sync.Mutex
	stats                        Stats
	reads, local, remote, stalls atomic.Uint64
	charged, remoteExtra         atomic.Int64

	// debt is the modelled time of the stores and write-backs this handle
	// issued and has not yet waited out (owe); the next stall point pays
	// it (Fence, Pay).
	debt atomic.Int64

	// saves is the pool of saved durable copies of the owned lines in
	// flight (Region.saved indexes it), grown saveChunk entries at a time
	// so entries never move; free stacks the unused slots. Guarded by mu.
	saves []*[saveChunk][LineSize]byte
	free  []int32

	// fmu guards flushed: the lines this handle wrote back and has not
	// fenced. A leaf lock: taken inside a range lock or alone, never the
	// other way round.
	fmu     sync.Mutex
	flushed []flushedLine

	node atomic.Int32
}

// flushedLine is one write-back a handle owes a fence: the line and its
// generation at the flush. Lines (not bitset words) keep a fence from
// retiring a neighbour's line in a range both flush into, such as a
// parity partition; the generation, a later write-back of the same line.
type flushedLine struct {
	l   int
	gen uint16
}

// saveChunk is how many saved lines a domain's pool grows by (32 KiB).
const saveChunk = 512

// markDirtyLocked marks the lines of [off, off+n) dirty, first saving the
// durable bytes of each one not yet in flight; call it before changing
// them. o owns the range and its lock is held.
func (o *Domain) markDirtyLocked(off, n int) {
	if n == 0 {
		return
	}
	r := o.r
	first, last := off/LineSize, (off+n-1)/LineSize
	for l := first; l <= last; l++ {
		if r.saved[l] == 0 {
			o.save(l)
		}
		r.dirty[l/64] |= 1 << (l % 64)
	}
}

// save copies line l, which has no saved copy, into a pool entry. o owns
// l and its lock is held.
func (o *Domain) save(l int) {
	if len(o.free) == 0 {
		o.growSaves()
	}
	s := o.free[len(o.free)-1]
	o.free = o.free[:len(o.free)-1]
	*o.entry(s) = [LineSize]byte(o.r.buf[l*LineSize:])
	o.r.saved[l] = s + 1
}

func (o *Domain) growSaves() {
	base := int32(len(o.saves) * saveChunk)
	o.saves = append(o.saves, new([saveChunk][LineSize]byte))
	for s := base + saveChunk - 1; s >= base; s-- {
		o.free = append(o.free, s)
	}
}

func (o *Domain) entry(s int32) *[LineSize]byte {
	return &o.saves[uint32(s)/saveChunk][uint32(s)%saveChunk]
}

// durable returns line l's durable bytes: its saved copy, or the volatile
// image when it has none. o owns l and its lock is held.
func (o *Domain) durable(l int) []byte {
	if s := o.r.saved[l]; s != 0 {
		return o.entry(s - 1)[:]
	}
	return o.r.buf[l*LineSize : (l+1)*LineSize]
}

// drop forgets line l's saved copy, if any: its volatile bytes are
// durable. o owns l and its lock is held.
func (o *Domain) drop(l int) {
	if s := o.r.saved[l]; s != 0 {
		o.free = append(o.free, s-1)
		o.r.saved[l] = 0
	}
}

// settle records that line l, just retired from the pending set, is
// durable as it stands: its copy is dropped — or, when the line was
// written again after its flush and is still dirty, refreshed to the
// current bytes.
func (o *Domain) settle(l int) {
	if o.r.isDirty(l) {
		*o.entry(o.r.saved[l] - 1) = [LineSize]byte(o.r.buf[l*LineSize:])
		return
	}
	o.drop(l)
}

// Carve gives [off, off+n) its own persist domain and returns the
// handle. off and n must be multiples of 4096. Call it while no other
// goroutine uses the region: accesses find their range lock without
// synchronisation. Carving an existing range again (a store reopened
// over the same Region after Crash) returns the same handle — the range
// keeps one lock for the Region's life; a partial overlap panics.
func (r *Region) Carve(off, n int) *Domain {
	r.check(off, n)
	if n == 0 || off%domainAlign != 0 || n%domainAlign != 0 {
		panic("pmem: Carve range is not a positive multiple of 4096 bytes")
	}
	lo, hi := off/LineSize, (off+n)/LineSize
	i := 0
	for i < len(r.carved) && r.carved[i].hi <= lo {
		i++
	}
	if i < len(r.carved) && r.carved[i].lo < hi {
		if c := r.carved[i]; c.lo == lo && c.hi == hi {
			return c
		}
		panic("pmem: Carve overlaps an existing persist domain")
	}
	d := &Domain{r: r, lo: lo, hi: hi}
	r.carved = slices.Insert(r.carved, i, d)
	return d
}

// Region returns the device the domain belongs to.
func (d *Domain) Region() *Region { return d.r }

// SetNode declares which NUMA node the core driving this handle runs on
// (a serving loop restamps it per cycle, so a stolen cycle bills the
// thief's socket). Lines homed elsewhere are charged the remote rates.
func (d *Domain) SetNode(n int) { d.node.Store(int32(n)) }

// Node reports the last stamped driving node (0 until stamped).
func (d *Domain) Node() int { return int(d.node.Load()) }

// extent returns the domain owning line l and the exclusive end of the
// run of consecutive lines it owns from l on.
func (d *Domain) extent(l int) (*Domain, int) {
	if l >= d.lo && l < d.hi {
		return d, d.hi
	}
	r := d.r
	for _, c := range r.carved {
		if l < c.hi {
			if l >= c.lo {
				return c, c.hi
			}
			return &r.Domain, c.lo
		}
	}
	return &r.Domain, len(r.buf) / LineSize
}

// owner returns the domain whose lock guards line l.
func (r *Region) owner(l int) *Domain {
	o, _ := r.Domain.extent(l)
	return o
}

// durableLine returns line l's durable bytes, wherever l lives; the
// caller holds l's range lock.
func (r *Region) durableLine(l int) []byte { return r.owner(l).durable(l) }

// own bounds-checks [off, off+n) and returns the domain whose lock
// guards it.
func (d *Domain) own(off, n int) *Domain {
	d.r.check(off, n)
	o, end := d.extent(off / LineSize)
	if n > 0 && (off+n-1)/LineSize >= end {
		panic("pmem: access straddles a persist-domain boundary")
	}
	return o
}

// each visits every domain in lock order: the default domain, then the
// carved ones by ascending address.
func (r *Region) each(fn func(*Domain)) {
	fn(&r.Domain)
	for _, c := range r.carved {
		fn(c)
	}
}

func (r *Region) lockAll()   { r.each(func(d *Domain) { d.mu.Lock() }) }
func (r *Region) unlockAll() { r.each(func(d *Domain) { d.mu.Unlock() }) }

// enter takes what a persist operation needs before touching lines o
// owns: o's lock — or, while a fault hook is installed, every range
// lock, so fault plans keep seeing one total order of cut points and a
// cut can freeze every domain's pending lines.
func (r *Region) enter(o *Domain) (all bool) {
	o.mu.Lock()
	if r.persistHook == nil {
		return false
	}
	o.mu.Unlock()
	r.lockAll()
	return true
}

func (r *Region) leave(o *Domain, all bool) {
	if all {
		r.unlockAll()
	} else {
		o.mu.Unlock()
	}
}

// Modelled time is counted where an operation happens and waited out
// where the hardware stalls. Stores and write-backs are posted: Write,
// Flush, FlushBatch and XorDeltaBatch count their cost at once (Charged,
// the NUMA counters) and add it to the issuing handle's debt (owe). A
// fence waits until they are done, so Fence spins once for debt + fence,
// timed from its start; Pay spins for the debt alone, where software
// must not run ahead of its stores (a store mutation's end). Loads stall
// the issuing core themselves: Touch, TouchLines and Read spin for their
// own cost at once and leave the debt to its writer. Each spin is one
// Stats.Stalls.

// account counts one operation's modelled cost and NUMA attribution.
func (d *Domain) account(cost time.Duration, a *nodeAcc) {
	d.charged.Add(int64(cost))
	if a.loc != 0 {
		d.local.Add(a.loc)
	}
	if a.rem != 0 {
		d.remote.Add(a.rem)
		d.remoteExtra.Add(int64(a.extra))
	}
}

// owe counts a posted store or write-back and adds its cost to the
// handle's debt.
func (d *Domain) owe(cost time.Duration, a *nodeAcc) {
	if cost <= 0 && a.loc+a.rem == 0 {
		return // an unmodelled device (calib.Off) pays nothing per call
	}
	d.account(cost, a)
	if cost > 0 {
		d.debt.Add(int64(cost))
	}
}

// stall counts an operation that waits for cost and consumes it in one
// spin — with settle, together with the handle's debt. The spin is timed
// from start, a latency.Now reading taken as the operation began (0:
// from now), so the simulator's own bookkeeping since then, which has no
// hardware counterpart, runs inside the modelled wait instead of adding
// to it. Callers release their range lock first. PM stalls hold the
// issuing core (blocking loads, the sfence drain), so they spin hot —
// unless simulated cores outnumber physical (SetCores).
func (d *Domain) stall(start, cost time.Duration, a *nodeAcc, settle bool) {
	if cost > 0 || a.loc+a.rem != 0 {
		d.account(cost, a)
	}
	if settle && d.r.posted && d.debt.Load() != 0 {
		cost += time.Duration(d.debt.Swap(0))
	}
	if cost <= 0 {
		return
	}
	d.stalls.Add(1)
	if start == 0 {
		start = latency.Now()
	}
	if d.r.yield.Load() {
		latency.SpinFrom(start, cost)
	} else {
		latency.SpinHotFrom(start, cost)
	}
}

// Pay waits out the handle's debt now, in one spin: the modelled time of
// the stores and write-backs it issued since its last Fence or Pay.
// Software that must not run ahead of its own stores calls it — a store
// pays before it ends a mutation, so no debt outlives the store's lock.
func (d *Domain) Pay() { d.stall(0, 0, &nodeAcc{}, true) }

// Owed reports the modelled time the handle owes: counted, not yet
// waited out.
func (d *Domain) Owed() time.Duration { return time.Duration(d.debt.Load()) }
