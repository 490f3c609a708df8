package pmem

import "time"

// Parity support. The store layers RAID-5-style redundancy over a shared
// Region: a parity partition holds, line for line, the XOR of its group
// members' partitions. Three primitives keep that invariant cheap to
// maintain and usable for repair:
//
//   - XorDeltaBatch folds a member's not-yet-durable changes (volatile
//     image XOR saved durable copy, for the member lines in flight) into
//     the parity partition's volatile image, so the parity lines can
//     ride the member's own FlushBatch/Fence.
//   - XorReconstruct rebuilds a lost range as the XOR of the surviving
//     images, writing the result at media level (volatile and durable).
//   - EraseRange models losing the media itself: both images zeroed.
//
// The XOR math happens at DRAM speed (the delta is computed from cached
// lines); what is charged is the PM cost of the extra stores and, for
// reconstruction, the write-backs that make the repair durable.

// XorSpan names one fold of a batch: the unpersisted change of the
// member range [Off, Off+N) is XORed into the same-length parity range
// at Poff. Both ranges must be line-aligned and must not overlap.
type XorSpan struct {
	Poff, Off, N int
}

// XorDeltaBatch XORs the unpersisted change of each span's member range
// into its parity range: for every covered byte,
// parity ^= member_volatile ^ member_durable. The parity lines are
// marked dirty — the caller adds them to its FlushSet so they persist
// under the very fence that makes the member changes durable. Each fold
// holds the locks of both ranges it touches (in address order), so
// members of one group fold into a shared parity line atomically. Write
// latency is charged per parity line touched, in a single charge for
// the whole batch, and owed until the handle's fence like any store's.
func (d *Domain) XorDeltaBatch(spans []XorSpan) {
	r := d.r
	nl := 0
	for _, sp := range spans {
		if sp.N == 0 {
			continue
		}
		if sp.Off%LineSize != 0 || sp.Poff%LineSize != 0 {
			panic("pmem: unaligned XorDeltaBatch")
		}
		mo, po := d.own(sp.Off, sp.N), d.own(sp.Poff, sp.N)
		a, b := mo, po
		if b.lo < a.lo {
			a, b = b, a
		}
		a.mu.Lock()
		if b != a {
			b.mu.Lock()
		}
		po.markDirtyLocked(sp.Poff, sp.N)
		for i := 0; i < sp.N; i += LineSize {
			// A member line with no saved copy is durable as it stands:
			// its delta is zero.
			if ml := (sp.Off + i) / LineSize; r.saved[ml] != 0 {
				pb, mb, md := r.buf[sp.Poff+i:], r.buf[sp.Off+i:], mo.durable(ml)
				for j := range min(LineSize, sp.N-i) {
					pb[j] ^= mb[j] ^ md[j]
				}
			}
		}
		if b != a {
			b.mu.Unlock()
		}
		a.mu.Unlock()
		nl += lines(sp.Poff, sp.N)
	}
	if nl == 0 {
		return
	}
	d.mu.Lock()
	d.stats.Writes++
	d.stats.ParityLines += uint64(nl)
	d.mu.Unlock()
	d.owe(time.Duration(nl)*r.writeLine, &nodeAcc{})
}

// XorReconstruct rebuilds [off, off+n) as the byte-wise XOR of the
// durable images of the source ranges (each n bytes, line-aligned) and
// installs the result at media level: both the volatile and the durable
// image are rewritten, as a repair path that writes, flushes and fences
// would leave them. Destination lines that are volatile-dirty are
// skipped and counted — someone is mid-write there, and clobbering an
// in-flight line would corrupt state the durable images cannot vouch
// for; the caller treats skipped lines as not-yet-repairable. It reads
// and writes across ranges, so it runs with every range lock held. Write
// and flush latency is charged per reconstructed line and owed by the
// default handle; the closing fence waits it out, with whatever else
// that handle owes, in one stall.
func (r *Region) XorReconstruct(off int, srcs []int, n int) (skipped int) {
	if n == 0 || len(srcs) == 0 {
		return 0
	}
	if off%LineSize != 0 {
		panic("pmem: unaligned XorReconstruct")
	}
	r.check(off, n)
	for _, s := range srcs {
		if s%LineSize != 0 {
			panic("pmem: unaligned XorReconstruct source")
		}
		r.check(s, n)
	}
	var line [LineSize]byte
	restored := 0
	r.lockAll()
	for o := 0; o < n; o += LineSize {
		l := (off + o) / LineSize
		if r.isDirty(l) {
			skipped++
			continue
		}
		copy(line[:], r.durableLine((srcs[0]+o)/LineSize))
		for _, s := range srcs[1:] {
			src := r.durableLine((s + o) / LineSize)
			for i := range line {
				line[i] ^= src[i]
			}
		}
		copy(r.buf[off+o:], line[:])
		// The line is durable again: drop its copy and take it out of any
		// flushed-but-unfenced window so a later fence cannot resurrect
		// pre-repair content.
		r.owner(l).drop(l)
		r.retire(l)
		restored++
	}
	r.Domain.stats.Writes++
	r.Domain.stats.ReconstructedLines += uint64(restored)
	r.unlockAll()
	r.owe(time.Duration(restored)*(r.writeLine+r.flushLine), &nodeAcc{})
	r.stall(0, r.fence, &nodeAcc{}, true)
	return skipped
}

// EraseRange destroys the whole lines [off, off+n) at media level:
// volatile and durable images are zeroed and all per-line write-back
// state is dropped, as if the PM rows themselves were lost. Fault
// injection uses it to model whole-data-area loss that only redundancy
// can survive.
func (r *Region) EraseRange(off, n int) {
	r.check(off, n)
	if off%LineSize != 0 || n%LineSize != 0 {
		panic("pmem: unaligned EraseRange")
	}
	r.lockAll()
	clear(r.buf[off : off+n])
	for l := off / LineSize; l < (off+n)/LineSize; l++ {
		r.owner(l).drop(l)
		r.dirty[l/64] &^= 1 << (l % 64)
		r.retire(l)
	}
	r.unlockAll()
}

// ReadShadow copies the durable image of [off, off+len(dst)) into dst,
// uncharged. Verification helpers use it to check media-level
// invariants (for example that a parity partition equals the XOR of its
// members) without perturbing latency accounting.
func (r *Region) ReadShadow(dst []byte, off int) {
	r.check(off, len(dst))
	if len(dst) == 0 {
		return
	}
	r.lockAll()
	copy(dst, r.buf[off:])
	for l := off / LineSize; l <= (off+len(dst)-1)/LineSize; l++ {
		if r.saved[l] != 0 {
			p := l * LineSize // the line's bytes that lie in dst
			lo, hi := max(p, off), min(p+LineSize, off+len(dst))
			copy(dst[lo-off:hi-off], r.durableLine(l)[lo-p:])
		}
	}
	r.unlockAll()
}
