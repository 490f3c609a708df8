package pmem

import "time"

// CopyOut copies [off, off+len(dst)) into dst under the owning range's
// lock, so the copy is atomic with respect to every mutator (Write, DMA,
// XorDeltaBatch, XorReconstruct, EraseRange, CorruptByte). It charges no
// latency: lock-free readers account their PM cost separately with
// TouchLines, batching the whole value into one charge. Unlike Slice,
// the returned bytes cannot be torn by a concurrent write — the caller
// still must validate (checksum + sequence recheck) that the slot was
// not recycled and rewritten, by NIC DMA for instance, before the copy.
func (d *Domain) CopyOut(dst []byte, off int) {
	o := d.own(off, len(dst))
	o.mu.Lock()
	copy(dst, d.r.buf[off:])
	o.mu.Unlock()
}

// TouchLines charges the PM read latency for nl cache lines as a single
// batch: one charge, one stats update. Per-extent Touch calls pay the
// scheduler hand-off per span; a read that knows its total footprint
// batches it here (the read-path analogue of XorDeltaBatch's single
// write charge). The whole batch is attributed to the node that owns the
// line containing off: the batched read path stays within one shard's
// partition, which lives on a single node, so one owner lookup covers
// every line of the batch.
func (d *Domain) TouchLines(off, nl int) {
	if nl <= 0 {
		return
	}
	r := d.r
	r.check(off, 1)
	cost := time.Duration(nl) * r.readLine
	var acc nodeAcc
	if r.numaNodes > 1 {
		for i := 0; i < nl; i++ {
			r.accLine(&acc, d.Node(), off/LineSize, r.readLine, r.remoteRead)
		}
		cost = acc.cost
	}
	d.reads.Add(uint64(nl))
	d.stall(0, cost, &acc, false)
}
