// Package fault is the deterministic fault-injection layer: seeded,
// reproducible schedules of power cuts (with torn cache-line
// write-backs), media bit flips, shard loss and network impairment,
// threaded through the pmem device model, the store and the simulated
// wire. Every run is identified by a single int64 seed — the same seed
// replays the same workload, the same crash point and the same post-cut
// line survival, so any torture failure is a one-line reproduction.
package fault

import (
	"sync/atomic"

	"packetstore/internal/pmem"
)

// Plan is one deterministic fault schedule: cut the power at the
// CutAt-th persist operation (every Flush and Fence counts, in issue
// order), optionally tearing the first dirty cache line of that flush.
// A Plan with CutAt=0 never cuts — installed on a calibration run it
// just counts persist operations, which bounds the crash-point space
// for a replay over the same workload.
type Plan struct {
	// Seed identifies the run; pass it to Region.Crash so the post-cut
	// line survival is reproducible too.
	Seed int64
	// CutAt is the 1-based persist-operation ordinal at which power
	// dies. 0 never cuts.
	CutAt int64
	// TearBytes, when the cut lands on a Flush, persists only this
	// prefix of the first dirty cache line — the torn write-back real PM
	// exposes when power dies mid-line. 0 cuts cleanly.
	TearBytes int

	ops atomic.Int64
}

// Hook returns the pmem.PersistHook implementing the plan. The hook
// only counts and compares — it is safe under the region's range locks.
func (p *Plan) Hook() pmem.PersistHook {
	return func(op pmem.PersistOp) pmem.PersistDecision {
		n := p.ops.Add(1)
		if p.CutAt > 0 && n == p.CutAt {
			return pmem.PersistDecision{Cut: true, TearBytes: p.TearBytes}
		}
		return pmem.PersistDecision{}
	}
}

// Install arms the plan on r. Region.Crash disarms it.
func (p *Plan) Install(r *pmem.Region) { r.SetPersistHook(p.Hook()) }

// Ops reports how many persist operations the plan has observed.
func (p *Plan) Ops() int64 { return p.ops.Load() }

// CountPersistOps runs fn with a counting, never-cutting plan installed
// on r and returns how many persist operations it issued — the
// calibration pass of a crash-point replay. The hook is removed before
// returning.
func CountPersistOps(r *pmem.Region, fn func()) int64 {
	p := &Plan{}
	p.Install(r)
	fn()
	r.SetPersistHook(nil)
	return p.Ops()
}
