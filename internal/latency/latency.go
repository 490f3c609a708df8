// Package latency provides calibrated sub-microsecond busy-wait delays.
//
// The simulator models hardware costs (PM flush latency, NIC per-packet
// processing, wire propagation) that are far below the resolution of
// time.Sleep on a general-purpose kernel (tens of microseconds at best).
// Benchmarks in this repository measure real wall-clock time, so emulated
// hardware latencies must consume real time with nanosecond accuracy; the
// only portable way to do that is to spin.
//
// Spin is the single primitive. Code that wants to charge a hardware cost
// computes the total duration for the operation (for example, lines x
// perLineFlushLatency) and issues one Spin call, so the fixed overhead of
// reading the clock is amortized over the whole operation. SpinFrom and
// SpinHotFrom time the wait from an earlier Now reading instead, for a
// caller whose own bookkeeping should run inside the wait.
//
// A direct call for less than 20ns does nothing (minSpin). That floor does
// not drop modelled time where costs are added up before the spin: the PM
// simulator adds each store's and write-back's cost to its issuer's debt
// and spins once for the sum at the next stall point (a fence, or the end
// of a store mutation), so a charge below the floor — calib.Fast's 12ns
// one-line flush, say — is still paid.
package latency

import (
	"runtime"
	"sync/atomic"
	"time"
)

// minSpin is the shortest delay worth spinning for. Reading the monotonic
// clock via time.Since costs roughly 20-60ns on Linux (vDSO); delays below
// that are indistinguishable from the measurement overhead, so they are
// skipped entirely rather than over-charged.
const minSpin = 20 * time.Nanosecond

// epoch anchors Now: time.Since of a Time that carries a monotonic
// reading reads only the monotonic clock, where time.Now reads the wall
// clock too — about 40% more per read, paid at the start of every spin.
var epoch = time.Now()

// Now reads the clock the spins measure against: the monotonic time
// since epoch. A caller with work to do before it waits reads Now first
// and passes it to SpinFrom or SpinHotFrom, so that the work runs inside
// the wait, not before it.
func Now() time.Duration { return time.Since(epoch) }

// totalSpun accumulates all time spent spinning, in nanoseconds. It is a
// diagnostic: harnesses subtract it from wall time to separate "emulated
// hardware time" from "real software time".
var totalSpun atomic.Int64

// Spin waits for at least d of wall-clock time while yielding the
// processor to other goroutines. Yielding matters: emulated delays model
// hardware that works in parallel with the CPUs (the wire propagates, the
// NIC DMAs, the PM DIMM drains its write queue), so a delay must consume
// time without monopolizing a core — on a single-core host a pure busy
// wait would serialize all emulated hardware with all software and
// destroy concurrency scaling. The spin re-checks the clock between
// yields, so the wait is accurate to the scheduler's hand-off latency.
func Spin(d time.Duration) {
	if d >= minSpin {
		SpinFrom(Now(), d)
	}
}

// SpinFrom is Spin timed from start, an earlier Now reading: it returns
// once d has passed since start — at once if it already has.
func SpinFrom(start, d time.Duration) {
	if d < minSpin {
		return
	}
	for end := start + d; Now() < end; {
		runtime.Gosched()
	}
	totalSpun.Add(int64(d))
}

// SpinHot busy-waits for approximately d without yielding: it models
// work that stalls the issuing CPU itself (cache-line write-backs, fence
// drains, blocking loads), which cannot overlap with other software on
// that core. Use Spin for delays that model hardware running in parallel
// with the CPUs (wire propagation, NIC DMA engines).
func SpinHot(d time.Duration) {
	if d >= minSpin {
		SpinHotFrom(Now(), d)
	}
}

// SpinHotFrom is SpinHot timed from start, an earlier Now reading.
func SpinHotFrom(start, d time.Duration) {
	if d < minSpin {
		return
	}
	for end := start + d; Now() < end; {
	}
	totalSpun.Add(int64(d))
}

// TotalSpun reports the cumulative emulated-hardware time charged through
// Spin since process start (or the last ResetTotalSpun).
func TotalSpun() time.Duration { return time.Duration(totalSpun.Load()) }

// ResetTotalSpun zeroes the cumulative spin counter. Harnesses call it at
// the start of a measurement window.
func ResetTotalSpun() { totalSpun.Store(0) }
