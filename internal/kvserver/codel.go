package kvserver

import (
	"math"
	"time"
)

// OverloadConfig tunes deadline-aware admission and the CoDel queue
// controller (Config.Overload). Zero value: disabled — the server keeps
// the original binary MaxConns shed and executes every parsed request.
type OverloadConfig struct {
	// Enabled turns on both doomed-work elimination (requests whose
	// X-Budget-Us budget lapsed before execution are answered 503
	// instead of executed) and the CoDel run-queue controller below.
	Enabled bool
	// Target is the acceptable run-queue sojourn time: as long as the
	// queue drains within Target there is no standing backlog and
	// nothing is shed. Default 2ms.
	Target time.Duration
	// Interval is the controller's observation window: sojourn must
	// stay above Target for a full Interval before shedding starts, so
	// bursts shorter than an RTT-scale window pass untouched. Default
	// 50ms.
	Interval time.Duration
	// RetryAfter is the backoff hint (Retry-After-Ms) attached to
	// overload 503s — accept-cap sheds, CoDel sheds, and expired-budget
	// drops. Default 25ms.
	RetryAfter time.Duration
	// BrownoutBatch is the group-commit burst cap while the loop is in
	// brownout (CoDel actively shedding): PUT bursts are forced into
	// larger groups exactly when fence amortization buys the most.
	// Default 4×MaxBatch, floor 16.
	BrownoutBatch int
}

func (c *OverloadConfig) fill(maxBatch int) {
	if c.Target <= 0 {
		c.Target = 2 * time.Millisecond
	}
	if c.Interval <= 0 {
		c.Interval = 50 * time.Millisecond
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = 25 * time.Millisecond
	}
	if c.BrownoutBatch <= 0 {
		c.BrownoutBatch = 4 * maxBatch
		if c.BrownoutBatch < 16 {
			c.BrownoutBatch = 16
		}
	}
}

// codel implements the controlled-delay (CoDel) law over run-queue
// sojourn times. The controller watches the *minimum* sojourn seen per
// interval: a standing queue shows up as min-sojourn > target for a
// whole interval (a transient burst does not — its tail drains and the
// minimum dips), at which point the controller enters the dropping
// state and sheds at an increasing rate (interval/√count spacing) until
// the minimum falls back under target. Observations come from its
// loop's popBatch, on the loop's own goroutine.
type codel struct {
	target, interval time.Duration

	// firstAbove, when non-zero, is the deadline by which sojourn must
	// dip below target to prove the backlog was a burst; set the first
	// time sojourn exceeds target.
	firstAbove time.Time
	// dropping is the shedding state — also the loop's brownout signal.
	dropping bool
	// dropNext paces sheds while dropping; count is the consecutive
	// drop counter that tightens the pace (interval/√count).
	dropNext time.Time
	count    int
}

// observe feeds one dequeue's sojourn time into the control law and
// reports whether the caller should shed one queued item now. now is
// passed in so the law is testable with a synthetic clock.
func (cd *codel) observe(sojourn time.Duration, now time.Time) bool {
	if sojourn < cd.target {
		// The minimum dipped below target: whatever backlog existed has
		// drained. Leave dropping but keep count — a quick relapse
		// resumes near the old drop rate instead of re-proving overload
		// from scratch (the CoDel restart heuristic in resume below).
		cd.firstAbove = time.Time{}
		cd.dropping = false
		return false
	}
	if cd.firstAbove.IsZero() {
		cd.firstAbove = now.Add(cd.interval)
		return false
	}
	if !cd.dropping {
		if now.Before(cd.firstAbove) {
			return false
		}
		// Sojourn stayed above target a full interval: standing queue.
		if cd.count > 2 && !cd.dropNext.IsZero() && now.Sub(cd.dropNext) < 8*cd.interval {
			cd.count -= 2 // recent relapse: resume near the old rate
		} else {
			cd.count = 1
		}
		cd.dropping = true
		cd.dropNext = now
	}
	if now.Before(cd.dropNext) {
		return false
	}
	cd.count++
	cd.dropNext = now.Add(time.Duration(float64(cd.interval) / math.Sqrt(float64(cd.count))))
	return true
}
