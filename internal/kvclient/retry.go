package kvclient

import (
	"errors"
	"io"
	"math/rand"
	"net"
	"os"
	"syscall"
	"time"

	"packetstore/internal/kvproto"
	"packetstore/internal/tcp"
)

// Transient reports whether err is worth retrying: the operation failed
// for a reason that heals with time — a 503 (shard down or rebuilding,
// connection shed), a response deadline, or a broken transport (reset,
// refused, EOF from a restarting server). Anything else — 4xx statuses,
// protocol errors, ErrFull's 507 — is permanent and retrying it only
// repeats the failure.
func Transient(err error) bool {
	if err == nil {
		return false
	}
	var se *StatusError
	if errors.As(err, &se) {
		return se.Status == 503
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return true
	}
	switch {
	case errors.Is(err, ErrBreakerOpen):
		return true
	case errors.Is(err, io.EOF), errors.Is(err, io.ErrUnexpectedEOF),
		errors.Is(err, io.ErrClosedPipe), errors.Is(err, net.ErrClosed),
		errors.Is(err, os.ErrDeadlineExceeded):
		return true
	case errors.Is(err, syscall.ECONNRESET), errors.Is(err, syscall.ECONNREFUSED),
		errors.Is(err, syscall.EPIPE):
		return true
	case errors.Is(err, tcp.ErrReset), errors.Is(err, tcp.ErrRefused),
		errors.Is(err, tcp.ErrTimeout):
		return true
	}
	return false
}

// RetryConfig tunes the retry layer. The zero value makes 8 attempts
// with exponential backoff from 1ms to 250ms and no per-request
// deadline; the containment features (breaker, retry budget, hedging)
// are opt-in and disabled at zero.
type RetryConfig struct {
	// Attempts is the total tries per operation (first try included).
	Attempts int
	// Backoff is the delay before the second attempt; it doubles per
	// attempt up to BackoffMax, with equal jitter (uniform in
	// [d/2, d]) so a fleet of clients does not reconverge in lockstep
	// on a recovering shard. When the server's 503 carries a
	// Retry-After-Ms hint, the hint replaces this schedule (same
	// jitter) — the server knows its own drain rate better than any
	// client-side guess.
	Backoff    time.Duration
	BackoffMax time.Duration
	// Timeout is the per-request response deadline applied to the
	// underlying Client (see Client.SetTimeout). Zero means none.
	Timeout time.Duration
	// Budget is the per-request latency budget advertised to the server
	// (X-Budget-Us); a deadline-aware server drops rather than executes
	// the request once it lapses. Zero sends no budget.
	Budget time.Duration
	// BreakerThreshold opens a per-target circuit breaker after this
	// many consecutive transient failures: further operations fast-fail
	// with ErrBreakerOpen (no network traffic) until BreakerCooldown
	// passes, then a single half-open probe decides whether to close it.
	// Zero disables the breaker.
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker rejects before
	// half-open probing (default 100ms when the breaker is enabled).
	BreakerCooldown time.Duration
	// RetryBudget caps retry amplification with a token bucket: the
	// bucket starts full at RetryBudget tokens, each retry spends one,
	// and each success refills retryBudgetRatio up to the cap. An empty
	// bucket stops retries — a saturated server is not DDoSed by its own
	// clients. Zero disables.
	RetryBudget float64
	// Hedge, when > 0, hedges idempotent GETs: if the primary response
	// has not arrived within this delay, a second connection races the
	// same GET and the first answer wins. Point it near the expected
	// p99 so only stragglers pay the extra request.
	Hedge time.Duration
	// Seed randomizes the jitter; 0 derives one from the config.
	Seed int64
}

// retryBudgetRatio is the retry budget's per-success refill: at most
// one retry per ten successes in steady state.
const retryBudgetRatio = 0.1

func (c *RetryConfig) fill() {
	if c.Attempts <= 0 {
		c.Attempts = 8
	}
	if c.Backoff <= 0 {
		c.Backoff = time.Millisecond
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = 250 * time.Millisecond
	}
	if c.BreakerThreshold > 0 && c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 100 * time.Millisecond
	}
	if c.Seed == 0 {
		c.Seed = int64(c.Attempts)<<32 ^ int64(c.Backoff)
	}
}

// RetryStats counts the retry layer's work.
type RetryStats struct {
	// Retries counts re-attempts after a transient failure.
	Retries uint64
	// Redials counts reconnects after a transport-level failure (a 503
	// keeps the connection: the server answered, only the shard is
	// down).
	Redials uint64
	// Exhausted counts operations that failed after the final attempt.
	Exhausted uint64
	// BreakerOpens counts closed->open transitions of the circuit
	// breaker.
	BreakerOpens uint64
	// BreakerFastFails counts operations rejected locally while the
	// breaker was open (no network traffic generated).
	BreakerFastFails uint64
	// BudgetDenied counts retries suppressed by an empty retry-token
	// bucket.
	BudgetDenied uint64
	// Hedges counts hedge requests issued; HedgeWins counts the subset
	// where the hedge answered before the primary.
	Hedges    uint64
	HedgeWins uint64
}

// RetryClient wraps the dial-and-request cycle with transient-failure
// retry: operations back off exponentially with jitter and re-issue on
// 503s, response timeouts and broken connections, so callers ride
// through shard quarantines, rebuilds, and server restarts without
// seeing an error unless the outage outlasts the attempt budget. Not
// safe for concurrent use, like Client.
// breaker states: closed (normal), open (fast-fail), half-open (one
// probe in flight decides).
type breakerState int

const (
	brkClosed breakerState = iota
	brkOpen
	brkHalfOpen
)

// ErrBreakerOpen is returned without touching the network while the
// per-target circuit breaker is open. It is transient: the target may
// recover, so callers with time to spare can retry later.
var ErrBreakerOpen = errors.New("kvclient: circuit breaker open")

type RetryClient struct {
	dial  func() (Conn, error)
	cfg   RetryConfig
	cl    *Client
	rng   *rand.Rand
	stats RetryStats

	brk         breakerState
	brkFails    int       // consecutive transient failures while closed
	brkOpenedAt time.Time // when the breaker last opened
	tokens      float64   // retry-budget bucket (when RetryBudget > 0)
}

// NewRetry builds a retrying client over dial, which is invoked for the
// initial connection and after any transport-level failure.
func NewRetry(dial func() (Conn, error), cfg RetryConfig) *RetryClient {
	cfg.fill()
	return &RetryClient{
		dial:   dial,
		cfg:    cfg,
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		tokens: cfg.RetryBudget,
	}
}

// Stats snapshots the retry counters.
func (rc *RetryClient) Stats() RetryStats { return rc.stats }

// Close closes the current connection, if any.
func (rc *RetryClient) Close() error {
	if rc.cl == nil {
		return nil
	}
	err := rc.cl.Close()
	rc.cl = nil
	return err
}

// dropConn discards a broken connection so the next attempt redials.
func (rc *RetryClient) dropConn() {
	if rc.cl != nil {
		rc.cl.Close()
		rc.cl = nil
	}
	rc.stats.Redials++
}

// sleepBackoff waits before retry round `round`: the server's
// Retry-After hint when the last failure carried one, otherwise the
// exponential schedule — jittered either way (equal jitter: half
// deterministic, half uniform) so a fleet does not reconverge in
// lockstep.
func (rc *RetryClient) sleepBackoff(round int, hint time.Duration) {
	d := rc.cfg.Backoff << uint(round)
	if d > rc.cfg.BackoffMax || d <= 0 {
		d = rc.cfg.BackoffMax
	}
	if hint > 0 {
		d = hint
	}
	d = d/2 + time.Duration(rc.rng.Int63n(int64(d/2)+1))
	time.Sleep(d)
}

// retryAfterHint extracts the server's Retry-After-Ms backoff hint from
// a status error, or 0.
func retryAfterHint(err error) time.Duration {
	var se *StatusError
	if errors.As(err, &se) {
		return se.RetryAfter
	}
	return 0
}

// breakerAdmit gates an operation on the breaker state. It returns
// false (fast-fail) while the breaker is open and inside cooldown;
// after cooldown it admits a single half-open probe.
func (rc *RetryClient) breakerAdmit() bool {
	if rc.cfg.BreakerThreshold <= 0 {
		return true
	}
	if rc.brk == brkOpen {
		if time.Since(rc.brkOpenedAt) < rc.cfg.BreakerCooldown {
			rc.stats.BreakerFastFails++
			return false
		}
		rc.brk = brkHalfOpen
	}
	return true
}

// noteSuccess records a completed operation: closes the breaker and
// refills the retry-token bucket.
func (rc *RetryClient) noteSuccess() {
	rc.brk = brkClosed
	rc.brkFails = 0
	if rc.cfg.RetryBudget > 0 {
		rc.tokens += retryBudgetRatio
		if rc.tokens > rc.cfg.RetryBudget {
			rc.tokens = rc.cfg.RetryBudget
		}
	}
}

// noteFailure records a transient failure and reports whether the
// breaker just opened (the caller should stop hammering the target).
func (rc *RetryClient) noteFailure() bool {
	if rc.cfg.BreakerThreshold <= 0 {
		return false
	}
	if rc.brk == brkHalfOpen {
		// The probe failed: back to open for another cooldown.
		rc.brk = brkOpen
		rc.brkOpenedAt = time.Now()
		rc.stats.BreakerOpens++
		return true
	}
	rc.brkFails++
	if rc.brkFails >= rc.cfg.BreakerThreshold {
		rc.brk = brkOpen
		rc.brkOpenedAt = time.Now()
		rc.brkFails = 0
		rc.stats.BreakerOpens++
		return true
	}
	return false
}

// do runs op with the retry policy, redialing as needed.
func (rc *RetryClient) do(op func(cl *Client) error) error {
	if !rc.breakerAdmit() {
		return ErrBreakerOpen
	}
	var err error
	for attempt := 0; attempt < rc.cfg.Attempts; attempt++ {
		if attempt > 0 {
			// Retries spend from the token bucket: when overload has
			// drained it, first tries still flow but amplification stops.
			if rc.cfg.RetryBudget > 0 {
				if rc.tokens < 1 {
					rc.stats.BudgetDenied++
					break
				}
				rc.tokens--
			}
			rc.stats.Retries++
			rc.sleepBackoff(attempt-1, retryAfterHint(err))
		}
		if rc.cl == nil {
			var c Conn
			if c, err = rc.dial(); err != nil {
				if !Transient(err) {
					return err
				}
				if rc.noteFailure() {
					break
				}
				continue
			}
			rc.cl = New(c)
			rc.cl.SetTimeout(rc.cfg.Timeout)
			rc.cl.SetBudget(rc.cfg.Budget)
		}
		if err = op(rc.cl); err == nil {
			rc.noteSuccess()
			return nil
		}
		if !Transient(err) {
			return err
		}
		// A 503 means the server answered; the connection is still
		// synchronized and reusable. Everything else transient is a
		// transport failure — or a timeout that may have left a straggler
		// response in flight — so the connection must be replaced.
		if !errors.Is(err, ErrStatus) {
			rc.dropConn()
		}
		if rc.noteFailure() {
			// Breaker opened mid-loop: the target is saturated or down;
			// keeping on retrying is exactly the amplification the
			// breaker exists to stop.
			break
		}
	}
	rc.stats.Exhausted++
	return err
}

// Put stores key -> value, retrying transient failures.
func (rc *RetryClient) Put(key, value []byte) error {
	return rc.do(func(cl *Client) error { return cl.Put(key, value) })
}

// Get fetches key's value, retrying transient failures; ok=false on 404.
// With cfg.Hedge > 0 a straggling primary is raced by a second
// connection (GET is idempotent, so the duplicate is harmless).
func (rc *RetryClient) Get(key []byte) (val []byte, ok bool, err error) {
	err = rc.do(func(cl *Client) error {
		if rc.cfg.Hedge > 0 {
			val, ok, err = rc.raceGet(key)
		} else {
			val, ok, err = cl.Get(key)
		}
		return err
	})
	return val, ok, err
}

// raceGet issues the GET on the current connection and, if no answer
// arrives within cfg.Hedge, races it against a fresh connection; the
// first answer wins. The losing connection has a response in flight and
// can't be resynchronized, so it is closed; when the hedge wins it
// becomes the new primary.
func (rc *RetryClient) raceGet(key []byte) ([]byte, bool, error) {
	type getRes struct {
		val []byte
		ok  bool
		err error
	}
	primary := rc.cl
	ch1 := make(chan getRes, 1)
	go func() {
		v, o, e := primary.Get(key)
		ch1 <- getRes{v, o, e}
	}()
	t := time.NewTimer(rc.cfg.Hedge)
	defer t.Stop()
	select {
	case r := <-ch1:
		return r.val, r.ok, r.err
	case <-t.C:
	}
	rc.stats.Hedges++
	c2, derr := rc.dial()
	if derr != nil {
		// No second connection to race with: fall back to waiting for
		// the primary (its own timeout bounds the wait).
		r := <-ch1
		return r.val, r.ok, r.err
	}
	hedge := New(c2)
	hedge.SetTimeout(rc.cfg.Timeout)
	hedge.SetBudget(rc.cfg.Budget)
	ch2 := make(chan getRes, 1)
	go func() {
		v, o, e := hedge.Get(key)
		ch2 <- getRes{v, o, e}
	}()
	select {
	case r := <-ch1:
		hedge.Close() // mid-flight: discard
		return r.val, r.ok, r.err
	case r := <-ch2:
		rc.stats.HedgeWins++
		primary.Close() // mid-flight: unusable
		rc.cl = hedge   // adopt the winner as the new primary
		return r.val, r.ok, r.err
	}
}

// Delete removes key, retrying transient failures; found=false on 404.
func (rc *RetryClient) Delete(key []byte) (found bool, err error) {
	err = rc.do(func(cl *Client) error {
		found, err = cl.Delete(key)
		return err
	})
	return found, err
}

// Range queries [start, end) up to limit records, retrying transient
// failures.
func (rc *RetryClient) Range(start, end []byte, limit int) (kvs []kvproto.KV, err error) {
	err = rc.do(func(cl *Client) error {
		kvs, err = cl.Range(start, end, limit)
		return err
	})
	return kvs, err
}
