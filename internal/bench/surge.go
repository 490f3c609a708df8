package bench

import (
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"packetstore/internal/calib"
	"packetstore/internal/kvclient"
	"packetstore/internal/kvserver"
	"packetstore/internal/wrkgen"
)

// surgeValueSize is the PUT payload for the surge sweep: small enough
// that a deep in-flight window's bytes sit far below the transport's
// 256KB socket buffers (the queueing under test is request-count
// queueing at the server, not byte queueing in the pipe).
const surgeValueSize = 256

// SurgePoint is one cell of the overload sweep: a fixed offered-load
// factor with overload control on or off.
type SurgePoint struct {
	// Factor is offered load as a multiple of calibrated capacity.
	Factor float64
	// Control marks overload control (expired-budget drops) enabled;
	// false is the binary-shed baseline.
	Control bool
	// OfferedRate is the open-loop Poisson rate (req/s).
	OfferedRate float64
	// Open-loop tallies (see wrkgen.Result).
	Offered, Good, Shed, ClientDrops, Errors uint64
	// Goodput is SLO-compliant completions per second.
	Goodput float64
	// Accepted-response latency percentiles (503s excluded), measured
	// from scheduled arrival — client queue wait included.
	AcceptedP50Us, AcceptedP99Us float64
	// Server-side overload counters for the run.
	SrvExpired, SrvSheds uint64
	QueueDelayMs         float64
}

// SurgeContainment summarizes the client-containment phase: more
// retrying clients than the server admits, so the surplus must be
// absorbed by circuit breakers instead of retry storms.
type SurgeContainment struct {
	Clients, Admitted int
	Requests, Errors  uint64
	Retries           uint64
	BreakerOpens      uint64
	BreakerFastFails  uint64
	BudgetDenied      uint64
	Hedges, HedgeWins uint64
	// HealthOverload is the server's /healthz overload section captured
	// at the end of the phase: the accept-cap sheds that tripped the
	// clients' breakers.
	HealthOverload *kvserver.OverloadHealth
}

// SurgeResult reproduces experiment E15: open-loop load swept from
// under to far over capacity, overload control on versus off. The
// headline: with control on, goodput at 2-3x offered load stays near
// the peak while the baseline collapses under doomed work.
type SurgeResult struct {
	Duration time.Duration
	Shards   int
	Conns    int
	// Budget is the per-request latency budget (and the goodput SLO),
	// derived from the calibrated closed-loop p99.
	Budget time.Duration
	// CapacityRps is the calibrated closed-loop capacity the factors
	// multiply.
	CapacityRps float64
	// ClosedP99Us is the closed-loop p99 the budget was derived from.
	ClosedP99Us float64
	Points      []SurgePoint
	Containment SurgeContainment
}

func (r SurgeResult) point(factor float64, control bool) *SurgePoint {
	for i := range r.Points {
		if r.Points[i].Factor == factor && r.Points[i].Control == control {
			return &r.Points[i]
		}
	}
	return nil
}

// PeakGoodput is the best goodput over the control-on points.
func (r SurgeResult) PeakGoodput() float64 {
	var peak float64
	for _, p := range r.Points {
		if p.Control && p.Goodput > peak {
			peak = p.Goodput
		}
	}
	return peak
}

// GoodputFraction returns goodput at the given point as a fraction of
// the control-on peak (0 when either is missing).
func (r SurgeResult) GoodputFraction(factor float64, control bool) float64 {
	peak := r.PeakGoodput()
	p := r.point(factor, control)
	if p == nil || peak <= 0 {
		return 0
	}
	return p.Goodput / peak
}

// RunSurge sweeps offered load over the overload knob (experiment E15).
// factors lists the capacity multiples to sweep; nil means the default
// 0.5x, 1x, 2x, 3x.
func RunSurge(profile calib.Profile, shards, conns int, duration time.Duration, factors []float64) (SurgeResult, error) {
	if shards <= 1 {
		shards = 2
	}
	if conns <= 0 {
		conns = 96
	}
	if duration <= 0 {
		duration = time.Second
	}
	if len(factors) == 0 {
		factors = []float64{0.5, 1, 2, 3}
	}
	out := SurgeResult{Duration: duration, Shards: shards, Conns: conns}

	// Serialize dialing: hundreds of workers dialing at once would
	// overflow the listener backlog, and a backlog overflow resets the
	// connection after the client's dial already succeeded.
	serialDial := func(d *deployment) wrkgen.Dialer {
		var mu sync.Mutex
		return func() (kvclient.Conn, error) {
			mu.Lock()
			defer mu.Unlock()
			var err error
			for attempt := 0; attempt < 5; attempt++ {
				var c kvclient.Conn
				if c, err = d.dial(); err == nil {
					return c, nil
				}
				// An accept loop busy with another connection's setup can
				// momentarily overflow the listen backlog; back off and
				// redial like a real client instead of failing the run.
				time.Sleep(time.Duration(attempt+1) * 5 * time.Millisecond)
			}
			return nil, fmt.Errorf("surge dial: %w", err)
		}
	}

	deploySurge := func(control bool, maxConns int) (*deployment, error) {
		cfg := storeCfgLarge()
		cfg.MetaSlots /= shards
		cfg.DataSlots /= shards
		// Copy-path ingest: under sustained 2-3x overload a zero-copy
		// deployment's rx pool pins packet buffers behind the backlog,
		// and the experiment would measure transport retransmit spirals
		// instead of the scheduler under test.
		return deploy(deployOptions{
			profile: profile, kind: kindPktStore, zeroCopy: false,
			shards: shards, storeCfg: cfg,
			srvCfg: kvserver.Config{
				MaxBatch: 16,
				MaxConns: maxConns,
				Overload: kvserver.OverloadConfig{Enabled: control},
			},
		})
	}

	// Calibrate: pipelined closed-loop throughput at this concurrency is
	// the capacity the surge factors multiply (pipelined so group commit
	// amortization is part of it — the open-loop sweep pipelines too),
	// and its p99 anchors the latency budget.
	{
		d, err := deploySurge(false, 0)
		if err != nil {
			return out, err
		}
		res, err := wrkgen.Run(d.align(wrkgen.Config{
			Conns: conns, Duration: duration, Warmup: duration / 4,
			ValueSize: surgeValueSize, KeySpace: 1 << 14, PutPct: 100, Seed: 11,
			Pipeline: 8,
		}), serialDial(d))
		d.close()
		if err != nil {
			return out, fmt.Errorf("bench: surge calibration: %w", err)
		}
		if res.Requests == 0 {
			return out, fmt.Errorf("bench: calibration completed no requests")
		}
		out.CapacityRps = res.Throughput()
		out.ClosedP99Us = us(res.Hist.Percentile(99))
		// The budget is a fixed SLO floor (30ms) rather than a pure
		// percentile of the calibration run: several times the unloaded
		// closed-loop latency, yet comfortably below the delay one full
		// window-depth of standing queue produces, so the on/off
		// comparison is about queueing ratios and survives the host's
		// run-to-run capacity noise (a percentile-derived budget would
		// inherit the calibration run's own scheduler tails and swing the
		// SLO between runs). Slow profiles — paper-calibrated PM stalls
		// push the closed-loop p99 past 30ms — raise the floor to 2x that
		// p99 so the SLO stays meetable unloaded on every profile.
		out.Budget = 30 * time.Millisecond
		if p99 := time.Duration(out.ClosedP99Us) * time.Microsecond; out.Budget < 2*p99 {
			out.Budget = 2 * p99
		}
	}

	// The per-connection window models undisciplined open-loop clients —
	// exactly what the server's controller must protect against — so it
	// is sized to hold about two budgets of work at calibrated capacity:
	// deep enough that a server executing everything (the baseline) is
	// late on nearly all of it once saturated, shallow enough that the
	// window's bytes stay far below the 256KB socket buffers, where TCP
	// zero-window stalls would displace the effect under test.
	inFlight := 48

	for _, factor := range factors {
		for _, control := range []bool{true, false} {
			d, err := deploySurge(control, 0)
			if err != nil {
				return out, err
			}
			rate := factor * out.CapacityRps
			res, err := wrkgen.Run(d.align(wrkgen.Config{
				Conns: conns, Duration: duration, Warmup: duration / 4,
				ValueSize: surgeValueSize, KeySpace: 1 << 14, PutPct: 100, Seed: 13,
				Rate: rate, Budget: out.Budget, InFlight: inFlight,
			}), serialDial(d))
			st := d.srv.Stats()
			d.close()
			if err != nil {
				err = fmt.Errorf("bench: surge point %gx control=%v: %w", factor, control, err)
				return out, err
			}
			out.Points = append(out.Points, SurgePoint{
				Factor: factor, Control: control, OfferedRate: rate,
				Offered: res.Offered, Good: res.Good, Shed: res.Shed,
				ClientDrops: res.ClientDrops, Errors: res.Errors,
				Goodput:       res.Goodput(),
				AcceptedP50Us: us(res.Hist.Percentile(50)),
				AcceptedP99Us: us(res.Hist.Percentile(99)),
				SrvExpired:    st.Expired, SrvSheds: st.Sheds,
				QueueDelayMs: float64(st.QueueDelay.Microseconds()) / 1e3,
			})
		}
	}

	// Containment: more breaker-equipped retrying clients than the
	// server admits (MaxConns). The surplus clients' 503s must trip
	// breakers — bounded fast-fails — instead of hammering the accept
	// path; hedged GETs exercise the tail-racing path on the admitted
	// ones. The server's /healthz overload section shows the other side:
	// the accept-cap sheds.
	{
		admit := conns / 8
		if admit < 2 {
			admit = 2
		}
		clients := admit * 3
		d, err := deploySurge(true, (admit+shards-1)/shards)
		if err != nil {
			return out, err
		}
		// Bound every containment dial with a deadline: the fast-fail
		// storm can starve the simulated stack's handshake timers on a
		// single-core host, parking a Dial far past the stack's own
		// give-up, and one wedged dial would hang the whole phase. A dial
		// that completes after the deadline is closed by the reaper.
		guardedDial := func() (kvclient.Conn, error) {
			type dialRes struct {
				c   kvclient.Conn
				err error
			}
			ch := make(chan dialRes, 1)
			go func() {
				c, err := d.dial()
				ch <- dialRes{c, err}
			}()
			select {
			case r := <-ch:
				return r.c, r.err
			case <-time.After(2 * time.Second):
				go func() {
					if r := <-ch; r.err == nil {
						r.c.Close()
					}
				}()
				return nil, fmt.Errorf("surge dial: %w", os.ErrDeadlineExceeded)
			}
		}
		var mu sync.Mutex
		var agg kvclient.RetryStats
		var reqs, errsN uint64
		var wg sync.WaitGroup
		stopAt := time.Now().Add(duration)
		for i := 0; i < clients; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				rc := kvclient.NewRetry(guardedDial, kvclient.RetryConfig{
					Attempts: 3, Backoff: time.Millisecond, BackoffMax: 10 * time.Millisecond,
					Timeout: 250 * time.Millisecond, Budget: out.Budget,
					BreakerThreshold: 3, BreakerCooldown: 20 * time.Millisecond,
					RetryBudget: 10, Hedge: out.Budget / 4,
					Seed: int64(i)*6151 + 17,
				})
				defer rc.Close()
				key := []byte(fmt.Sprintf("containment-%04d", i))
				var r, e uint64
				for n := 0; time.Now().Before(stopAt); n++ {
					var err error
					if n%2 == 0 {
						err = rc.Put(key, make([]byte, 128))
					} else {
						_, _, err = rc.Get(key)
					}
					r++
					if err != nil {
						e++
						if !kvclient.Transient(err) {
							break
						}
						// Fast-failed or exhausted: hold off briefly instead
						// of spinning on the open breaker.
						time.Sleep(200 * time.Microsecond)
					}
				}
				st := rc.Stats()
				mu.Lock()
				agg.Retries += st.Retries
				agg.Exhausted += st.Exhausted
				agg.BreakerOpens += st.BreakerOpens
				agg.BreakerFastFails += st.BreakerFastFails
				agg.BudgetDenied += st.BudgetDenied
				agg.Hedges += st.Hedges
				agg.HedgeWins += st.HedgeWins
				reqs += r
				errsN += e
				mu.Unlock()
			}(i)
		}
		wg.Wait()
		rep := d.srv.Health()
		d.close()
		out.Containment = SurgeContainment{
			Clients: clients, Admitted: admit,
			Requests: reqs, Errors: errsN,
			Retries:      agg.Retries,
			BreakerOpens: agg.BreakerOpens, BreakerFastFails: agg.BreakerFastFails,
			BudgetDenied: agg.BudgetDenied,
			Hedges:       agg.Hedges, HedgeWins: agg.HedgeWins,
			HealthOverload: rep.Overload,
		}
	}
	return out, nil
}

// Print renders the surge experiment.
func (r SurgeResult) Print(w io.Writer) {
	fprintf(w, "Overload surge: %d shards, %d conns, capacity %.0f req/s (closed-loop p99 %.1fus), budget/SLO %v (%v per point)\n",
		r.Shards, r.Conns, r.CapacityRps, r.ClosedP99Us, r.Budget, r.Duration)
	fprintf(w, "\n%-14s %10s %10s %10s %10s %10s %9s\n",
		"point", "offered/s", "goodput/s", "good%", "acc p99us", "shed", "expired")
	for _, p := range r.Points {
		name := fmt.Sprintf("%.1fx", p.Factor)
		if p.Control {
			name += " +control"
		} else {
			name += " baseline"
		}
		frac := 0.0
		if p.Offered > 0 {
			frac = float64(p.Good) / float64(p.Offered) * 100
		}
		fprintf(w, "%-14s %10.0f %10.0f %9.1f%% %10.1f %10d %9d\n",
			name, p.OfferedRate, p.Goodput, frac, p.AcceptedP99Us,
			p.Shed+p.ClientDrops, p.SrvExpired)
	}
	if peak := r.PeakGoodput(); peak > 0 {
		for _, f := range []float64{2, 3} {
			on, off := r.GoodputFraction(f, true), r.GoodputFraction(f, false)
			if on > 0 || off > 0 {
				fprintf(w, "\nAt %.0fx capacity: goodput %.0f%% of peak with control, %.0f%% baseline.",
					f, on*100, off*100)
			}
		}
		fprintf(w, "\n")
	}
	c := r.Containment
	if c.Clients > 0 {
		fprintf(w, "\nContainment: %d retrying clients vs %d admitted: %d requests, %d retries, %d breaker opens, %d fast-fails, %d hedges (%d won).\n",
			c.Clients, c.Admitted, c.Requests, c.Retries, c.BreakerOpens, c.BreakerFastFails, c.Hedges, c.HedgeWins)
		if c.HealthOverload != nil {
			fprintf(w, "healthz overload: sheds=%d expired=%d\n",
				c.HealthOverload.Sheds, c.HealthOverload.Expired)
		}
	}
}
