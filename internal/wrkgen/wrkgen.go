// Package wrkgen is the load generator: the role wrk plays on the paper's
// testbed. It opens N persistent connections, issues continual storage
// requests, and reports throughput and a latency distribution.
package wrkgen

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"packetstore/internal/hdrhist"
	"packetstore/internal/kvclient"
	"packetstore/internal/kvproto"
)

// Dist selects the key distribution.
type Dist int

// Distributions.
const (
	DistSeq Dist = iota
	DistUniform
	DistZipf
)

// zipfS is DistZipf's skew exponent (s > 1; larger is more skewed).
const zipfS = 1.1

// Config describes a workload.
type Config struct {
	// Conns is the number of concurrent persistent connections.
	Conns int
	// Duration bounds the measured run (after Warmup).
	Duration time.Duration
	// Warmup runs load without recording.
	Warmup time.Duration
	// Requests, when > 0, bounds the total measured requests instead of
	// Duration.
	Requests int
	// ValueSize is the PUT payload size (the paper uses 1KB).
	ValueSize int
	// KeySpace is the number of distinct keys.
	KeySpace int
	// KeyDist selects how keys are drawn; DistZipf uses skew exponent
	// zipfS.
	KeyDist Dist
	// PutPct/DeletePct are the operation mix out of 100; the remainder
	// is GETs (GetPct derives it).
	PutPct    int
	DeletePct int
	// Pipeline keeps up to this many requests in flight per connection
	// (HTTP pipelining). 0 or 1 is the synchronous request/response
	// loop; higher depths let one connection's requests queue at the
	// server, which is what lets the group-commit loop form bursts.
	Pipeline int
	// Seed makes runs reproducible; each connection derives its own
	// stream.
	Seed int64
	// QueueOf, when set together with ShardOfKey, maps a freshly dialed
	// connection to the server RSS queue its flow hashes to. The
	// generator then salts each key until it hashes to that queue's
	// shard — the client side of the hash-alignment invariant
	// (DESIGN.md §5.7): every PUT arrives at the loop owning its shard,
	// keeping the zero-copy ingest path core-local.
	QueueOf func(kvclient.Conn) int
	// ShardOfKey maps a key to its owning shard (bind core.ShardOf to
	// the shard count).
	ShardOfKey func(key []byte) int
	// Rate, when > 0, switches the generator to open loop: arrivals are
	// a Poisson process at Rate requests/second total (split evenly
	// across connections), scheduled independently of completions — the
	// load a congested server faces from the outside world, where slow
	// responses do not slow the offered stream. Each connection splits
	// into a paced sender and an in-order receiver; arrivals that find
	// the in-flight window full are dropped client-side and counted
	// (Result.ClientDrops) rather than back-pressured. Requires
	// Duration; incompatible with Pipeline (ignored).
	Rate float64
	// Budget, in open-loop mode, is both the wire latency budget and the
	// client SLO: each request carries the budget *remaining* at send
	// time (X-Budget-Us, aged by client-side queue wait), arrivals whose
	// budget lapses before they reach the wire are dropped client-side
	// as doomed, and a response counts toward Result.Good only if it
	// lands within Budget of its scheduled arrival. 0 means no budget:
	// every accepted response is good.
	Budget time.Duration
	// InFlight caps requests outstanding per connection in open-loop
	// mode (default 1024). A small cap is client-side containment: work
	// that would queue beyond what the budget can survive is dropped at
	// the client (Result.ClientDrops) instead of aging in socket buffers
	// where no server-side controller can see its true age.
	InFlight int
}

// Result aggregates a run.
type Result struct {
	Requests uint64
	Errors   uint64
	Elapsed  time.Duration
	Hist     hdrhist.Hist
	// Open-loop accounting (Config.Rate > 0). Offered counts scheduled
	// arrivals in the measured window; Good counts responses accepted
	// (non-503) within the Budget SLO; Shed counts overload rejections —
	// server 503s plus arrivals whose budget lapsed client-side before
	// the wire; ClientDrops counts arrivals dropped because the
	// connection's in-flight window was full. Offered ≥ Good + Shed +
	// ClientDrops (the remainder: errors and SLO-missing responses).
	Offered     uint64
	Good        uint64
	Shed        uint64
	ClientDrops uint64
}

// GetPct is the GET share of the mix: whatever PutPct and DeletePct
// leave over (read-mix sweeps are specified by their read percentage,
// but the generator's knobs are the write ones).
func (c Config) GetPct() int { return 100 - c.PutPct - c.DeletePct }

// Throughput returns requests per second.
func (r Result) Throughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Requests) / r.Elapsed.Seconds()
}

// Goodput returns SLO-compliant completions per second (open loop).
func (r Result) Goodput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Good) / r.Elapsed.Seconds()
}

// String summarizes the result.
func (r Result) String() string {
	return fmt.Sprintf("%.0f req/s, %s", r.Throughput(), r.Hist.String())
}

// Dialer opens workload connections.
type Dialer func() (kvclient.Conn, error)

// Run executes the workload and blocks until done.
func Run(cfg Config, dial Dialer) (Result, error) {
	if cfg.Conns <= 0 {
		cfg.Conns = 1
	}
	if cfg.ValueSize <= 0 {
		cfg.ValueSize = 1024
	}
	if cfg.KeySpace <= 0 {
		cfg.KeySpace = 10000
	}
	if cfg.PutPct == 0 && cfg.DeletePct == 0 {
		cfg.PutPct = 100
	}
	if cfg.Duration <= 0 && cfg.Requests <= 0 {
		cfg.Duration = time.Second
	}
	if cfg.Rate > 0 && cfg.Duration <= 0 {
		cfg.Duration = time.Second // open loop is duration-bounded
	}

	type connResult struct {
		reqs, errs        uint64
		offered, good     uint64
		shed, clientDrops uint64
		hist              hdrhist.Hist
		err               error
	}
	results := make([]connResult, cfg.Conns)
	var wg sync.WaitGroup

	var startMeasure, stop time.Time
	measureStart := time.Now().Add(cfg.Warmup)
	if cfg.Duration > 0 {
		stop = measureStart.Add(cfg.Duration)
	}
	startMeasure = measureStart

	perConnReqs := 0
	if cfg.Requests > 0 {
		perConnReqs = (cfg.Requests + cfg.Conns - 1) / cfg.Conns
	}

	for ci := 0; ci < cfg.Conns; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			res := &results[ci]
			conn, err := dial()
			if err != nil {
				res.err = err
				return
			}
			cl := kvclient.New(conn)
			defer cl.Close()
			alignQ := -1
			var keyCache map[int][]byte
			if cfg.QueueOf != nil && cfg.ShardOfKey != nil {
				alignQ = cfg.QueueOf(conn)
				keyCache = make(map[int][]byte)
			}
			makeKey := func(keyID int) []byte {
				if alignQ < 0 {
					return []byte(fmt.Sprintf("key%012d", keyID))
				}
				if k, ok := keyCache[keyID]; ok {
					return k
				}
				// Deterministic rejection sampling: the first salt that
				// lands the key on this connection's queue (expected
				// iterations = shard count). Each queue thus works a
				// disjoint key subspace, like per-core wrk streams.
				var k []byte
				for salt := 0; ; salt++ {
					k = []byte(fmt.Sprintf("key%012d-%04d", keyID, salt))
					if cfg.ShardOfKey(k) == alignQ {
						break
					}
				}
				keyCache[keyID] = k
				return k
			}
			rng := rand.New(rand.NewSource(cfg.Seed + int64(ci)*7919))
			var zipf *rand.Zipf
			if cfg.KeyDist == DistZipf {
				zipf = rand.NewZipf(rng, zipfS, 1, uint64(cfg.KeySpace-1))
			}
			value := make([]byte, cfg.ValueSize)
			rng.Read(value)
			seqKey := ci // stride sequential keys across connections

			nextKey := func() []byte {
				var keyID int
				switch cfg.KeyDist {
				case DistSeq:
					keyID = seqKey % cfg.KeySpace
					seqKey += cfg.Conns
				case DistUniform:
					keyID = rng.Intn(cfg.KeySpace)
				case DistZipf:
					keyID = int(zipf.Uint64())
				}
				return makeKey(keyID)
			}

			if cfg.Rate > 0 {
				os, err := runOpenLoop(cfg, cl, ci, rng, nextKey, startMeasure, stop)
				res.reqs, res.errs = os.reqs, os.errs
				res.offered, res.good = os.offered, os.good
				res.shed, res.clientDrops = os.shed, os.clientDrops
				res.hist = os.hist
				res.err = err
				return
			}
			measured := 0
			if cfg.Pipeline > 1 {
				// Windowed pipelining: keep up to Pipeline requests in
				// flight; responses come back in request order. Latency
				// covers send-to-response, queueing included.
				type outst struct {
					t0 time.Time
					op int // 0 put, 1 delete, 2 get
				}
				var window []outst
				recvOne := func() error {
					status, _, err := cl.Recv()
					o := window[0]
					window = window[1:]
					if err == nil {
						switch {
						case o.op == 0 && status != 200 && status != 201:
							err = fmt.Errorf("pipelined PUT: status %d", status)
						case o.op != 0 && status != 200 && status != 204 && status != 404:
							err = fmt.Errorf("pipelined op %d: status %d", o.op, status)
						}
					}
					if o.t0.After(startMeasure) {
						measured++
						res.reqs++
						if err != nil {
							res.errs++
						} else {
							res.hist.Record(time.Since(o.t0))
						}
					}
					return err
				}
				for {
					now := time.Now()
					if perConnReqs > 0 {
						if measured+len(window) >= perConnReqs {
							break
						}
					} else if now.After(stop) {
						break
					}
					key := nextKey()
					op := rng.Intn(100)
					var method, path string
					var body []byte
					kind := 2
					switch {
					case op < cfg.PutPct:
						method, path, body, kind = "PUT", kvproto.KeyPath(key), value, 0
					case op < cfg.PutPct+cfg.DeletePct:
						method, path, kind = "DELETE", kvproto.KeyPath(key), 1
					default:
						method, path = "GET", kvproto.KeyPath(key)
					}
					t0 := time.Now()
					if err := cl.Send(method, path, body); err != nil {
						res.err = err
						return
					}
					window = append(window, outst{t0: t0, op: kind})
					if len(window) >= cfg.Pipeline {
						if err := recvOne(); err != nil {
							res.err = err
							return
						}
					}
				}
				for len(window) > 0 {
					if err := recvOne(); err != nil {
						res.err = err
						return
					}
				}
				return
			}
			for {
				now := time.Now()
				if perConnReqs > 0 {
					if measured >= perConnReqs {
						return
					}
				} else if now.After(stop) {
					return
				}
				key := nextKey()

				op := rng.Intn(100)
				t0 := time.Now()
				var err error
				switch {
				case op < cfg.PutPct:
					err = cl.Put(key, value)
				case op < cfg.PutPct+cfg.DeletePct:
					_, err = cl.Delete(key)
				default:
					_, _, err = cl.Get(key)
				}
				lat := time.Since(t0)
				if t0.After(startMeasure) {
					measured++
					res.reqs++
					if err != nil {
						res.errs++
					} else {
						res.hist.Record(lat)
					}
				}
				if err != nil {
					res.err = err
					return
				}
			}
		}(ci)
	}
	wg.Wait()

	var out Result
	var firstErr error
	for i := range results {
		out.Requests += results[i].reqs
		out.Errors += results[i].errs
		out.Offered += results[i].offered
		out.Good += results[i].good
		out.Shed += results[i].shed
		out.ClientDrops += results[i].clientDrops
		out.Hist.Merge(&results[i].hist)
		if results[i].err != nil && firstErr == nil {
			firstErr = results[i].err
		}
	}
	if cfg.Duration > 0 {
		out.Elapsed = cfg.Duration
	} else {
		out.Elapsed = time.Since(startMeasure)
	}
	return out, firstErr
}

// openStats is one connection's open-loop tally.
type openStats struct {
	reqs, errs        uint64
	offered, good     uint64
	shed, clientDrops uint64
	hist              hdrhist.Hist
}

// runOpenLoop drives one connection at a Poisson-paced offered rate.
// The sender schedules arrivals from an exponential inter-arrival
// stream and never waits for responses; the receiver consumes them in
// request order (the protocol is pipelined FIFO). A bounded in-flight
// window keeps client memory finite: arrivals beyond it are dropped
// and counted, not queued — queueing them would quietly convert the
// generator back to closed loop.
func runOpenLoop(cfg Config, cl *kvclient.Client, ci int, rng *rand.Rand, nextKey func() []byte, startMeasure, stop time.Time) (openStats, error) {
	var st openStats
	perRate := cfg.Rate / float64(cfg.Conns)

	type rec struct {
		t0 time.Time // scheduled arrival: latency includes client queue wait
		op int       // 0 put, 1 delete, 2 get
	}
	window := cfg.InFlight
	if window <= 0 {
		window = 1024
	}
	sendCh := make(chan rec, window)
	// Bound every Recv: a response overdue by many budgets is never
	// going to be good, and an unbounded wait would wedge the drain if
	// the transport stalls under the very overload being generated.
	if cfg.Budget > 0 {
		to := 10 * cfg.Budget
		if to < 2*time.Second {
			to = 2 * time.Second
		}
		cl.SetTimeout(to)
	}
	// After the first Recv failure the response stream is
	// desynchronized: the connection is wedged, every remaining
	// in-flight request is an error, and the sender must stop offering
	// into it. The flag is the cross-goroutine fail-stop signal.
	var failed atomic.Bool
	var rdWG sync.WaitGroup
	rdWG.Add(1)
	go func() {
		defer rdWG.Done()
		for o := range sendCh {
			var status int
			var err error
			if !failed.Load() {
				status, _, err = cl.Recv()
				if err != nil {
					failed.Store(true)
				}
			}
			if !o.t0.After(startMeasure) {
				continue
			}
			st.reqs++
			switch {
			case failed.Load():
				st.errs++
			case status == 503:
				st.shed++
			case status == 200 || status == 201 || status == 204 ||
				(o.op != 0 && status == 404):
				lat := time.Since(o.t0)
				st.hist.Record(lat)
				if cfg.Budget <= 0 || lat <= cfg.Budget {
					st.good++
				}
			default:
				st.errs++
			}
		}
	}()

	// Dedicated arrival stream so pacing does not perturb the op/key
	// stream shared with the closed-loop modes.
	arr := rand.New(rand.NewSource(cfg.Seed + int64(ci)*15485863 + 7))
	var offered, lapsed, drops uint64
	var sendErr error
	value := make([]byte, cfg.ValueSize)
	arr.Read(value)
	next := time.Now()
	for {
		next = next.Add(time.Duration(arr.ExpFloat64() / perRate * float64(time.Second)))
		if next.After(stop) {
			break
		}
		if d := time.Until(next); d > 0 {
			time.Sleep(d)
		}
		if failed.Load() {
			break
		}
		measured := next.After(startMeasure)
		if measured {
			offered++
		}
		budget := cfg.Budget
		if budget > 0 {
			// Age the budget by the client-side wait already incurred: the
			// server sees only what remains. A lapsed budget is doomed work
			// — drop it here instead of shipping it.
			budget -= time.Since(next)
			if budget <= 0 {
				if measured {
					lapsed++
				}
				continue
			}
		}
		key := nextKey()
		op := rng.Intn(100)
		var method, path string
		var body []byte
		kind := 2
		switch {
		case op < cfg.PutPct:
			method, path, body, kind = "PUT", kvproto.KeyPath(key), value, 0
		case op < cfg.PutPct+cfg.DeletePct:
			method, path, kind = "DELETE", kvproto.KeyPath(key), 1
		default:
			method, path = "GET", kvproto.KeyPath(key)
		}
		select {
		case sendCh <- rec{t0: next, op: kind}:
		default:
			if measured {
				drops++
			}
			continue
		}
		if err := cl.SendBudget(method, path, body, budget); err != nil {
			// A send failure on a connection the reader already declared
			// wedged is the same per-connection outcome, not a run error.
			if !failed.Load() {
				sendErr = err
			}
			break
		}
	}
	close(sendCh)
	rdWG.Wait()
	st.offered += offered
	st.shed += lapsed
	st.clientDrops += drops
	return st, sendErr
}
