package bench

import (
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"packetstore/internal/calib"
	"packetstore/internal/core"
	"packetstore/internal/hdrhist"
	"packetstore/internal/kvserver"
	"packetstore/internal/pmem"
	"packetstore/internal/wrkgen"
)

// ReadMixPoint is one measurement of the read-mix experiment (E14): a
// fixed GET/PUT mix and connection count, served with the lock-free
// read fast path on (Locked=false) or forced onto the store mutex
// (Locked=true, the pre-seqlock behavior).
type ReadMixPoint struct {
	// Locked is the A/B knob: true pins every GET to the locked slow
	// path (core.Config.LockedReads).
	Locked bool
	// Direct marks store-level points: Conns worker goroutines drive
	// the ShardedStore with no server or network stack in the way, so
	// the store mutex is the contended resource and the seqlock's
	// effect is isolated. Server points (Direct=false) run the full
	// TCP deployment, where (on a small host) the shared stack bounds
	// throughput and the fast path mostly shows up in tail latency.
	Direct bool
	// ReadPct is the GET share of the mix (PUTs are the remainder).
	ReadPct int
	Conns   int
	// Throughput is measured req/s over the whole mix.
	Throughput float64
	MeanLatUs  float64
	P50LatUs   float64
	P99LatUs   float64
	// Store read-path counters over the measured run: Gets is every
	// index lookup, FastGets the ones completed without the store
	// mutex, FastGetRetries the optimistic passes discarded by a
	// mid-read mutation, FastGetFallbacks the reads that conceded to
	// the locked path.
	Gets             uint64
	FastGets         uint64
	FastGetRetries   uint64
	FastGetFallbacks uint64
	ZeroCopyGets     uint64
}

// FastHitRate is the fraction of GETs served lock-free.
func (p ReadMixPoint) FastHitRate() float64 {
	if p.Gets == 0 {
		return 0
	}
	return float64(p.FastGets) / float64(p.Gets)
}

// ReadMixResult reproduces experiment E14: GET-heavy mixes swept over
// read share and connection count, locked against lock-free. The
// deployment is deliberately unaligned (uniform keys, no per-queue key
// subspace): every loop's GETs land on every shard, so the store mutex
// is contended across loops — the contention the seqlock fast path
// removes.
type ReadMixResult struct {
	Duration  time.Duration
	Shards    int
	ValueSize int
	KeySpace  int
	// Direct points use their own geometry: a single shard (the mutex is
	// per shard, so more shards multiply both baselines equally without
	// changing the contrast) and larger values (more PM lines charged
	// under the lock in the locked baseline, so the mutex — not the
	// harness's own CPU cost — is what binds).
	DirectShards    int
	DirectValueSize int
	ReadPcts        []int
	Conns           []int
	Points          []ReadMixPoint
}

func (r ReadMixResult) point(locked, direct bool, readPct, conns int) *ReadMixPoint {
	for i := range r.Points {
		p := &r.Points[i]
		if p.Locked == locked && p.Direct == direct && p.ReadPct == readPct && p.Conns == conns {
			return p
		}
	}
	return nil
}

// Speedup is fast-path throughput over locked throughput for one mix
// shape; the issue's target is >= 1.5x at 99% reads, 100 readers,
// measured where the store mutex is the contended resource (direct).
func (r ReadMixResult) Speedup(direct bool, readPct, conns int) float64 {
	locked, fast := r.point(true, direct, readPct, conns), r.point(false, direct, readPct, conns)
	if locked == nil || fast == nil || locked.Throughput <= 0 {
		return 0
	}
	return fast.Throughput / locked.Throughput
}

// RunReadMix sweeps read share x connections, locked vs lock-free.
func RunReadMix(profile calib.Profile, shards int, conns []int, duration time.Duration) (ReadMixResult, error) {
	return runReadMix(profile, shards, conns, []int{50, 90, 99}, 1<<14, duration)
}

func runReadMix(profile calib.Profile, shards int, conns, readPcts []int, keySpace int, duration time.Duration) (ReadMixResult, error) {
	if shards <= 1 {
		shards = 4
	}
	if len(conns) == 0 {
		conns = []int{16, 100}
	}
	if duration <= 0 {
		duration = time.Second
	}
	out := ReadMixResult{
		Duration: duration, Shards: shards,
		ValueSize: 1024, KeySpace: keySpace,
		DirectShards: 1, DirectValueSize: directValueSize,
		ReadPcts: readPcts, Conns: conns,
	}

	for _, locked := range []bool{true, false} {
		for _, readPct := range out.ReadPcts {
			for _, nc := range conns {
				p, err := measureDirect(profile, locked, readPct, nc, keySpace, duration)
				if err != nil {
					return out, err
				}
				out.Points = append(out.Points, p)
			}
		}
	}
	for _, locked := range []bool{true, false} {
		for _, readPct := range out.ReadPcts {
			for _, nc := range conns {
				cfg := storeCfgLarge()
				cfg.MetaSlots /= shards
				cfg.DataSlots /= shards
				cfg.LockedReads = locked
				d, err := deploy(deployOptions{
					profile: profile, kind: kindPktStore, zeroCopy: true,
					shards: shards, storeCfg: cfg,
					srvCfg: kvserver.Config{MaxBatch: 16},
				})
				if err != nil {
					return out, err
				}
				// Preload the whole keyspace through the store's front
				// door so the measured GETs hit; wrkgen's unaligned key
				// format is key%012d.
				for i := 0; i < out.KeySpace; i++ {
					k := []byte(fmt.Sprintf("key%012d", i))
					if err := d.ss.Put(k, make([]byte, out.ValueSize)); err != nil {
						d.close()
						return out, err
					}
				}
				stBefore := d.ss.Stats()
				wcfg := wrkgen.Config{
					Conns: nc, Duration: duration, Warmup: duration / 5,
					ValueSize: out.ValueSize, KeySpace: out.KeySpace,
					KeyDist: wrkgen.DistUniform, PutPct: 100 - readPct, Seed: 11,
				}
				res, err := wrkgen.Run(wcfg, d.dial)
				st := d.ss.Stats()
				srvSt := d.srv.Stats()
				d.close()
				if err != nil {
					return out, err
				}
				out.Points = append(out.Points, ReadMixPoint{
					Locked: locked, ReadPct: wcfg.GetPct(), Conns: nc,
					Throughput:       res.Throughput(),
					MeanLatUs:        us(res.Hist.Mean()),
					P50LatUs:         us(res.Hist.Percentile(50)),
					P99LatUs:         us(res.Hist.Percentile(99)),
					Gets:             st.Gets - stBefore.Gets,
					FastGets:         st.FastGets - stBefore.FastGets,
					FastGetRetries:   st.FastGetRetries - stBefore.FastGetRetries,
					FastGetFallbacks: st.FastGetFallbacks - stBefore.FastGetFallbacks,
					ZeroCopyGets:     srvSt.ZeroCopyGets,
				})
			}
		}
	}
	return out, nil
}

// directValueSize is the value size for direct (store-level) points:
// large enough that a locked GET's modeled PM read — the lines it
// charges while holding the shard mutex — dominates the harness's own
// per-op CPU cost, so the mutex is what the locked baseline measures.
const directValueSize = 4096

// measureDirect runs one store-level point: nc goroutines issue the
// GET/PUT mix straight at a single-shard store opened on a
// latency-modeled region. With the multi-core latency model, a locked
// GET serializes its modeled PM line charges under the shard mutex
// while a lock-free GET overlaps them with every other reader — this
// is the contention the seqlock removes, isolated from the network
// stack. One shard because the mutex is per shard: adding shards
// multiplies locked and lock-free capacity alike.
func measureDirect(profile calib.Profile, locked bool, readPct, nc, keySpace int, duration time.Duration) (ReadMixPoint, error) {
	// Key+value spans three 2KB data slots, so each record carries one
	// extent-chain slot besides its own: two metadata slots per record.
	cfg := core.Config{
		MetaSlots: 1 << 16, DataSlots: 1 << 16,
		ChecksumReuse: true, LockedReads: locked,
	}
	r := pmem.New(core.ShardedRegionSize(cfg, 1), profile)
	ss, err := core.OpenSharded(r, cfg, 1)
	if err != nil {
		return ReadMixPoint{}, err
	}
	// The harness itself is nc simulated cores hitting one shard, so PM
	// charges yield-spin once nc outgrows the host's CPUs even though the
	// store is unsharded.
	r.SetCores(nc)
	// Preformat the keyspace: the worker loop must spend its cycles in
	// the store, not in fmt.
	keys := make([][]byte, keySpace)
	val := make([]byte, directValueSize)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key%012d", i))
		if err := ss.Put(keys[i], val); err != nil {
			return ReadMixPoint{}, err
		}
	}
	stBefore := ss.Stats()

	var wg sync.WaitGroup
	var stop atomic.Bool
	hists := make([]hdrhist.Hist, nc)
	ops := make([]uint64, nc)
	errs := make([]error, nc)
	warmed := time.Now().Add(duration / 5)
	deadline := warmed.Add(duration)
	for w := 0; w < nc; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + w)))
			buf := make([]byte, directValueSize)
			for i := 0; !stop.Load(); i++ {
				key := keys[rng.Intn(keySpace)]
				t0 := time.Now()
				if rng.Intn(100) < readPct {
					if _, _, err := ss.Get(key); err != nil {
						errs[w] = err
						return
					}
				} else {
					if err := ss.Put(key, buf); err != nil {
						errs[w] = err
						return
					}
				}
				if t0.After(warmed) {
					hists[w].Record(time.Since(t0))
					ops[w]++
				}
				if i%64 == 0 && time.Now().After(deadline) {
					return
				}
			}
		}(w)
	}
	time.Sleep(time.Until(deadline) + duration/10)
	stop.Store(true)
	wg.Wait()
	var hist hdrhist.Hist
	var total uint64
	for w := range hists {
		if errs[w] != nil {
			return ReadMixPoint{}, errs[w]
		}
		hist.Merge(&hists[w])
		total += ops[w]
	}
	st := ss.Stats()
	p := ReadMixPoint{
		Locked: locked, Direct: true, ReadPct: readPct, Conns: nc,
		Throughput:       float64(total) / duration.Seconds(),
		MeanLatUs:        us(hist.Mean()),
		P50LatUs:         us(hist.Percentile(50)),
		P99LatUs:         us(hist.Percentile(99)),
		Gets:             st.Gets - stBefore.Gets,
		FastGets:         st.FastGets - stBefore.FastGets,
		FastGetRetries:   st.FastGetRetries - stBefore.FastGetRetries,
		FastGetFallbacks: st.FastGetFallbacks - stBefore.FastGetFallbacks,
	}
	// Drop the (hundreds-of-MB) region before the next point deploys its
	// own: letting them stack up poisons later measurements with GC work.
	ss, r, keys = nil, nil, nil
	_, _, _ = ss, r, keys
	runtime.GC()
	return p, nil
}

// Print renders the read-mix experiment.
func (r ReadMixResult) Print(w io.Writer) {
	fprintf(w, "Read mix: uniform unaligned keys over %d keys (%v per point)\n", r.KeySpace, r.Duration)
	fprintf(w, "  direct: %d shard(s), %dB values; server: %d shards, %dB values\n",
		r.DirectShards, r.DirectValueSize, r.Shards, r.ValueSize)
	fprintf(w, "\n%-33s %12s %10s %10s %10s %9s\n",
		"point", "req/s", "mean us", "p50 us", "p99 us", "fast%")
	for _, p := range r.Points {
		kind := "server"
		if p.Direct {
			kind = "direct"
		}
		name := fmt.Sprintf("%s %d%% reads, %d conns", kind, p.ReadPct, p.Conns)
		if p.Locked {
			name += " locked"
		}
		fprintf(w, "%-33s %12.0f %10.1f %10.1f %10.1f %9.1f\n",
			name, p.Throughput, p.MeanLatUs, p.P50LatUs, p.P99LatUs, p.FastHitRate()*100)
	}
	fprintf(w, "\nLock-free speedup (throughput vs locked):\n")
	for _, direct := range []bool{true, false} {
		kind := "server"
		if direct {
			kind = "direct"
		}
		for _, readPct := range r.ReadPcts {
			for _, nc := range r.Conns {
				if sp := r.Speedup(direct, readPct, nc); sp > 0 {
					fprintf(w, "  %s %2d%% reads, %3d conns: %.2fx\n", kind, readPct, nc, sp)
				}
			}
		}
	}
	if fast := r.point(false, true, 99, 100); fast != nil {
		fprintf(w, "Direct 99%% reads, 100 readers: %.1f%% of GETs lock-free (%d retries, %d fallbacks).\n",
			fast.FastHitRate()*100, fast.FastGetRetries, fast.FastGetFallbacks)
	}
}
