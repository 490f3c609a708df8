package main

import (
	"fmt"
	"runtime"
	"sync"
	"syscall"
	"time"

	"packetstore/internal/calib"
	"packetstore/internal/checksum"
	"packetstore/internal/core"
	"packetstore/internal/httpmsg"
	"packetstore/internal/kvproto"
	"packetstore/internal/kvserver"
	"packetstore/internal/latency"
	"packetstore/internal/nic"
	"packetstore/internal/pmem"
)

// snapshot is every layer's public counters read at one instant,
// together with the operation counts at that same instant: per-op ratios
// divide one delta by the other. (A scratch probe that reset counters
// before warm-up and divided by measured ops over-reported lines/op by
// 1.2x.)
type snapshot struct {
	at   time.Time
	ops  [opKinds]uint64
	pm   pmem.Stats
	core core.Stats
	srv  kvserver.Stats
	nic  nic.Stats
	spun time.Duration
	mem  runtime.MemStats
	cpu  time.Duration
}

func (d *deployment) snapshot(ops [opKinds]uint64) snapshot {
	s := snapshot{at: time.Now(), ops: ops, core: d.coreStats(), spun: latency.TotalSpun()}
	if d.pm != nil {
		s.pm = d.pm.Stats()
	}
	if d.srv != nil {
		s.srv = d.srv.Stats()
		s.nic = d.tb.Server.NIC.Stats()
	}
	runtime.ReadMemStats(&s.mem)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	return s
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// layerWindow turns the counter deltas between two snapshots into the
// per-layer metrics of that window.
func layerWindow(a, b snapshot) map[string]float64 {
	f := func(x, y uint64) float64 { return float64(y - x) }
	ops := 0.0
	for k := range a.ops {
		ops += f(a.ops[k], b.ops[k])
	}
	per := func(x float64) float64 { return ratio(x, ops) }
	m := map[string]float64{
		"pmem.lines_flushed_per_op":   per(f(a.pm.LinesFlushed, b.pm.LinesFlushed)),
		"pmem.flushes_per_op":         per(f(a.pm.Flushes, b.pm.Flushes)),
		"pmem.fences_per_op":          per(f(a.pm.Fences, b.pm.Fences)),
		"pmem.bytes_written_per_op":   per(f(a.pm.BytesWritten, b.pm.BytesWritten)),
		"pmem.lines_coalesced_per_op": per(f(a.pm.LinesCoalesced, b.pm.LinesCoalesced)),
		"pmem.wasted_flushes_per_op":  per(f(a.pm.WastedFlushes, b.pm.WastedFlushes)),
		"pmem.read_lines_per_op":      per(f(a.pm.Reads, b.pm.Reads)),
		"pmem.charged_ns_per_op":      per(float64(b.pm.Charged - a.pm.Charged)),

		"latency.spun_ns_per_op":  per(float64(b.spun - a.spun)),
		"proc.allocs_per_op":      per(f(a.mem.Mallocs, b.mem.Mallocs)),
		"proc.alloc_bytes_per_op": per(f(a.mem.TotalAlloc, b.mem.TotalAlloc)),
		"proc.gc_cycles":          float64(b.mem.NumGC - a.mem.NumGC),
		"proc.cpu_us_per_op":      per(float64(b.cpu-a.cpu) / 1e3),
	}

	gets := f(a.core.Gets, b.core.Gets)
	m["core.fast_get_ratio"] = ratio(f(a.core.FastGets, b.core.FastGets), gets)
	m["core.fast_get_retries_per_get"] = ratio(f(a.core.FastGetRetries, b.core.FastGetRetries), gets)
	m["core.fast_get_fallbacks_per_get"] = ratio(f(a.core.FastGetFallbacks, b.core.FastGetFallbacks), gets)
	reused, computed := f(a.core.ChecksumReused, b.core.ChecksumReused), f(a.core.ChecksumComputed, b.core.ChecksumComputed)
	m["core.checksum_reused_ratio"] = ratio(reused, reused+computed)
	m["core.group_size"] = ratio(f(a.core.GroupedPuts, b.core.GroupedPuts), f(a.core.GroupCommits, b.core.GroupCommits))

	reqs := f(a.srv.Requests, b.srv.Requests)
	busy := float64(b.srv.BusyTime - a.srv.BusyTime)
	m["kvserver.busy_ns_per_req"] = ratio(busy, reqs)
	m["kvserver.parse_ns_per_req"] = ratio(float64(b.srv.ParseTime-a.srv.ParseTime), reqs)
	m["kvserver.queue_delay_ns_per_req"] = ratio(float64(b.srv.QueueDelay-a.srv.QueueDelay), reqs)
	m["kvserver.utilisation"] = ratio(busy, float64(b.at.Sub(a.at)))
	m["kvserver.burst_size"] = ratio(f(a.srv.GroupedConns, b.srv.GroupedConns), f(a.srv.GroupCommits, b.srv.GroupCommits))
	puts := f(a.srv.Puts, b.srv.Puts)
	m["kvserver.zero_copy_put_ratio"] = ratio(f(a.srv.ZeroCopyPuts, b.srv.ZeroCopyPuts), puts)
	m["kvserver.zero_copy_get_ratio"] = ratio(f(a.srv.ZeroCopyGets, b.srv.ZeroCopyGets), f(a.srv.Gets, b.srv.Gets))
	derived, software := f(a.srv.DerivedSums, b.srv.DerivedSums), f(a.srv.SoftwareSums, b.srv.SoftwareSums)
	m["kvserver.derived_sum_ratio"] = ratio(derived, derived+software)
	m["kvserver.zero_copy_fallbacks_per_put"] = ratio(f(a.srv.ZeroCopyFallbacks, b.srv.ZeroCopyFallbacks), puts)
	m["kvserver.errors_per_req"] = ratio(f(a.srv.Errors, b.srv.Errors), reqs)

	m["nic.rx_packets_per_op"] = per(f(a.nic.RxPackets, b.nic.RxPackets))
	m["nic.tx_packets_per_op"] = per(f(a.nic.TxPackets, b.nic.TxPackets))
	m["nic.drops"] = f(a.nic.RxDropNoBuf+a.nic.RxDropRing+a.nic.TxDropRing, b.nic.RxDropNoBuf+b.nic.RxDropRing+b.nic.TxDropRing)
	m["nic.rx_csum_bad"] = f(a.nic.RxCsumBad, b.nic.RxCsumBad)
	return m
}

// Count-bounded probes: timed calls into public functions with
// calib.Off(), one goroutine and a fixed stream, so the counts they
// produce repeat exactly and the times are the software's own.

// probeBatch is how many ops share one pair of clock reads: it keeps the
// ~50 ns of clock cost out of ~1 us operations.
const probeBatch = 64

// timeBatches runs op n times and returns the median per-op nanoseconds
// over batches of probeBatch.
func timeBatches(n int, op func(i int)) float64 {
	var per []float64
	for i := 0; i < n; i += probeBatch {
		end := min(i+probeBatch, n)
		t0 := time.Now()
		for j := i; j < end; j++ {
			op(j)
		}
		per = append(per, float64(time.Since(t0).Nanoseconds())/float64(end-i))
	}
	return median(per)
}

// probeResult carries probe metrics plus the first error a probed call
// returned.
type probeResult struct {
	metrics map[string]float64
	err     error
}

func (p *probeResult) fail(err error) {
	if p.err == nil && err != nil {
		p.err = err
	}
}

// runProbes measures the host cost of single layers. The stream is
// fixed (it does not depend on -seed): probes compare commits, and a
// count that moved with the seed could not be compared exactly.
func runProbes(probeOps int) probeResult {
	p := probeResult{metrics: make(map[string]float64)}
	const probeSeed = 0x50726f6265 // "Probe"
	cfg := storeConfig()
	val := make([]byte, valueSize)
	keys := make([][]byte, keySpace)
	for id := range keys {
		keys[id] = keyOf(id)
	}
	key := func(i int) (int, []byte) { id := int(splitmix(uint64(i)) % keySpace); return id, keys[id] }

	// core: preload, then steady-state overwrites, reads, deletes.
	r := pmem.New(cfg.RegionSize(), calib.Off())
	s, err := core.Open(r, cfg)
	if err != nil {
		p.fail(err)
		return p
	}
	for id, k := range keys {
		fillValue(val, probeSeed, id, 1)
		p.fail(s.Put(k, val))
	}
	before := r.Stats()
	p.metrics["core.put_ns"] = timeBatches(probeOps, func(i int) {
		id, k := key(i)
		fillValue(val, probeSeed, id, uint64(i)+2)
		p.fail(s.Put(k, val))
	})
	after := r.Stats()
	n := float64(probeOps)
	p.metrics["probe.put_lines_flushed_per_op"] = float64(after.LinesFlushed-before.LinesFlushed) / n
	p.metrics["probe.put_flushes_per_op"] = float64(after.Flushes-before.Flushes) / n
	p.metrics["probe.put_fences_per_op"] = float64(after.Fences-before.Fences) / n
	p.metrics["probe.put_bytes_written_per_op"] = float64(after.BytesWritten-before.BytesWritten) / n

	before = after
	p.metrics["core.get_ns"] = timeBatches(probeOps, func(i int) {
		_, k := key(i)
		if _, ok, err := s.Get(k); err != nil || !ok {
			p.fail(fmt.Errorf("probe get %s: found %v, err %v", k, ok, err))
		}
	})
	after = r.Stats()
	p.metrics["probe.get_read_lines_per_op"] = float64(after.Reads-before.Reads) / n

	before = after
	p.metrics["core.staged8_commit_ns_per_put"] = timeBatches(probeOps/8, func(i int) {
		for j := 0; j < 8; j++ {
			id, k := key(i*8 + j)
			fillValue(val, probeSeed, id, uint64(i+probeOps)+2)
			p.fail(s.PutStaged(k, val))
		}
		s.Commit()
	}) / 8
	after = r.Stats()
	p.metrics["probe.staged8_lines_flushed_per_put"] = float64(after.LinesFlushed-before.LinesFlushed) / n
	p.metrics["probe.staged8_fences_per_put"] = float64(after.Fences-before.Fences) / n

	// Deletes need a present key each, so there are at most keySpace.
	p.metrics["core.delete_ns"] = timeBatches(min(probeOps, keySpace), func(i int) {
		if found, err := s.Delete(keys[i]); err != nil || !found {
			p.fail(fmt.Errorf("probe delete %s: found %v, err %v", keys[i], found, err))
		}
	})

	// pmem: persist 1 KB, alone and with a second goroutine on the other
	// half of the region — the simulator's own cost and its lock
	// contention.
	const half = 4 << 20
	pr := pmem.New(2*half, calib.Off())
	persist := func(base int) float64 {
		return timeBatches(probeOps, func(i int) {
			off := base + (i*valueSize)%half
			pr.Write(off, val)
			pr.Flush(off, valueSize)
			pr.Fence()
		})
	}
	p.metrics["pmem.persist1k_host_ns"] = persist(0)
	var wg sync.WaitGroup
	var par [2]float64
	for g := range par {
		wg.Add(1)
		go func() {
			defer wg.Done()
			par[g] = persist(g * half)
		}()
	}
	wg.Wait()
	p.metrics["pmem.persist1k_host_ns_par2"] = (par[0] + par[1]) / 2

	// httpmsg + kvproto: parse one canned 1 KB PUT.
	req := append(httpmsg.AppendRequest(nil, "PUT", kvproto.KeyPath(keys[1]), valueSize), val...)
	parser := httpmsg.NewRequestParser(0)
	p.metrics["httpmsg.parse_put1k_ns"] = timeBatches(probeOps, func(int) {
		parser.Reset()
		res := parser.Feed(req)
		if res.Err != nil || !res.Done {
			p.fail(fmt.Errorf("probe parse: done %v, err %v", res.Done, res.Err))
			return
		}
		hr := parser.Request()
		_, err := kvproto.Parse(hr.Method, hr.Path)
		p.fail(err)
	})

	var sink uint32
	p.metrics["checksum.inet_1k_ns"] = timeBatches(probeOps, func(int) { sink += checksum.Partial(0, val) })
	p.metrics["checksum.crc32c_1k_ns"] = timeBatches(probeOps, func(int) { sink += checksum.CRC32C(val) })
	runtime.KeepAlive(sink)
	return p
}
